#!/usr/bin/env python3
"""Tabulate construction depth/width across input dimensions.

For each d, lists the exact tree, the depth-3 network, and the recursive
construction at every k up to the linear-width regime, with the analytic
width ceiling 20 d^(1+beta(k)) alongside the actual neuron counts: the
widest hidden layer and the hidden neurons summed over all layers.
"""

import argparse
import csv
import sys

from maxnet import beta, deep_shape, depth3_shape, exact_max_tree, max_k_for_width_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="58,64,128,256,512,1024,2048,4096",
                        help="comma-separated input dimensions")
    parser.add_argument("--out", default="-", help="CSV path or - for stdout")
    args = parser.parse_args()

    rows = [["d", "construction", "k", "depth", "width", "width_bound", "hidden_neurons"]]
    for d in (int(t) for t in args.dims.split(",")):
        tree = [layer.out_width for layer in exact_max_tree(d).hidden_layers]
        rows.append([d, "exact_tree", "", len(tree) + 1, max(tree, default=0), "", sum(tree)])
        depth3 = depth3_shape(d)
        rows.append([d, "depth3", 1, 3, max(depth3), 20 * d * d, sum(depth3)])
        for k in range(2, max_k_for_width_bound(d) + 1):
            widths = deep_shape(d, k)
            bound = 20 * d ** (1 + float(beta(k)))
            rows.append([d, "deep", k, 2 * k + 1, max(widths), round(bound, 1), sum(widths)])

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    csv.writer(sink, lineterminator="\n").writerows(rows)
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
