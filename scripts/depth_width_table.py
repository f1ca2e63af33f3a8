#!/usr/bin/env python3
"""Tabulate construction depth/width across input dimensions.

For each d, lists the exact tree, the depth-3 network, and the recursive
construction at every k up to the linear-width regime, with the analytic
width ceiling 20 d^(1+beta(k)) alongside the actual neuron counts.
"""

import argparse
import csv
import math
import sys

from maxnet import beta, deep_shape, depth3_shape, max_k_for_width_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="58,64,128,256,512,1024,2048,4096",
                        help="comma-separated input dimensions")
    parser.add_argument("--out", default="-", help="CSV path or - for stdout")
    args = parser.parse_args()

    rows = [["d", "construction", "k", "depth", "width", "width_bound"]]
    for d in (int(t) for t in args.dims.split(",")):
        tree_width = 3 * (d // 2) + 2 * (d % 2)  # the first layer's units
        rows.append([d, "exact_tree", "", math.ceil(math.log2(d)) + 1, tree_width, ""])
        rows.append([d, "depth3", 1, 3, depth3_shape(d)[0], 20 * d * d])
        for k in range(2, max_k_for_width_bound(d) + 1):
            widths = deep_shape(d, k)
            bound = 20 * d ** (1 + float(beta(k)))
            rows.append([d, "deep", k, 2 * k + 1, max(widths), round(bound, 1)])

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    csv.writer(sink, lineterminator="\n").writerows(rows)
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
