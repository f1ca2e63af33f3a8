"""Command-line entry point wiring the library into reproducible runs.

Every command takes explicit seeds (no wall-clock defaults), writes outputs
atomically, and drops a JSON run manifest next to each output file. CSV
bodies are byte-identical across reruns with identical flags and seeds;
manifests may differ only in their timestamp field.

Exit codes: 0 success, 2 input/precondition error, 64 usage error,
1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import build_weight_graph, find_triangle, parallelotope_floor
from .constructions import (
    alpha_for_accuracy,
    deep_max,
    depth3_max,
    exact_max_tree,
)
from .network import FeedForwardNet, ParseError, load, serialize, stats
from .sampling import DistributionSpec, estimate_violation_prob, mc_l2_error, row_max
from .spectral import q1_transform_grid, transform_direction_floor
from .training import width_sweep

USAGE_EXIT = 64
INPUT_EXIT = 2


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits with the usage code on bad flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-maxnet-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(command: str, params: dict, seed, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "params": {
            k: v
            for k, v in params.items()
            if v is not None and isinstance(v, (str, int, float, bool))
        },
        "seed": seed,
        "tool_version": __version__,
        "outputs": outputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    atomic_write(outputs[0] + ".manifest.json", json.dumps(manifest, indent=1) + "\n")


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _dist_from_args(args) -> DistributionSpec:
    if args.dist == "uniform":
        return DistributionSpec.uniform_box(args.d, a=args.a, R=args.R)
    if args.dist == "gauss":
        return DistributionSpec.gaussian_std(args.d)
    return DistributionSpec.iid_plus_noise(args.d, noise_scale=args.noise_scale)


def _stats_line(net: FeedForwardNet) -> str:
    s = stats(net)
    return (
        f"depth={s.depth} width={s.width} size={s.size} "
        f"max_abs_weight={s.max_abs_weight!r}"
    )


def cmd_construct(args) -> int:
    if args.alpha is not None and args.epsilon is not None:
        raise ValueError("give --alpha or --epsilon, not both")
    if args.kind in ("depth3", "deep"):
        alpha = args.alpha
        if args.epsilon is not None:
            alpha = alpha_for_accuracy(args.d, args.R, args.epsilon)
        if alpha is None:
            raise ValueError("provide --alpha or --epsilon")
        if args.kind == "depth3":
            net = depth3_max(args.d, alpha)
        else:
            net = deep_max(args.d, alpha, args.k)
    else:
        net = exact_max_tree(args.d)
    atomic_write(args.out, serialize(net))
    write_manifest("construct", vars(args), None, [args.out])
    print(_stats_line(net))
    return 0


def _error_csv_body(path: str, header: str) -> str:
    """The text of the error CSV at ``path``, or "" if there is none. A
    non-empty file that does not start with ``header`` is refused."""
    body = ""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            body = fh.read()
    if body and not body.startswith(header):
        raise ValueError(f"{path} does not start with the error CSV header; not appending")
    return body


@contextlib.contextmanager
def _directory_lock(path: str):
    """Hold an exclusive ``flock`` on the directory of ``path``. The lock
    creates no file, and it outlives ``atomic_write``'s replacement of the
    file itself, which a lock on the replaced file would not."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


def cmd_error(args) -> int:
    header = csv_text(
        ["d", "depth", "width", "alpha", "dist", "n", "mse", "ci_low", "ci_high", "seed"], []
    )
    _error_csv_body(args.out, header)  # refuse a foreign file before sampling
    net = load(args.net)
    dist = _dist_from_args(args)
    est = mc_l2_error(net, row_max, dist, args.n, seed=args.seed)
    s = stats(net)
    row = [
        args.d, s.depth, s.width, repr(s.max_abs_weight), args.dist, args.n,
        repr(est.mean_sq_error), repr(est.ci95[0]), repr(est.ci95[1]), args.seed,
    ]
    # Read the file only now, under the lock, so that rows other runs
    # appended while this one sampled are kept.
    with _directory_lock(args.out):
        body = _error_csv_body(args.out, header)
        atomic_write(args.out, (body or header) + csv_text(row, []))
        write_manifest("error", vars(args), args.seed, [args.out])
    print(f"mse={est.mean_sq_error!r} ci=({est.ci95[0]!r}, {est.ci95[1]!r})")
    return 0


# Most edges a weight-graph report lists. The recursion's first layer has
# d(d-1)/2 - O(d) of them: 523,776 at d = 1024, 2.1e9 at d = 65536, where
# the list would not fit in memory. A larger graph's report gives its
# count and removed edges, with "edges": null.
REPORT_MAX_EDGES = 2**20


def cmd_analyze(args) -> int:
    net = load(args.net)
    if args.analysis == "weight-graph":
        graph = build_weight_graph(net.layers[0])
        triangle = find_triangle(graph)
        report = {
            "analysis": "weight-graph",
            "d": graph.d,
            "n_edges": graph.n_edges,
            "edges": ([list(e) for e in graph.edges()]
                      if graph.n_edges <= REPORT_MAX_EDGES else None),
            "removed_edges": {
                f"{i},{j}": list(ms) for (i, j), ms in sorted(graph.removed_by.items())
            },
            "triangle": list(triangle) if triangle else None,
        }
    else:
        fr = parallelotope_floor(net, n=args.n, seed=args.seed)
        report = {
            "analysis": "kernel-floor",
            "d": net.input_dim,
            "kernel_vector": fr.parallelotope.v.tolist(),
            "perm": list(fr.parallelotope.perm),
            "v1": fr.parallelotope.v1,
            "det_abs": fr.parallelotope.det_abs(),
            "floor": fr.floor,
            "empirical_mse": fr.empirical.mean_sq_error,
            "empirical_ci95": list(fr.empirical.ci95),
            "constancy_deviation": fr.constancy_deviation,
            "floor_respected": fr.floor_respected,
        }
    atomic_write(args.out, json.dumps(report, indent=1) + "\n")
    write_manifest("analyze", vars(args), args.seed, [args.out])
    print(json.dumps(report))
    return 0


# Rows of the largest spectral grid. At d = 3 a row held about 0.9 KB until
# the CSV was written (531441 rows peaked at 495 MiB RSS): ~3.7 GiB here.
SPECTRAL_MAX_ROWS = 2**22


def _parse_grid(text: str, d: int) -> np.ndarray:
    """The axis of a start:stop:step grid, refused before it is built when
    the d-dimensional grid would have more than SPECTRAL_MAX_ROWS rows."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError("--grid must look like start:stop:step") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop
            and 0 < step < math.inf):
        raise ValueError("--grid requires finite start <= stop and 0 < step < inf")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    # count**d rows; the power stops at d = 64, as 2**64 is past the cap
    if count ** min(d, 64) > SPECTRAL_MAX_ROWS:
        raise ValueError(
            f"--grid {text} gives {count}**{d} rows at --d {d}; "
            f"at most {SPECTRAL_MAX_ROWS} are allowed"
        )
    return start + step * np.arange(count)


def cmd_spectral(args) -> int:
    if args.d < 1:
        raise ValueError("--d must be at least 1")
    if not math.isfinite(args.threshold):
        raise ValueError("--threshold must be finite")
    axis = _parse_grid(args.grid, args.d)
    grids = np.meshgrid(*([axis] * args.d), indexing="ij")
    Xi = np.column_stack([g.ravel() for g in grids])
    values = q1_transform_grid(Xi)
    rows = []
    for xi, val in zip(Xi, values):
        floor = (
            repr(transform_direction_floor(xi))
            if np.all(xi >= args.threshold)
            else ""
        )
        rows.append(
            [*(repr(float(c)) for c in xi), repr(float(val.real)),
             repr(float(val.imag)), repr(float(abs(val))), floor]
        )
    header = [*(f"xi{j + 1}" for j in range(args.d)), "re", "im", "abs", "floor"]
    atomic_write(args.out, csv_text(header, rows))
    write_manifest("spectral", vars(args), None, [args.out])
    print(f"wrote {len(rows)} rows")
    return 0


def cmd_sweep(args) -> int:
    if args.restarts < 1:
        raise ValueError("--restarts must be at least 1")
    try:
        widths = [int(w) for w in args.widths.split(",")]
    except ValueError as exc:
        raise ValueError("--widths must be comma-separated integers") from exc
    cells = width_sweep(
        args.depth, widths, DistributionSpec.uniform_box(args.d),
        seeds=tuple(range(args.seed, args.seed + args.restarts)),
        lr=args.lr, batch=args.batch, steps=args.steps, heldout_n=args.n,
    )
    header = ["depth", "width", "d", "seed", "final_train_mse", "test_mse",
              "ci_low", "ci_high", "status"]
    rows = [
        [c.depth, c.width, c.d, c.seed, repr(c.final_train_mse),
         repr(c.test_mse), repr(c.ci_low), repr(c.ci_high), c.status]
        for c in cells
    ]
    atomic_write(args.out, csv_text(header, rows))
    write_manifest("sweep", vars(args), args.seed, [args.out])
    print(f"wrote {len(rows)} rows")
    return 0


def cmd_separation(args) -> int:
    dist = _dist_from_args(args)
    est = estimate_violation_prob(dist, args.delta, args.n, seed=args.seed)
    header = ["d", "dist", "delta", "n", "violation_prob", "std_error",
              "ci_low", "ci_high", "seed"]
    rows = [[args.d, args.dist, repr(args.delta), args.n, repr(est.proportion),
             repr(est.std_error), repr(est.ci95[0]), repr(est.ci95[1]), args.seed]]
    atomic_write(args.out, csv_text(header, rows))
    write_manifest("separation", vars(args), args.seed, [args.out])
    print(f"violation_prob={est.proportion!r}")
    return 0


def _add_dist_flags(p: CliParser) -> None:
    p.add_argument("--dist", choices=("uniform", "gauss", "noise"), default="uniform")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--noise-scale", dest="noise_scale", type=float, default=0.1)


def build_parser() -> CliParser:
    parser = CliParser(prog="maxnet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("construct", help="build a max network and save it")
    p.add_argument("kind", choices=("depth3", "deep", "exact-tree"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("error", help="Monte Carlo squared error of a saved net")
    p.add_argument("--net", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_dist_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("analyze", help="weight-graph or kernel-floor report")
    p.add_argument("--net", required=True)
    p.add_argument("--analysis", choices=("weight-graph", "kernel-floor"), required=True)
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectral", help="transform values on a frequency grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--grid", required=True, help="start:stop:step, inclusive")
    p.add_argument("--threshold", type=float, default=8.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("sweep", help="train-and-score width sweep")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--widths", required=True, help="comma-separated widths")
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("separation", help="estimate P[x not delta-separated]")
    p.add_argument("--d", type=int, required=True)
    _add_dist_flags(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_separation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ParseError, FileNotFoundError, ArithmeticError) as exc:
        print(f"maxnet: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except Exception as exc:
        # a MemoryError, say, has an empty message: name the type as well
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"maxnet: internal error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
