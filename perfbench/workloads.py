"""The four workloads. Each runs one round: set-up, then the measured calls
into maxnet, then the checks of their outputs.

A round's inputs depend only on the seed, so the rounds of one run repeat
the same work. Calls go through ``maxnet.<name>`` at call time, so that a
traced round sees the wrapped functions.
"""

from __future__ import annotations

import csv
import os
import time

import numpy as np

import checks
import maxnet
from maxnet import cli
from maxnet.training import TrainConfig


class OperationFailed(RuntimeError):
    """A checked library or CLI call raised or exited non-zero."""


class Round:
    """Operation counts, check outcomes and the end of set-up of one round."""

    def __init__(self, out_dir: str, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples = 0
        self.setup_cpu: float | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def op(self, fn, *args, **kwargs):
        """One checked call into the program."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc

    def cli(self, argv: list[str], out: str) -> None:
        """``maxnet <argv>`` in-process; counts the bytes of ``out`` and its manifest."""
        self.attempted += 1
        if self.tracer is None:
            code = cli.main(argv)
        else:
            with self.tracer.span("cli." + argv[0]):
                code = cli.main(argv)
            self.tracer.counts["cli.bytes_written"] += (
                os.path.getsize(out) + os.path.getsize(out + ".manifest.json")
            )
        if code != 0:
            self.failed += 1
            raise OperationFailed(f"maxnet {' '.join(argv)} exited {code}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def inputs_ready(self) -> None:
        """Marks the first sampled input: the end of set-up."""
        if self.setup_cpu is None:
            self.setup_cpu = time.process_time()


def _last_csv_row(path: str) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))[-1]


def _check_error_row(r: Round, row: dict[str, str], d: int, net, what: str) -> tuple[float, float]:
    """Checks one ``maxnet error`` CSV row against the net it scored; returns
    (mse, its standard error)."""
    mse, lo, hi = float(row["mse"]), float(row["ci_low"]), float(row["ci_high"])
    s = maxnet.stats(net)
    r.check(checks.in_interval(mse, lo, hi), f"{what}: mse outside its CI")
    r.check(
        int(row["d"]) == d and int(row["depth"]) == s.depth and int(row["width"]) == s.width,
        f"{what}: CSV row does not describe the net",
    )
    return mse, (hi - mse) / checks.Z95


# ----------------------------------------------------------------------
# mc_depth3: the dense evaluate path through the CLI
# ----------------------------------------------------------------------

# (d, alpha, rows scored by `maxnet error`, rows drawn by the benchmark)
MC_DEPTH3 = ((8, 1e3, 1_000_000, 200_000), (32, 1e3, 50_000, 50_000))
EVAL_CHUNK = 8192


def mc_depth3(r: Round, seed: int) -> None:
    nets = {}
    for d, alpha, _, _ in MC_DEPTH3:
        path = r.path(f"depth3_{d}.json")
        r.cli(["construct", "depth3", "--d", str(d), "--alpha", repr(alpha), "--out", path], path)
        nets[d] = r.op(maxnet.load, path)
    rng = np.random.default_rng([seed, 1])
    draws = {d: rng.random((n_own, d)) for d, _, _, n_own in MC_DEPTH3}
    r.inputs_ready()
    for d, alpha, n_cli, n_own in MC_DEPTH3:
        out = r.path(f"error_{d}.csv")
        r.cli(["error", "--net", r.path(f"depth3_{d}.json"), "--d", str(d), "--n", str(n_cli),
               "--seed", str(seed * 100 + d), "--out", out], out)
        mse, se = _check_error_row(r, _last_csv_row(out), d, nets[d], f"depth3 d={d}")
        X = draws[d]
        got = np.concatenate([
            r.op(maxnet.evaluate_batch, nets[d], X[s : s + EVAL_CHUNK])
            for s in range(0, n_own, EVAL_CHUNK)
        ])
        r.samples += n_cli + n_own
        closed = checks.depth3_closed_form(X, alpha)
        r.check(checks.depth3_matches(got, closed, X, alpha),
                f"depth3 d={d}: loaded net differs from the closed form")
        own, own_se = checks.mean_sq(closed - X.max(axis=1))
        r.check(own > 0.0 and mse > 0.0, f"depth3 d={d}: zero error at alpha={alpha}")
        r.check(checks.estimates_agree(own, own_se, mse, se),
                f"depth3 d={d}: CLI mse {mse} vs closed form {own} +- {own_se}")


# ----------------------------------------------------------------------
# deep_scale: construction, sparse-in-dense multiplies, JSON round trip
# ----------------------------------------------------------------------

DEEP_ALPHA = 1e6
# (d, k, separated rows, uniform rows)
DEEP = ((1024, 2, 128, 128), (2048, 3, 64, 64))
# (d, k, rows scored by `maxnet error`, rows compared after the round trip)
ROUND_TRIP = (256, 2, 2000, 256)


def deep_scale(r: Round, seed: int) -> None:
    nets = [r.op(maxnet.deep_max, d, DEEP_ALPHA, k) for d, k, _, _ in DEEP]
    for net, (d, k, _, _) in zip(nets, DEEP):
        widths = [layer.out_width for layer in net.hidden_layers]
        r.check(checks.deep_structure_ok(widths, maxnet.deep_shape(d, k), d, k),
                f"deep_max({d}, {k}): widths {widths}")
    rng = np.random.default_rng([seed, 2])
    inputs = [
        (checks.separated_rows(rng, n_sep, d, 1.0 / DEEP_ALPHA), rng.random((n_unif, d)))
        for d, _, n_sep, n_unif in DEEP
    ]
    r.inputs_ready()
    for net, (sep, unif), (d, k, _, _) in zip(nets, inputs, DEEP):
        r.check(checks.rows_separated(sep, 1.0 / DEEP_ALPHA), f"d={d}: inputs not separated")
        out = r.op(maxnet.evaluate_batch, net, sep)
        r.check(checks.exact_on_separated(out, sep, DEEP_ALPHA),
                f"deep_max({d}, {k}) misses max on separated inputs")
        out = r.op(maxnet.evaluate_batch, net, unif)
        r.check(checks.l1_bounded(out, unif), f"deep_max({d}, {k}) exceeds ||x||_1")
        r.samples += len(sep) + len(unif)
    del nets, out

    d, k, n_cli, n_rt = ROUND_TRIP
    path, errors = r.path(f"deep_{d}.json"), r.path(f"error_{d}.csv")
    r.cli(["construct", "deep", "--d", str(d), "--k", str(k), "--alpha", repr(DEEP_ALPHA),
           "--out", path], path)
    r.cli(["error", "--net", path, "--d", str(d), "--n", str(n_cli), "--seed", str(seed),
           "--out", errors], errors)
    loaded = r.op(maxnet.load, path)
    _check_error_row(r, _last_csv_row(errors), d, loaded, f"deep_max({d}, {k})")
    in_memory = r.op(maxnet.deep_max, d, DEEP_ALPHA, k)
    X = rng.random((n_rt, d))
    r.check(checks.bit_identical(r.op(maxnet.evaluate_batch, loaded, X),
                                 r.op(maxnet.evaluate_batch, in_memory, X)),
            f"deep_max({d}, {k}) changes through the CLI round trip")
    r.samples += n_cli + n_rt


# ----------------------------------------------------------------------
# narrow_floor: many tiny nets, the shape of acceptance criterion 8
# ----------------------------------------------------------------------

NARROW_DIMS = range(3, 11)
NARROW_RANDOM = 24  # random nets per d, plus one trained net
NARROW_STEPS = 1500
NARROW_N = 65536
CONSTANCY_POINTS = 8 * 21  # lines x grid of analysis.kernel_constancy_deviation


def random_narrow_net(rng: np.random.Generator, d: int, i: int):
    """Gaussian net whose first hidden layer has 1..d-1 neurons; odd i add a
    second hidden layer of 2..2d-1 neurons. The shape depends on i only, so
    every seed does the same work."""
    widths = [1 + i % (d - 1)]
    if i % 2:
        widths.append(2 + (i // 2) % (2 * d - 2))
    dims = [d, *widths, 1]
    layers = [
        maxnet.AffineLayer(rng.standard_normal((fan_out, fan_in)), rng.standard_normal(fan_out))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    ]
    last = layers[-1]
    layers[-1] = maxnet.AffineLayer(last.weights, last.biases, apply_activation=False)
    return maxnet.FeedForwardNet(input_dim=d, layers=tuple(layers))


def narrow_floor(r: Round, seed: int) -> None:
    nets = []
    for d in NARROW_DIMS:
        rng = np.random.default_rng([seed, 3, d])
        nets += [(d, random_narrow_net(rng, d, i)) for i in range(NARROW_RANDOM)]
        cfg = TrainConfig(d=d, arch=(d - 1,), dist=maxnet.DistributionSpec.uniform_box(d),
                          lr=0.05, batch=64, steps=NARROW_STEPS, seed=seed * 100 + d)
        nets.append((d, r.op(maxnet.train, cfg).net))
    r.inputs_ready()
    for idx, (d, net) in enumerate(nets):
        fr = r.op(maxnet.parallelotope_floor, net, n=NARROW_N, seed=seed * 1000 + idx)
        est = fr.empirical
        r.check(checks.floor_respected(est.mean_sq_error, est.std_error, d),
                f"net {idx} (d={d}): mse {est.mean_sq_error} under the floor")
        r.check(checks.kernel_residual_ok(net.layers[0].weights, fr.parallelotope.v),
                f"net {idx} (d={d}): first layer does not annihilate v")
        r.check(checks.constancy_ok(fr.constancy_deviation),
                f"net {idx} (d={d}): varies by {fr.constancy_deviation} along v")
        r.samples += NARROW_N + CONSTANCY_POINTS


# ----------------------------------------------------------------------
# separation: the ratio-separation test, no network evaluated
# ----------------------------------------------------------------------

# (d, rows per estimate)
SEPARATION = ((2, 2**21), (8, 2**19), (32, 65536))
DELTAS = (1e-3, 1e-2)
LOOP_ROWS = 64  # rows per (d, delta) compared with the plain pairwise loop


def separation(r: Round, seed: int) -> None:
    rng = np.random.default_rng([seed, 4])
    sub = {d: rng.random((LOOP_ROWS, d)) for d, _ in SEPARATION}
    r.inputs_ready()
    for d, n in SEPARATION:
        dist = maxnet.DistributionSpec.uniform_box(d)
        for j, delta in enumerate(DELTAS):
            est = r.op(maxnet.estimate_violation_prob, dist, delta, n, seed=seed * 100 + 10 * j + d)
            p, se = est.proportion, est.std_error
            if d == 2:
                r.check(checks.two_coordinate_exact(p, se, delta),
                        f"d=2 delta={delta}: {p} +- {se} is not delta")
            r.check(checks.union_bound_ok(p, se, d, delta),
                    f"d={d} delta={delta}: {p} above C(d,2) delta")
            for x in sub[d]:
                r.check(r.op(maxnet.is_delta_separated, x, delta) == checks.pairwise_separated(x, delta),
                        f"d={d} delta={delta}: is_delta_separated differs from the loop on {x}")
            r.samples += n + LOOP_ROWS


WORKLOADS = {
    "mc_depth3": mc_depth3,
    "deep_scale": deep_scale,
    "narrow_floor": narrow_floor,
    "separation": separation,
}
