"""Fast tests of the benchmark's own checks: each must reject a wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import maxnet
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _with_layer(net, idx, weights):
    layers = list(net.layers)
    old = layers[idx]
    layers[idx] = maxnet.AffineLayer(weights, old.biases, old.apply_activation)
    return maxnet.FeedForwardNet(net.input_dim, tuple(layers))


def test_depth3_check_rejects_one_perturbed_weight():
    d, alpha = 6, 1e3
    net = maxnet.depth3_max(d, alpha)
    X = np.random.default_rng(0).random((4000, d))
    closed = checks.depth3_closed_form(X, alpha)
    assert checks.depth3_matches(maxnet.evaluate_batch(net, X), closed, X, alpha)
    w = net.layers[0].weights.copy()
    w[0, 0] *= 1.01  # relu(x_0), which carries the output whenever x_0 is the max
    bad = _with_layer(net, 0, w)
    assert not checks.depth3_matches(maxnet.evaluate_batch(bad, X), closed, X, alpha)


def test_estimate_agreement_and_interval():
    assert checks.estimates_agree(1.0, 0.1, 1.3, 0.1)
    assert not checks.estimates_agree(1.0, 0.1, 1.6, 0.1)
    assert checks.in_interval(0.5, 0.4, 0.6) and not checks.in_interval(0.7, 0.4, 0.6)


def test_separation_checks_reject_a_doubled_proportion():
    for d, delta in ((2, 0.01), (8, 1e-3)):
        est = maxnet.estimate_violation_prob(maxnet.DistributionSpec.uniform_box(d), delta, 2**17, seed=3)
        p, se = est.proportion, est.std_error
        if d == 2:
            assert checks.two_coordinate_exact(p, se, delta)
            assert not checks.two_coordinate_exact(2 * p, se, delta)
        assert checks.union_bound_ok(p, se, d, delta)
        if d == 8:
            assert not checks.union_bound_ok(2 * p, se, d, delta)


def test_pairwise_loop_matches_is_delta_separated():
    rows = [[0.5, 0.5004], [0.5, 0.6], [0.0, 0.0, 1.0], [1.0, -1.0], [0.3, 0.9, 0.30002]]
    rows += list(np.random.default_rng(1).random((50, 5)))
    for x in rows:
        assert checks.pairwise_separated(x, 1e-3) == maxnet.is_delta_separated(x, 1e-3)
    assert not checks.pairwise_separated([0.5, 0.5004], 1e-3)


def test_kernel_checks_reject_a_net_that_varies_along_its_kernel():
    rng = np.random.default_rng(2)
    d = 5
    net = maxnet.FeedForwardNet(d, (
        maxnet.AffineLayer(rng.standard_normal((3, d)), rng.standard_normal(3)),
        maxnet.AffineLayer(rng.standard_normal((1, 3)), np.zeros(1), apply_activation=False),
    ))
    fr = maxnet.parallelotope_floor(net, n=4096, seed=0)
    v = fr.parallelotope.v
    assert checks.kernel_residual_ok(net.layers[0].weights, v)
    assert checks.constancy_ok(fr.constancy_deviation)
    assert checks.floor_respected(fr.empirical.mean_sq_error, fr.empirical.std_error, d)
    # tilt the first layer towards v: the net now varies along v
    tilted = net.layers[0].weights + 0.1 * np.outer(np.ones(3), v)
    assert not checks.kernel_residual_ok(tilted, v)
    assert not checks.constancy_ok(1e-6)
    assert not checks.floor_respected(0.1 * checks.error_floor(d), 1e-12, d)


def _drop_first_block(net, block: int):
    """The deep net without its first depth-3 batch block."""
    w1, w2, w3 = (layer.weights for layer in net.layers[:3])
    keep1 = np.arange(block * (block + 1), w1.shape[0])
    keep2 = np.arange(2 * block, w2.shape[0])
    layers = [
        maxnet.AffineLayer(w1[keep1], net.layers[0].biases[keep1]),
        maxnet.AffineLayer(w2[np.ix_(keep2, keep1)], net.layers[1].biases[keep2]),
        maxnet.AffineLayer(w3[:, keep2], net.layers[2].biases),
        *net.layers[3:],
    ]
    return maxnet.FeedForwardNet(net.input_dim, tuple(layers))


def test_deep_checks_reject_a_missing_batch_block():
    d, k, alpha = 64, 2, 1e6
    net = maxnet.deep_max(d, alpha, k)
    shape = maxnet.deep_shape(d, k)
    rng = np.random.default_rng(4)
    X = checks.separated_rows(rng, 256, d, 1.0 / alpha)
    assert checks.rows_separated(X, 1.0 / alpha)
    widths = [layer.out_width for layer in net.hidden_layers]
    assert checks.deep_structure_ok(widths, shape, d, k)
    assert checks.exact_on_separated(maxnet.evaluate_batch(net, X), X, alpha)
    bad = _drop_first_block(net, maxnet.batch_split(d, k)[0])
    widths = [layer.out_width for layer in bad.hidden_layers]
    assert not checks.deep_structure_ok(widths, shape, d, k)
    assert not checks.exact_on_separated(maxnet.evaluate_batch(bad, X), X, alpha)


def test_l1_bound_and_bit_identity():
    X = np.array([[0.2, 0.3], [0.5, 0.1]])
    assert checks.l1_bounded(np.array([0.3, 0.5]), X)
    assert not checks.l1_bounded(np.array([0.3, 0.7]), X)
    a = np.array([1.0, 2.0])
    assert checks.bit_identical(a, a.copy())
    assert not checks.bit_identical(a, a + np.array([0.0, 2e-16 * 2]))


def test_separated_rows_check_rejects_a_close_pair():
    X = checks.separated_rows(np.random.default_rng(5), 32, 16, 1e-3)
    assert checks.rows_separated(X, 1e-3)
    X[0, 1] = X[0, 0] * (1 + 5e-4)
    assert not checks.rows_separated(X, 1e-3)


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
               ["leaf", 2.0, 3.0, 1]]
    assert t.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_install_rebinds_every_name():
    code = (
        "import maxnet, spans\n"
        "from maxnet import analysis, cli, network, sampling, training\n"
        "originals = (network.evaluate_batch, sampling.row_max, sampling.mc_l2_error)\n"
        "spans.install(spans.Tracer())\n"
        "for mod in (maxnet, analysis, cli, network, sampling, training):\n"
        "    for value in vars(mod).values():\n"
        "        assert all(value is not f for f in originals), (mod, value)\n"
        "assert analysis.evaluate_batch is sampling.evaluate_batch is maxnet.evaluate_batch\n"
        "assert cli.load is network.load and cli.serialize is network.serialize\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    figures = {"setup_s": 1.0, "cpu_s": 2.0, "samples_per_cpu_s": 3.0, "peak_rss_mb": 4.0}
    layers = {name: 1.0 for name in run.PER_LAYER if name != "trace.overhead_s"}
    rounds = [({}, figures), ({"layers": layers}, figures)]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = run.summarize(rounds, trace)
        assert {n: m["unit"] for n, m in printed.items()} == {m["name"]: m["unit"] for m in spec[key]}
    # a traced round reports every per-layer metric but the overhead, which run.py adds
    traced = {"import.maxnet_s", *spans.layer_metrics(spans.Tracer()), "trace.overhead_s"}
    assert traced == set(run.PER_LAYER)
