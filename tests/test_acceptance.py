"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that feed the determinism check (1, 4, 5, 8, 9) are implemented as
pipelines that return a CSV body; criterion 10 reruns those pipelines from
identical seeds and compares the bodies byte for byte. Pipelines cache their
first run so the suite computes each one at most twice.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import gc
import hashlib
import math

import numpy as np
import pytest

from maxnet import (
    AffineLayer,
    DistributionSpec,
    FeedForwardNet,
    alpha_for_accuracy,
    beta,
    best_cells,
    build_weight_graph,
    dawson,
    deep_max,
    deep_shape,
    depth3_max,
    depth3_shape,
    direction_component,
    error_floor,
    evaluate_batch,
    exact_max_tree,
    find_triangle,
    magnitude_bound,
    mantel_edge_threshold,
    max_k_for_width_bound,
    mc_l2_error,
    parallelotope_floors,
    q1_transform,
    q1_transform_grid,
    rescale_to_box,
    row_max,
    sample_separated,
    stats,
    train,
    width_sweep,
)
from maxnet.cli import csv_text
from maxnet.training import TrainConfig
from spectral_oracles import dawson_quadrature_oracle, quadrature_transform_oracle
from weight_graphs import graph_of

pytestmark = pytest.mark.acceptance

SEED = 20240801
CACHE: dict[str, tuple] = {}


def cached(key, fn):
    if key not in CACHE:
        CACHE[key] = fn()
    return CACHE[key]


def report(criterion: int, ok: bool, summary: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {summary}")


# ----------------------------------------------------------------------
# criterion 1: depth-3 accuracy guarantee on the unit cube
# ----------------------------------------------------------------------

def crit1_pipeline():
    eps = 1e-4
    rows, checks = [], []
    for d in (2, 4, 8, 16, 32):
        alpha = alpha_for_accuracy(d, 1.0, eps)
        net = depth3_max(d, alpha)
        dist = DistributionSpec.uniform_box(d)
        est = mc_l2_error(net, row_max, dist, 10**6, seed=SEED + d)
        rows.append([d, repr(alpha), 10**6, repr(est.mean_sq_error),
                     repr(est.std_error), repr(est.ci95[0]), repr(est.ci95[1]),
                     SEED + d])
        checks.append((d, est))
    header = ["d", "alpha", "n", "mse", "std_error", "ci_low", "ci_high", "seed"]
    return csv_text(header, rows), checks


# sha256 of the CSV body of criterion 1. Criteria 1, 4, 8 and 9 pin their
# bodies as criterion 5 does, so a speed-up of the Monte Carlo path must
# leave every estimate's bits as they are; each body hashes the same on one
# and on two BLAS threads.
CRIT1_SHA256 = "16d7a5442497dd759582b478d83a645e3b39236ad0e31dd8170ee71aebbb785d"


def test_criterion_01_depth3_error_guarantee():
    eps = 1e-4
    body, checks = cached("crit1", crit1_pipeline)
    worst = max(est.mean_sq_error for _, est in checks)
    ok = all(est.mean_sq_error <= eps + 3 * est.std_error for _, est in checks)
    report(1, ok, f"mse <= 1e-4 (+3se) for d in 2..32; worst observed {worst:.3e}")
    assert ok
    assert hashlib.sha256(body.encode()).hexdigest() == CRIT1_SHA256


# ----------------------------------------------------------------------
# criterion 2: exactness on separated inputs, depth 3 and depth 5
# ----------------------------------------------------------------------

def test_criterion_02_exactness_on_separated_inputs():
    alpha = 1e4
    tol = 1e-9 * alpha
    worst = 0.0
    for d in range(2, 33):
        dist = DistributionSpec.uniform_box(d)
        X = sample_separated(dist, 1.0 / alpha, 10**4, seed=SEED + 100 + d)
        for k in (1, 2):
            net = depth3_max(d, alpha) if k == 1 else deep_max(d, alpha, k)
            err = np.abs(evaluate_batch(net, X) - X.max(axis=1))
            worst = max(worst, float(err.max()))
    ok = worst <= tol
    report(2, ok, f"10^4 separated points, d in 2..32, k in {{1,2}}: "
                  f"max |net - max| = {worst:.2e} <= {tol:.0e}")
    assert ok


# ----------------------------------------------------------------------
# criterion 3: width and depth formulas
# ----------------------------------------------------------------------

def test_criterion_03_width_depth_formulas():
    # depth3: width d(d+1) for every d <= 512 (plan), builder spot checks
    for d in range(2, 513):
        assert depth3_shape(d)[0] == d * (d + 1)
    for d in (2, 3, 5, 8, 16, 33, 64, 128, 256, 512):
        net = depth3_max(d, 7.0)
        s = stats(net)
        assert s.depth == 3 and s.width == d * (d + 1)
        assert [l.out_width for l in net.hidden_layers] == depth3_shape(d)
        del net
        gc.collect()
    # deep: bound and depth for all d in 58..4096 and every valid k
    checked = 0
    for d in range(58, 4097):
        for k in range(1, max_k_for_width_bound(d) + 1):
            widths = deep_shape(d, k)
            assert len(widths) == 2 * k
            assert max(widths) <= 20 * d ** (1 + float(beta(k))), (d, k)
            checked += 1
        k_top = max_k_for_width_bound(d)
        assert max(deep_shape(d, k_top)) <= 40 * d, d
    # builder agrees with the plan where dense weights are cheap
    for d, k in [(58, 2), (58, 3), (64, 2), (100, 3), (128, 2),
                 (256, 2), (256, 4), (512, 3)]:
        net = deep_max(d, 5.0, k)
        assert stats(net).depth == 2 * k + 1
        assert [l.out_width for l in net.hidden_layers] == deep_shape(d, k)
        del net
        gc.collect()
    report(3, True, f"depth3 width d(d+1) up to 512; deep bound 20 d^(1+beta) "
                    f"and depth 2k+1 over {checked} (d, k) pairs; 40d at k_max")


# ----------------------------------------------------------------------
# criterion 4: rescaling law
# ----------------------------------------------------------------------

def crit4_pipeline():
    d, alpha, n = 4, 1e3, 10**6
    base = depth3_max(d, alpha)
    base_dist = DistributionSpec.uniform_box(d)
    e0 = mc_l2_error(base, row_max, base_dist, n, seed=SEED + 400)
    rows = [[0, repr(1.0), repr(0.0), n, repr(e0.mean_sq_error),
             repr(e0.ci95[0]), repr(e0.ci95[1]), SEED + 400]]
    checks = []
    for i, (R, a) in enumerate([(2.0, 0.0), (2.0, -1.0), (4.0, 0.0), (4.0, -1.0)]):
        seed = SEED + 401 + i
        net = rescale_to_box(base, a, R)
        dist = DistributionSpec.uniform_box(d, a=a, R=R)
        est = mc_l2_error(net, row_max, dist, n, seed=seed)
        rows.append([i + 1, repr(R), repr(a), n, repr(est.mean_sq_error),
                     repr(est.ci95[0]), repr(est.ci95[1]), seed])
        checks.append((R, a, est))
    header = ["config", "R", "a", "n", "mse", "ci_low", "ci_high", "seed"]
    return csv_text(header, rows), (e0, checks)


CRIT4_SHA256 = "5355f50a0295a086d15e3ff19adaba000e03b6364651def101ad72a62b71910b"


def test_criterion_04_rescaling_law():
    body, (e0, checks) = cached("crit4", crit4_pipeline)
    ok = True
    details = []
    for R, a, est in checks:
        scaled_lo, scaled_hi = R * R * e0.ci95[0], R * R * e0.ci95[1]
        overlap = est.ci95[0] <= scaled_hi and scaled_lo <= est.ci95[1]
        ok &= overlap
        details.append(f"R={R:g},a={a:g}: {est.mean_sq_error:.3e}~{R*R*e0.mean_sq_error:.3e}")
    report(4, ok, "rescaled error matches R^2 x base within 95% CIs: " + "; ".join(details))
    assert ok
    assert hashlib.sha256(body.encode()).hexdigest() == CRIT4_SHA256


# ----------------------------------------------------------------------
# criterion 5: separation probability bound
# ----------------------------------------------------------------------

def crit5_pipeline():
    from maxnet import estimate_violation_prob

    rows, checks = [], []
    n = 10**6
    for i, d in enumerate((2, 4, 8)):
        for j, delta in enumerate((1e-2, 1e-3)):
            seed = SEED + 500 + 10 * i + j
            dist = DistributionSpec.uniform_box(d)
            est = estimate_violation_prob(dist, delta, n, seed=seed)
            bound = 2 * d * d * delta
            rows.append([d, repr(delta), n, repr(est.proportion),
                         repr(est.std_error), repr(est.ci95[0]),
                         repr(est.ci95[1]), repr(bound), seed])
            checks.append((d, delta, est, bound))
    header = ["d", "delta", "n", "violation_prob", "std_error",
              "ci_low", "ci_high", "bound", "seed"]
    return csv_text(header, rows), checks


# sha256 of the criterion-5 CSV body. It holds integer violation counts, so
# it pins the separation test's exactness on 6 x 10^6 rows.
CRIT5_SHA256 = "c738072c4afe577f50a16bb7ef8978b85e485f3ca4d1e2740d51c30254902f98"


def test_criterion_05_separation_probability_bound():
    body, checks = cached("crit5", crit5_pipeline)
    ok = all(est.proportion <= bound + 3 * est.std_error
             for _, _, est, bound in checks)
    margin = min(bound - est.proportion for _, _, est, bound in checks)
    report(5, ok, f"P[not separated] <= 2 d^2 delta + 3se on 10^6 samples; "
                  f"smallest slack {margin:.3e}")
    assert ok
    assert hashlib.sha256(body.encode()).hexdigest() == CRIT5_SHA256


# ----------------------------------------------------------------------
# criterion 6: spectral formulas
# ----------------------------------------------------------------------

def test_criterion_06_spectral_formulas():
    rng = np.random.default_rng(SEED + 600)
    # closed form vs quadrature oracle
    worst_quad = 0.0
    for d in (1, 2, 3):
        for _ in range(100):
            xi = rng.uniform(-10, 10, d)
            got = q1_transform(xi).value
            want = quadrature_transform_oracle(xi).value
            worst_quad = max(worst_quad, abs(got - want) / abs(want))
    assert worst_quad <= 1e-6
    # magnitude bound
    for d in range(1, 7):
        Xi = rng.uniform(-30, 30, (10**4, d))
        vals = np.abs(q1_transform_grid(Xi))
        assert np.all(vals <= magnitude_bound(d) * (1 + 1e-12)), d
    # direction floor on the full [8, 50]^d grids
    margins = []
    for d, step in ((2, 0.5), (3, 1.0)):
        axis = np.arange(8.0, 50.0 + 1e-9, step)
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        Xi = np.column_stack([g.ravel() for g in mesh])
        comp = np.array([
            float((v * np.conj(-(1j ** (d - 1)))).real)
            for v in q1_transform_grid(Xi)
        ])
        floors = 1.0 / Xi[:, 0] ** 2 / np.prod(Xi[:, 1:], axis=1)
        assert np.all(comp >= floors), d
        margins.append(float((comp / floors).min()))
    # Dawson vs quadrature oracle across [-30, 30]
    worst_daw = 0.0
    for x in np.linspace(-30, 30, 601):
        q = dawson_quadrature_oracle(float(x))
        diff = abs(dawson(float(x)) - q)
        worst_daw = max(worst_daw, diff / max(abs(q), 1e-300) if q else diff)
    ok = worst_daw <= 1e-12
    report(6, ok, f"transform vs quadrature rel {worst_quad:.1e}; magnitude bound "
                  f"holds; direction floor margins {margins[0]:.4f}/{margins[1]:.4f}; "
                  f"dawson vs quadrature rel {worst_daw:.1e}")
    assert ok


# ----------------------------------------------------------------------
# criterion 7: Mantel and the weight graph
# ----------------------------------------------------------------------

def test_criterion_07_mantel_and_weight_graph():
    rng = np.random.default_rng(SEED + 700)
    mismatches = 0
    guaranteed = 0
    for _ in range(10**4):
        d = int(rng.integers(3, 31))
        upper = np.triu(rng.random((d, d)) < rng.random(), 1)
        adj = upper | upper.T
        g = graph_of(adj)
        tri = find_triangle(g)
        brute = np.trace((adj.astype(np.int64) @ adj) @ adj) > 0
        if (tri is not None) != brute:
            mismatches += 1
        if g.n_edges > mantel_edge_threshold(d):
            guaranteed += 1
            assert tri is not None
    assert mismatches == 0
    # extremal balanced bipartite graph: floor(d^2/4) edges, no triangle
    for d in range(2, 31):
        adj = np.zeros((d, d), dtype=bool)
        adj[: d // 2, d // 2 :] = True
        adj |= adj.T
        g = graph_of(adj)
        assert g.n_edges == (d * d) // 4
        assert find_triangle(g) is None
    # the three-neuron example reproduces the documented removals:
    # pair {3,4} and pair {2,4} in 1-based coordinates
    g = build_weight_graph(np.array([[0, 0, 1, -1], [0, -1, 0, 1], [0, 1, 0, -1]],
                                    dtype=float))
    removed_1based = {(i + 1, j + 1) for i, j in g.removed_by}
    ok = removed_1based == {(3, 4), (2, 4)}
    report(7, ok, f"10^4 graphs agree with brute force (0 mismatches, "
                  f"{guaranteed} above the Mantel threshold); bipartite extremal "
                  f"triangle-free; example removals {sorted(removed_1based)}")
    assert ok


# ----------------------------------------------------------------------
# criterion 8: narrow-first-layer floor
# ----------------------------------------------------------------------

def _random_narrow_net(rng, d: int) -> FeedForwardNet:
    first = int(rng.integers(1, d))
    widths = [first] if rng.random() < 0.5 else [first, int(rng.integers(2, 2 * d))]
    dims = [d, *widths, 1]
    layers = [
        AffineLayer(rng.standard_normal((o, i)), rng.standard_normal(o))
        for i, o in zip(dims[:-1], dims[1:])
    ]
    last = layers[-1]
    layers[-1] = AffineLayer(last.weights, last.biases, apply_activation=False)
    return FeedForwardNet(input_dim=d, layers=tuple(layers))


def _best_trained_narrow(d: int, seed: int) -> FeedForwardNet:
    dist = DistributionSpec.uniform_box(d)
    best_net, best_loss = None, np.inf
    for s in (seed, seed + 1):
        cfg = TrainConfig(d=d, arch=(d - 1,), dist=dist, lr=0.05, batch=64,
                          steps=3000, seed=s)
        result = train(cfg)
        tail = float(np.mean([l for _, l in result.history[-100:]]))
        if tail < best_loss:
            best_net, best_loss = result.net, tail
    return best_net


def crit8_pipeline():
    rows, checks = [], []
    n = 10**6
    for d in range(3, 11):
        rng = np.random.default_rng([SEED + 800, d])
        nets = [("random", i, _random_narrow_net(rng, d)) for i in range(50)]
        nets.append(("trained", 50, _best_trained_narrow(d, SEED + 810 + d)))
        reports = parallelotope_floors([net for _, _, net in nets], n=n,
                                       seed=SEED + 820 + d)
        for (kind, idx, _), fr in zip(nets, reports):
            rows.append([d, idx, kind, repr(fr.empirical.mean_sq_error),
                         repr(fr.empirical.std_error), repr(fr.floor),
                         repr(fr.constancy_deviation), fr.floor_respected])
            checks.append((d, kind, fr))
    header = ["d", "net_id", "kind", "mse", "std_error", "floor",
              "constancy_deviation", "floor_respected"]
    return csv_text(header, rows), checks


CRIT8_SHA256 = "39e48f5212b82a87daacc93935fa71436953488de7250522251a2c023c6d36a8"


def test_criterion_08_narrow_first_layer_floor():
    body, checks = cached("crit8", crit8_pipeline)
    ok = all(fr.floor_respected and fr.constancy_deviation <= 1e-9
             for _, _, fr in checks)
    trained = [fr.empirical.mean_sq_error / fr.floor
               for d, kind, fr in checks if kind == "trained"]
    report(8, ok, f"{len(checks)} nets across d in 3..10: kernel constancy <= 1e-9 "
                  f"and mse >= 1/(120 d^4.5) - 3se in 100% of cases; trained nets "
                  f"sit {min(trained):.1f}x..{max(trained):.1f}x above the floor")
    assert ok
    assert hashlib.sha256(body.encode()).hexdigest() == CRIT8_SHA256


# ----------------------------------------------------------------------
# criterion 9: qualitative depth 2 vs depth 3 separation at d = 8
# ----------------------------------------------------------------------

def crit9_pipeline():
    d = 8
    dist = DistributionSpec.uniform_box(d)
    cells = width_sweep(
        2, [2, 4, 8, 16, 32, 64], dist,
        seeds=(0, 1, 2), lr=0.05, batch=64, steps=4000,
        heldout_n=2 * 10**5, heldout_seed=SEED + 901,
    )
    best = best_cells(cells)
    alpha = alpha_for_accuracy(d, 1.0, 1e-5)
    constructed = depth3_max(d, alpha)
    est_c = mc_l2_error(constructed, row_max, dist, 10**6, seed=SEED + 902)
    rows = [
        [c.depth, c.width, c.d, c.seed, repr(c.final_train_mse), repr(c.test_mse),
         repr(c.ci_low), repr(c.ci_high), c.status]
        for c in cells
    ]
    rows.append([3, stats(constructed).width, d, SEED + 902, "",
                 repr(est_c.mean_sq_error), repr(est_c.ci95[0]),
                 repr(est_c.ci95[1]), "constructed"])
    header = ["depth", "width", "d", "seed", "final_train_mse", "test_mse",
              "ci_low", "ci_high", "status"]
    return csv_text(header, rows), (best, est_c)


CRIT9_SHA256 = "6ae479ffa33651725c40a8afc1547010274e30e1dd671091b00f1332ac43b9cb"


def test_criterion_09_qualitative_separation_sweep():
    body, (best, est_c) = cached("crit9", crit9_pipeline)
    se_c = est_c.std_error
    ok = True
    ratios = []
    for width, cell in sorted(best.items()):
        se_w = (cell.ci_high - cell.test_mse) / 1.96
        combined = math.sqrt(se_c * se_c + se_w * se_w)
        ok &= cell.test_mse - est_c.mean_sq_error >= 3 * combined
        ratios.append(f"w{width}:{cell.test_mse:.1e}")
    report(9, ok, f"constructed depth-3 (width 72) error {est_c.mean_sq_error:.2e} "
                  f"beats every trained depth-2 cell by >= 3 combined se: "
                  + " ".join(ratios))
    assert ok
    assert len(best) == 6
    assert hashlib.sha256(body.encode()).hexdigest() == CRIT9_SHA256


# ----------------------------------------------------------------------
# criterion 10: determinism of the CSV-emitting criteria
# ----------------------------------------------------------------------

def test_criterion_10_determinism_byte_identical_reruns():
    pipelines = {
        "crit1": crit1_pipeline,
        "crit4": crit4_pipeline,
        "crit5": crit5_pipeline,
        "crit8": crit8_pipeline,
        "crit9": crit9_pipeline,
    }
    stale = []
    for key, fn in pipelines.items():
        first_csv, _ = cached(key, fn)
        fresh_csv, _ = fn()
        if first_csv.encode() != fresh_csv.encode():
            stale.append(key)
    ok = not stale
    report(10, ok, "criteria 1, 4, 5, 8, 9 rerun from identical seeds produce "
                   "byte-identical CSV bodies" if ok else f"mismatch in {stale}")
    assert ok
