"""Distributions, separation machinery, and Monte Carlo estimator tests."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnet import (
    AffineLayer,
    DistributionSpec,
    FeedForwardNet,
    alpha_for_accuracy,
    depth3_max,
    estimate_violation_prob,
    evaluate_batch,
    exact_max_tree,
    is_delta_separated,
    mc_l2_error,
    mc_l2_errors,
    row_max,
    sample_separated,
    wilson_interval,
)
from maxnet.sampling import (
    _ROW_TILE_VALUES,
    _TILE_VALUES,
    VIOLATION_CHUNK,
    _violation_mask,
)

MiB = 2**20


def pairwise_violation_mask(X: np.ndarray, delta: float) -> np.ndarray:
    """Reference: every ordered pair (i, j), i != j, as (n, d, d) arrays."""
    diff = np.abs(X[:, :, None] - X[:, None, :])  # |x_i - x_j| at [n, i, j]
    tol = delta * np.abs(X)[:, None, :]
    close = (diff <= tol) & (np.abs(X) > 0)[:, None, :]
    idx = np.arange(X.shape[1])
    close[:, idx, idx] = False
    return close.any(axis=(1, 2))


def traced_peak(fn, *args):
    """Result of fn(*args) and the peak of memory allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPECIAL_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300,
)
DELTAS = st.one_of(
    st.floats(1e-6, 1e3),
    st.sampled_from([0.5, 1 - 2**-52, 1 - 2**-53, 1.0, 1 + 2**-52, 2.0]),
)


@st.composite
def adversarial_batches(draw):
    """(X, delta): rows built from a small pool of signed zeros, subnormals,
    huge values and values a rounding step either side of x (1 +- delta)."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    delta = draw(DELTAS)
    base = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300)),
        min_size=1, max_size=4,
    ))
    pool = list(base)
    for v in base:
        for w in (v * (1 + delta), v * (1 - delta)):
            if np.isfinite(w):
                pool += [w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * d, max_size=n * d))
    X = np.array([pool[k] for k in picks], dtype=np.float64).reshape(n, d)
    return X, delta


def constant_net(d: int, c: float) -> FeedForwardNet:
    """relu(0 x + 1) scaled by c: predicts the constant c."""
    return FeedForwardNet(
        input_dim=d,
        layers=(
            AffineLayer(np.zeros((1, d)), np.array([1.0])),
            AffineLayer(np.array([[c]]), np.array([0.0]), apply_activation=False),
        ),
    )


def best_constant_error(c: float, d: int) -> float:
    """Closed-form uniform-cube squared error of a constant predictor:
    the max of d uniforms has density d t^(d-1), so the error is
    c^2 - 2 c d/(d+1) + d/(d+2)."""
    return c * c - 2 * c * d / (d + 1) + d / (d + 2)


ROW_MAX_VALUES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300,
                  np.inf, -np.inf, np.nan, -np.nan)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestRowMax:
    """row_max folds narrow rows by columns and hands wide rows to np.max;
    on both sides it must return np.max's bits."""

    @settings(max_examples=300)
    @given(
        d=st.integers(1, 64),
        values=st.lists(
            st.one_of(st.sampled_from(ROW_MAX_VALUES), st.floats(-1e6, 1e6)),
            max_size=40 * 64,
        ),
    )
    @example(d=1, values=[])
    @example(d=64, values=[])
    @example(d=1, values=[-0.0])
    @example(d=9, values=[0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0])
    @example(d=3, values=[-np.nan, np.nan, 2.0])
    @example(d=13, values=[np.nan] + [-0.0] * 12)
    def test_matches_np_max_bit_for_bit(self, d, values):
        n = len(values) // d
        X = np.array(values[: n * d], dtype=np.float64).reshape(n, d)
        before = X.copy()
        got, want = row_max(X), np.max(X, axis=1)
        assert got.shape == want.shape == (n,)
        assert got.dtype == want.dtype
        assert bits(got) == bits(want)
        assert bits(X) == bits(before)

    def test_matches_np_max_on_long_batches(self):
        # 64-row training minibatches, and enough rows for numpy's vector
        # loops and their remainders
        rng = np.random.default_rng(3)
        pool = np.array(ROW_MAX_VALUES + (0.5, -0.5, 2.0))
        for n in (64, 4099):
            for d in range(1, 65):
                X = pool[rng.integers(0, len(pool), size=(n, d))]
                assert bits(row_max(X)) == bits(np.max(X, axis=1)), (n, d)
                X = rng.standard_normal((n, d))
                assert bits(row_max(X)) == bits(np.max(X, axis=1)), (n, d)

    @pytest.mark.parametrize("d", [1, 2, 12, 13, 32, 33])
    def test_tiles_match_np_max(self, d):
        # batches of one tile -1, one tile and one tile +1 rows, with zero
        # and NaN maxima of both signs in the first and last row of every
        # tile, where the fold and np.max differ in sign or payload
        rows = _ROW_TILE_VALUES // d
        rng = np.random.default_rng(d)
        for n in (rows - 1, rows, rows + 1, 3 * rows + 1):
            X = rng.standard_normal((n, d))
            for start in range(0, n, rows):
                first, last = start, min(start + rows, n) - 1
                for r, pair in ((first, (-0.0, 0.0)), (last, (-np.nan, np.nan))):
                    X[r] = -rng.random(d) - 1
                    X[r, [r % d, (r + 1) % d]] = pair
            X[1] = -np.abs(X[1])
            X[1, 0] = 0.0
            assert bits(row_max(X)) == bits(np.max(X, axis=1)), (d, n)

    @pytest.mark.parametrize("d", [3, 12, 32])
    def test_strided_batches_are_read_not_written(self, d):
        rows = _ROW_TILE_VALUES // d
        rng = np.random.default_rng(50 + d)
        base = rng.standard_normal((2 * rows + 3, 2 * d))
        base[::7, ::2] = -np.abs(base[::7, ::2])
        base[::7, 2] = -0.0
        base[5, 4] = np.nan
        for X in (np.asfortranarray(base[:, :d]), base[:, ::2], base[::2, :d]):
            before = X.copy()
            assert bits(row_max(X)) == bits(np.max(X, axis=1))
            assert bits(X) == bits(before)

    def test_empty_and_zero_width(self):
        assert row_max(np.empty((0, 5))).shape == (0,)
        for shape in [(3, 0), (0, 0)]:
            with pytest.raises(ValueError):
                row_max(np.empty(shape))


class TestSeparation:
    def test_examples(self):
        assert is_delta_separated([1.0, 0.5], 0.1)
        assert not is_delta_separated([1.0, 1.05], 0.1)
        # zero denominator imposes nothing; ratio 0/5 is far from 1
        assert is_delta_separated([0.0, 5.0], 0.5)

    def test_zero_width(self):
        assert is_delta_separated([], 0.1)
        np.testing.assert_array_equal(_violation_mask(np.empty((3, 0)), 0.1), [False] * 3)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            is_delta_separated([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("delta", [0.0, -0.5, float("nan"), float("-inf")])
    def test_every_function_rejects_bad_delta(self, delta):
        dist = DistributionSpec.uniform_box(2)
        with pytest.raises(ValueError, match="delta"):
            is_delta_separated([1.0, 1.0], delta)
        with pytest.raises(ValueError, match="delta"):
            estimate_violation_prob(dist, delta, 100, seed=1)
        with pytest.raises(ValueError, match="delta"):
            sample_separated(dist, delta, 100, seed=1)

    @given(
        xs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=5),
        delta=st.floats(1e-3, 0.5),
    )
    def test_matches_naive_double_loop(self, xs, delta):
        naive = True
        for j, xj in enumerate(xs):
            if xj == 0:
                continue
            for i, xi in enumerate(xs):
                if i != j and 1 - delta <= xi / xj <= 1 + delta:
                    naive = False
        assert is_delta_separated(xs, delta) == naive

    @settings(max_examples=400)
    @given(batch=adversarial_batches())
    def test_sorted_neighbours_match_pairwise_mask(self, batch):
        X, delta = batch
        np.testing.assert_array_equal(
            _violation_mask(X, delta), pairwise_violation_mask(X, delta)
        )

    def test_signed_zeros_and_subnormals(self):
        X = np.array([
            [0.0, -0.0],             # two zeros impose nothing
            [0.0, 5e-324],           # ratio 0 / 5e-324 = 0: far from 1
            [-5e-324, 5e-324],       # ratio -1
            [5e-324, 5e-324],        # equal nonzeros always violate
            [-1e-310, -1e-310],
        ])
        for delta, expected in [
            (0.5, [False, False, False, True, True]),
            # delta >= 1: a zero next to a nonzero violates
            (1.0, [False, True, False, True, True]),
        ]:
            np.testing.assert_array_equal(_violation_mask(X, delta), expected)
            np.testing.assert_array_equal(pairwise_violation_mask(X, delta), expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 33])
    def test_tiles_match_pairwise_mask(self, d):
        # Batches of one tile -1, one tile, one tile +1 and two tiles +1
        # rows. The rows are separated, and every other row starts within
        # delta of where the row before it ends, so a pair taken across two
        # rows would flag them. The first and last rows of every tile get
        # special values in up to two coordinates.
        delta, rows = 1e-2, max(1, _TILE_VALUES // d)
        rng = np.random.default_rng(d)
        geo = (1 + 4 * delta) ** np.arange(d)
        pool = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0]
        for w in (1 + delta, 1 - delta):
            pool += [w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)]
        hits = 0
        for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
            X = np.where(np.arange(n)[:, None] % 2, geo[-1] * (1 + delta / 2) * geo, geo)
            X = rng.permuted(X, axis=1)
            edges = sorted({*range(0, n, rows), *range(rows - 1, n, rows), n - 1})
            for i in edges:
                cols = rng.choice(d, size=min(d, 2), replace=False)
                X[i, cols] = rng.choice(pool, size=len(cols))
            with np.errstate(invalid="ignore"):  # inf - inf
                expected = pairwise_violation_mask(X, delta)
                for Y in (X, np.asfortranarray(X), np.pad(X, ((0, 0), (0, 3)))[:, :d]):
                    before = Y.copy()
                    np.testing.assert_array_equal(_violation_mask(Y, delta), expected)
                    assert bits(Y) == bits(before)
            assert not np.delete(expected, edges).any()
            hits += expected.sum()
        assert hits or d == 1

    def test_violation_prob_memory_is_one_tile(self):
        # A tile of 32768 values and the test's buffers take about 0.8 MiB.
        # A whole 65536-row shard took 16 MiB at d = 32 and 1 GiB at d = 2048.
        estimate_violation_prob(DistributionSpec.uniform_box(2), 1e-2, 1)  # loads numpy.random
        for d, ns in [(32, (1, 1031, 2 * 65536 + 3)), (2048, (1, 1031))]:
            for n in ns:
                est, peak = traced_peak(
                    estimate_violation_prob, DistributionSpec.uniform_box(d), 1e-2, n
                )
                assert est.n_samples == n
                assert peak < 2 * MiB, (d, n)

    def test_mask_memory_is_linear_in_d(self):
        # the pairwise form needs 4096 * 128 * 128 * 8 B = 537 MB per array
        X = np.random.default_rng(0).random((4096, 128))
        mask, peak = traced_peak(_violation_mask, X, 1e-3)
        np.testing.assert_array_equal(mask[:64], pairwise_violation_mask(X[:64], 1e-3))
        assert peak < 32 * MiB

    def test_violation_prob_at_d96_fits_in_memory(self):
        dist = DistributionSpec.uniform_box(96)
        est, peak = traced_peak(estimate_violation_prob, dist, 1e-3, 65536)
        assert est.n_samples == 65536
        assert peak < 512 * MiB

    def test_sample_separated_at_d1024_fits_in_memory(self):
        # the result takes 2 MiB; a round of 1024 drawn rows would take 8 MiB
        X, peak = traced_peak(sample_separated, DistributionSpec.uniform_box(1024), 1e-9, 256)
        assert peak < X.nbytes + 2 * MiB
        assert X.shape == (256, 1024)
        assert all(is_delta_separated(x, 1e-9) for x in X)


class TestDistributions:
    def test_deterministic_given_seed(self):
        spec = DistributionSpec.uniform_box(3)
        a = spec.sample(100, np.random.default_rng(11))
        b = spec.sample(100, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["uniform_box", "gaussian_std", "uniform_noise", "gaussian_noise"])
    def test_sample_matches_the_plain_expressions(self, kind):
        n, d, a, R, s = 1001, 5, -0.3, 2.7, 0.15
        spec = {
            "uniform_box": DistributionSpec.uniform_box(d, a=a, R=R),
            "gaussian_std": DistributionSpec.gaussian_std(d),
            "uniform_noise": DistributionSpec.iid_plus_noise(d, "uniform", s),
            "gaussian_noise": DistributionSpec.iid_plus_noise(d, "gaussian", s),
        }[kind]
        rng = np.random.default_rng(21)
        if kind == "uniform_box":
            want = a + R * rng.random((n, d))
        elif kind == "gaussian_std":
            want = rng.standard_normal((n, d))
        else:
            base = rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0
            if kind == "uniform_noise":
                want = base + s * (rng.random((n, d)) - 0.5)
            else:
                want = base + s * rng.standard_normal((n, d))
        rng = np.random.default_rng(21)
        got = spec.sample(n, rng)
        assert got.dtype == np.float64 and got.shape == (n, d)
        assert got.tobytes() == want.tobytes()
        again = spec.sample(n, rng)
        assert got.flags.writeable and got.flags.owndata
        assert not np.shares_memory(got, again)

    @pytest.mark.parametrize("kind", ["uniform_box", "gaussian_std", "uniform_noise", "gaussian_noise"])
    def test_tiles_are_the_rows_of_sample(self, kind):
        # tiles of 1 row, of a size that leaves a partial last tile, of
        # exactly n rows and of more than n rows; the stream goes on alike
        spec = {
            "uniform_box": DistributionSpec.uniform_box(3, a=-0.3, R=2.7),
            "gaussian_std": DistributionSpec.gaussian_std(3),
            "uniform_noise": DistributionSpec.iid_plus_noise(3, "uniform", 0.15),
            "gaussian_noise": DistributionSpec.iid_plus_noise(3, "gaussian", 0.15),
        }[kind]
        for n, rows in [(1, 1), (7, 1), (1001, 64), (1001, 1001), (1001, 4096)]:
            want_rng, rng = np.random.default_rng(23), np.random.default_rng(23)
            want = spec.sample(n, want_rng)
            out = np.full((rows, 3), np.nan)
            tiles = [T.copy() for T in spec.tiles(n, rng, out)]
            assert all(np.shares_memory(T, out) for T in spec.tiles(2, np.random.default_rng(0), out))
            assert [len(T) for T in tiles] == [min(rows, n - s) for s in range(0, n, rows)]
            assert np.concatenate(tiles).tobytes() == want.tobytes()
            assert rng.random() == want_rng.random()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    def test_noise_tiles_hold_the_stream_of_one_draw(self, bit_generator):
        # The stream holds the corners of all n rows ahead of the noise, and
        # the tiles draw each tile's corners from a copy of the generator.
        # The rows and the generator's next draws must be those of the plain
        # expressions, for odd n d and with half of a 64-bit draw buffered
        # on entry too.
        d, s = 5, 0.15
        for noise, (n, rows), buffered in itertools.product(
            ("uniform", "gaussian"), [(7, 1), (333, 5), (1001, 64), (1001, 1001)], (False, True)
        ):
            def generator():
                g = np.random.Generator(bit_generator(29))
                if buffered:
                    g.integers(0, 2**32, dtype=np.uint32)
                return g

            spec, want_rng = DistributionSpec.iid_plus_noise(d, noise, s), generator()
            base = want_rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0
            if noise == "uniform":
                want = base + s * (want_rng.random((n, d)) - 0.5)
            else:
                want = base + s * want_rng.standard_normal((n, d))
            after = [want_rng.integers(0, 2**32, dtype=np.uint32), want_rng.random()]
            tiled, whole = generator(), generator()
            got = np.concatenate([T.copy() for T in spec.tiles(n, tiled, np.empty((rows, d)))])
            assert got.tobytes() == want.tobytes()
            assert spec.sample(n, whole).tobytes() == want.tobytes()
            for g in (tiled, whole):
                assert [g.integers(0, 2**32, dtype=np.uint32), g.random()] == after

    @pytest.mark.parametrize("a, R", [(0.0, 1.0), (-0.0, 1.0), (0.0, 2.5), (-1.0, 1.0), (3.0, 1e-3)])
    def test_box_steps_skipped_only_where_exact(self, a, R):
        spec = DistributionSpec.uniform_box(4, a=a, R=R)
        want = a + R * np.random.default_rng(22).random((3001, 4))
        got = spec.sample(3001, np.random.default_rng(22))
        assert got.tobytes() == want.tobytes()

    def test_uniform_box_range(self):
        spec = DistributionSpec.uniform_box(2, a=-1.0, R=3.0)
        X = spec.sample(1000, np.random.default_rng(0))
        assert X.min() >= -1.0 and X.max() <= 2.0

    def test_iid_plus_noise_shapes(self):
        spec = DistributionSpec.iid_plus_noise(4, noise="gaussian", noise_scale=0.2)
        X = spec.sample(500, np.random.default_rng(1))
        assert X.shape == (500, 4)
        assert np.all(np.abs(np.abs(X) - 1.0) < 2.0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="bogus", d=2)
        with pytest.raises(ValueError):
            DistributionSpec.uniform_box(2, R=-1.0)
        with pytest.raises(ValueError, match="a \\+ R must be finite"):
            DistributionSpec.uniform_box(4, a=1e308, R=1e308)
        for kind, field in [("uniform_box", "a"), ("uniform_box", "R"),
                            ("iid_plus_noise", "noise_scale")]:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=f"{field} must be"):
                    DistributionSpec(kind=kind, d=2, **{field: value})


class TestViolationProbability:
    def test_uniform_bound(self):
        # P[x not delta-separated] <= 2 d^2 delta on the unit cube
        for d, delta in [(2, 1e-2), (4, 1e-2), (8, 1e-3)]:
            dist = DistributionSpec.uniform_box(d)
            est = estimate_violation_prob(dist, delta, 200_000, seed=d)
            assert est.proportion <= 2 * d * d * delta + 3 * est.std_error

    def test_monotone_in_delta(self):
        dist = DistributionSpec.uniform_box(3)
        estimates = [
            estimate_violation_prob(dist, delta, 100_000, seed=5).proportion
            for delta in (0.1, 0.01, 0.001)
        ]
        assert estimates[0] >= estimates[1] >= estimates[2]

    def test_gaussian_essentially_never_violates_tiny_delta(self):
        dist = DistributionSpec.gaussian_std(3)
        est = estimate_violation_prob(dist, 1e-6, 100_000, seed=9)
        assert est.proportion < 1e-3

    def test_noise_smooths_discrete_base(self):
        dist = DistributionSpec.iid_plus_noise(3, noise_scale=0.3)
        est = estimate_violation_prob(dist, 1e-5, 50_000, seed=2)
        assert est.proportion < 1e-2


class TestWilson:
    def test_interval_contains_phat_and_stays_in_unit(self):
        lo, hi = wilson_interval(7, 50)
        assert 0.0 <= lo <= 7 / 50 <= hi <= 1.0

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo <= 1e-12 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi >= 1.0 - 1e-12 and lo > 0.95


class TestMcL2Error:
    def test_exact_tree_error_is_zero(self):
        dist = DistributionSpec.uniform_box(8)
        est = mc_l2_error(exact_max_tree(8), row_max, dist, 100_000, seed=3)
        assert est.mean_sq_error <= 1e-20

    def test_constant_predictor_matches_integral_oracle(self):
        d, c = 4, 1 - 1 / 4
        dist = DistributionSpec.uniform_box(d)
        est = mc_l2_error(constant_net(d, c), row_max, dist, 400_000, seed=17)
        truth = best_constant_error(c, d)
        assert truth == pytest.approx(0.0291666666, rel=1e-6)
        assert abs(est.mean_sq_error - truth) <= 4 * est.std_error
        # the best constant d/(d+1) does strictly better
        assert best_constant_error(d / (d + 1), d) == pytest.approx(4 / 150)

    def test_corollary_alpha_reaches_target_error(self):
        d, eps = 4, 1e-4
        net = depth3_max(d, alpha_for_accuracy(d, 1.0, eps))
        dist = DistributionSpec.uniform_box(d)
        est = mc_l2_error(net, row_max, dist, 200_000, seed=23)
        assert est.mean_sq_error <= eps + 3 * est.std_error

    def test_deterministic_and_seed_sensitive(self):
        dist = DistributionSpec.uniform_box(3)
        net = depth3_max(3, 100.0)
        a = mc_l2_error(net, row_max, dist, 50_000, seed=1)
        b = mc_l2_error(net, row_max, dist, 50_000, seed=1)
        c = mc_l2_error(net, row_max, dist, 50_000, seed=2)
        assert a == b
        assert a.mean_sq_error != c.mean_sq_error

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mc_l2_error(exact_max_tree(3), row_max, DistributionSpec.uniform_box(2), 100)

    def test_narrow_net_shard_memory(self):
        # d = 10, hidden widths 9 and 19, one 131072-row shard: the peak is
        # the shard and both hidden activations, 10 + 9 + 19 = 38.0 MiB as
        # measured. A second copy of the 19 MiB activation per ReLU made it
        # 48.0 MiB. The bound leaves 4 MiB of headroom.
        rng = np.random.default_rng(5)
        dims = [10, 9, 19, 1]
        layers = [
            AffineLayer(rng.standard_normal((o, i)), rng.standard_normal(o), apply_activation=o > 1)
            for i, o in zip(dims[:-1], dims[1:])
        ]
        net = FeedForwardNet(input_dim=10, layers=tuple(layers))
        dist = DistributionSpec.uniform_box(10)
        est, peak = traced_peak(mc_l2_error, net, row_max, dist, 131072, 6)
        assert est.n_samples == 131072
        assert peak < 42 * MiB

    def test_many_nets_match_one_net_calls(self):
        # one stream, several nets: each estimate is that of its own call,
        # with full shards and a remainder shard, and the target drawn once
        rng = np.random.default_rng(7)
        d = 5
        nets = [depth3_max(d, 50.0), constant_net(d, 0.6), exact_max_tree(d)]
        for widths in ((3,), (4, 9), (1,)):
            dims = [d, *widths, 1]
            nets.append(FeedForwardNet(input_dim=d, layers=tuple(
                AffineLayer(rng.standard_normal((o, i)), rng.standard_normal(o),
                            apply_activation=o_idx < len(widths))
                for o_idx, (i, o) in enumerate(zip(dims[:-1], dims[1:]))
            )))
        dist = DistributionSpec.uniform_box(d, a=-0.5, R=2.0)
        calls = []

        def target(X):
            calls.append(len(X))
            return row_max(X)

        # every net's default chunk is 131072 rows: one full shard and a remainder
        got = mc_l2_errors(nets, target, dist, 140_001, seed=9)
        assert calls == [131072, 8929]
        want = [mc_l2_error(net, row_max, dist, 140_001, seed=9) for net in nets]
        assert got == want
        got = mc_l2_errors(nets[1:], row_max, dist, 5000, seed=3)
        assert got == [mc_l2_error(net, row_max, dist, 5000, seed=3) for net in nets[1:]]

    def test_mismatched_default_chunks_raise(self):
        # widths 10 and 100 give default chunks of 131072 and 83886 rows
        dist = DistributionSpec.uniform_box(3)
        rng = np.random.default_rng(8)
        nets = [
            FeedForwardNet(input_dim=3, layers=(
                AffineLayer(rng.standard_normal((w, 3)), rng.standard_normal(w)),
                AffineLayer(rng.standard_normal((1, w)), [0.0], apply_activation=False),
            ))
            for w in (10, 100)
        ]
        with pytest.raises(ValueError, match="chunk"):
            mc_l2_errors(nets, row_max, dist, 1000, seed=1)
        with pytest.raises(ValueError):
            mc_l2_errors([], row_max, dist, 1000, seed=1)
        with pytest.raises(ValueError):
            mc_l2_errors([nets[0], exact_max_tree(4)], row_max, dist, 1000, seed=1)

    def test_ci_invariant(self):
        dist = DistributionSpec.uniform_box(2)
        est = mc_l2_error(constant_net(2, 0.5), row_max, dist, 10_000, seed=4)
        assert est.ci95[0] <= est.mean_sq_error <= est.ci95[1]


class TestCiCalibration:
    def test_zero_error_degenerate_ci_always_covers(self):
        # per-sample errors of the exact tree on the unit cube are exactly
        # zero, so the CI is the zero-width interval at zero
        net = exact_max_tree(4)
        hits = 0
        for seed in range(200):
            dist = DistributionSpec.uniform_box(4)
            est = mc_l2_error(net, row_max, dist, 2000, seed=seed)
            if est.ci95[0] <= 0.0 <= est.ci95[1]:
                hits += 1
        assert hits >= 180

    def test_known_truth_coverage(self):
        d, c = 4, 0.75
        truth = best_constant_error(c, d)
        net = constant_net(d, c)
        hits = 0
        for seed in range(200):
            dist = DistributionSpec.uniform_box(d)
            est = mc_l2_error(net, row_max, dist, 2000, seed=1000 + seed)
            if est.ci95[0] <= truth <= est.ci95[1]:
                hits += 1
        assert hits >= 180


class TestErrorMonotonicityInAlpha:
    def test_nonincreasing_up_to_ci_overlap(self):
        d = 4
        dist = DistributionSpec.uniform_box(d)
        ests = [
            mc_l2_error(depth3_max(d, alpha), row_max, dist, 200_000, seed=31)
            for alpha in (1e2, 1e3, 1e4, 1e5)
        ]
        for lo, hi in zip(ests[1:], ests[:-1]):
            slack = 1.96 * (lo.std_error + hi.std_error)
            assert lo.mean_sq_error <= hi.mean_sq_error + slack


class TestSampleSeparated:
    def test_returns_separated_points(self):
        dist = DistributionSpec.uniform_box(5)
        X = sample_separated(dist, 1e-3, 500, seed=8)
        assert X.shape == (500, 5)
        assert all(is_delta_separated(x, 1e-3) for x in X[:50])

    def test_gives_up_on_impossible_delta(self):
        dist = DistributionSpec.uniform_box(2)
        with pytest.raises(RuntimeError):
            sample_separated(dist, 5.0, 100, seed=8)


class TestShardContract:
    """Shard i of a run with root seed r holds the next min(chunk, rows left)
    draws of default_rng([r, i]); shards are reduced in shard order. N is
    above the largest default chunk (131072 rows), so each run ends in a
    remainder shard."""

    N, ROOT = 140_000, 11

    def shards(self, dist, n, chunk):
        full, rem = divmod(n, chunk)
        sizes = [chunk] * full + ([rem] if rem else [])
        return [dist.sample(m, np.random.default_rng([self.ROOT, i])) for i, m in enumerate(sizes)]

    KINDS = {
        "uniform_box": lambda d: DistributionSpec.uniform_box(d, a=-0.3, R=2.5),
        "gaussian_std": lambda d: DistributionSpec.gaussian_std(d),
        "iid_plus_noise": lambda d: DistributionSpec.iid_plus_noise(d, "uniform", 0.1),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("d", [1, 2, 3, 13, 65])
    def test_tiled_separation_matches_whole_shards(self, kind, d):
        # One whole shard and a remainder shard of 4465 rows, which ends in
        # a partial tile at every d; delta keeps some rows of each kind apart.
        dist, delta = self.KINDS[kind](d), 0.2 / d**2
        n = VIOLATION_CHUNK + 4465
        assert 4465 % max(1, _TILE_VALUES // d)
        hits = sum(int(_violation_mask(X, delta).sum())
                   for X in self.shards(dist, n, VIOLATION_CHUNK))
        est = estimate_violation_prob(dist, delta, n, seed=self.ROOT)
        assert (0 < hits < n) == (d > 1)
        assert est.proportion == hits / n
        assert est.ci95 == wilson_interval(hits, n)
        # rounds of max(n, 1024) = 3001 draws, filtered, until n are kept
        n = 3001
        rounds = [X[~_violation_mask(X, delta)] for X in self.shards(dist, 4 * n, n)]
        kept = np.cumsum([len(X) for X in rounds])
        used = int(np.searchsorted(kept, n)) + 1
        assert (used > 1) == (d > 1)
        expected = np.concatenate(rounds[:used])[:n]
        got = sample_separated(dist, delta, n, seed=self.ROOT)
        assert got.tobytes() == expected.tobytes()

    def test_negative_seed_raises(self):
        dist = DistributionSpec.uniform_box(3)
        with pytest.raises(ValueError, match="seed"):
            mc_l2_error(depth3_max(3, 100.0), row_max, dist, 1000, seed=-3)
        with pytest.raises(ValueError, match="seed"):
            estimate_violation_prob(dist, 0.1, 1000, seed=-3)
        with pytest.raises(ValueError, match="seed"):
            sample_separated(dist, 0.1, 100, seed=-3)

    @pytest.mark.parametrize(
        "estimator", ["mc_l2_error", "estimate_violation_prob", "sample_separated"]
    )
    def test_estimators_match_a_hand_written_shard_loop(self, estimator):
        n = self.N
        assert n % 131072 and n % VIOLATION_CHUNK  # remainder shards
        if estimator == "mc_l2_error":
            dist = DistributionSpec.uniform_box(3)
            net = depth3_max(3, 100.0)
            s1 = s2 = 0.0
            for X in self.shards(dist, n, 131072):  # depth3_max(3)'s default chunk
                err = evaluate_batch(net, X) - row_max(X)
                sq = err * err
                s1 += float(sq.sum())
                s2 += float((sq * sq).sum())
            est = mc_l2_error(net, row_max, dist, n, seed=self.ROOT)
            mean = s1 / n
            assert est.mean_sq_error == mean
            assert est.std_error == (max(0.0, (s2 - n * mean * mean) / (n - 1)) / n) ** 0.5
        elif estimator == "estimate_violation_prob":
            dist = DistributionSpec.gaussian_std(8)
            hits = sum(int(_violation_mask(X, 0.05).sum())
                       for X in self.shards(dist, n, VIOLATION_CHUNK))
            est = estimate_violation_prob(dist, 0.05, n, seed=self.ROOT)
            assert 0 < hits < n
            assert est.proportion == hits / n
            assert est.ci95 == wilson_interval(hits, n)
        else:
            # rounds of max(n, 1024) draws, filtered, until n points are kept
            dist = DistributionSpec.uniform_box(4)
            rounds = [X[~_violation_mask(X, 0.1)] for X in self.shards(dist, 5 * n, n)]
            kept = np.cumsum([len(X) for X in rounds])
            used = int(np.searchsorted(kept, n)) + 1
            assert used > 1
            expected = np.concatenate(rounds[:used])[:n]
            got = sample_separated(dist, 0.1, n, seed=self.ROOT)
            assert got.tobytes() == expected.tobytes()
