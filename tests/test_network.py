"""Network evaluation, stats, and serialization round-trips."""

import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnet import (
    AffineLayer,
    DistributionSpec,
    FeedForwardNet,
    NumericOverflowError,
    ParseError,
    deserialize,
    evaluate,
    evaluate_batch,
    exact_max_tree,
    depth3_max,
    deep_max,
    deep_shape,
    rescale_to_box,
    serialize,
    stats,
    train,
    TrainConfig,
)
from maxnet import network
from maxnet.network import (
    CSR_FORMAT_TAG, FORMAT_TAG, SPARSE_MAX_DENSITY, SPARSE_MIN_WEIGHTS,
)
from net_arrays import assert_same_arrays, assert_same_matrix


def child_env(**extra) -> dict[str, str]:
    """The environment of a child Python that imports this maxnet: the
    package's source directory leads PYTHONPATH."""
    src = str(Path(network.__file__).parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def single_relu_neuron() -> FeedForwardNet:
    return FeedForwardNet(
        input_dim=1,
        layers=(
            AffineLayer(np.array([[1.0]]), np.array([0.0])),
            AffineLayer(np.array([[1.0]]), np.array([0.0]), apply_activation=False),
        ),
    )


def random_net(rng, d=3, widths=(5, 4)) -> FeedForwardNet:
    dims = [d, *widths, 1]
    layers = [
        AffineLayer(rng.standard_normal((o, i)), rng.standard_normal(o))
        for i, o in zip(dims[:-1], dims[1:])
    ]
    last = layers[-1]
    layers[-1] = AffineLayer(last.weights, last.biases, apply_activation=False)
    return FeedForwardNet(input_dim=d, layers=tuple(layers))


class TestEvaluate:
    def test_relu_identity_on_positive(self):
        assert evaluate(single_relu_neuron(), [0.5]) == 0.5

    def test_relu_clamps_negative(self):
        assert evaluate(single_relu_neuron(), [-0.5]) == 0.0

    def test_exact_tree_matches_bruteforce_max(self):
        net = exact_max_tree(4)
        x = [0.1, 0.9, 0.4, 0.2]
        assert evaluate(net, x) == pytest.approx(max(x), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(single_relu_neuron(), [1.0, 2.0])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate(single_relu_neuron(), [float("nan")])

    def test_overflow_raises_with_sample(self):
        import warnings

        net = FeedForwardNet(
            input_dim=1,
            layers=(
                AffineLayer(np.array([[1e300]]), np.array([0.0])),
                AffineLayer(np.array([[1e300]]), np.array([0.0]), apply_activation=False),
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericOverflowError) as exc:
                evaluate(net, [1e300])
        assert exc.value.sample is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_input_rejected(self, bad):
        net = random_net(np.random.default_rng(1))
        X = np.ones((4, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate_batch(net, X)

    @pytest.mark.parametrize(
        "weights, where",
        [
            # +inf in the hidden layer, after its ReLU
            (([[1e300]], [[1.0]]), "hidden"),
            # -inf in the affine output layer, where no ReLU clamps it
            (([[1.0]], [[-1e300]]), "output"),
        ],
    )
    def test_overflow_sample_is_first_offending_row(self, weights, where):
        import warnings

        w0, w1 = weights
        net = FeedForwardNet(
            input_dim=1,
            layers=(
                AffineLayer(np.array(w0), np.array([0.0])),
                AffineLayer(np.array(w1), np.array([0.0]), apply_activation=False),
            ),
        )
        X = np.array([[1.0], [2.0], [1e10], [3.0], [2e10]])  # rows 2 and 4 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericOverflowError) as exc:
                evaluate_batch(net, X)
        np.testing.assert_array_equal(exc.value.sample, [1e10])

    def test_caller_input_unchanged(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, d=3, widths=(5, 4))
        X = rng.standard_normal((64, 3))
        before = X.copy()
        evaluate_batch(net, X)
        assert X.tobytes() == before.tobytes()

    def test_batch_matches_scalar(self):
        # batched and single-row evaluation may take different BLAS kernels,
        # so agreement is to rounding, not bit-exact
        rng = np.random.default_rng(0)
        net = random_net(rng)
        X = rng.standard_normal((50, 3))
        batch = evaluate_batch(net, X)
        single = [evaluate(net, X[i]) for i in range(50)]
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12)


class TestStats:
    def test_depth3_width(self):
        s = stats(depth3_max(4, 1e4))
        assert s.depth == 3 and s.width == 20
        assert s.max_abs_weight == 1e4

    def test_single_hidden_layer(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, d=3, widths=(7,))
        s = stats(net)
        assert s.depth == 2 and s.width == 7

    def test_deep64_width_under_theorem_bound(self):
        net = deep_max(64, 1e5, 2)
        s = stats(net)
        assert s.width <= 5120  # 20 * 64^(4/3)
        # the built widths equal the recursion's neuron count
        widths = [layer.out_width for layer in net.hidden_layers]
        assert widths == deep_shape(64, 2)

    def test_depth_counts_activation_layers(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, widths=(4, 4, 4))
        assert stats(net).depth == 1 + sum(l.apply_activation for l in net.layers)

    def test_width_le_size(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        s = stats(net)
        assert s.width <= s.size


class TestValidation:
    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            FeedForwardNet(
                input_dim=2,
                layers=(
                    AffineLayer(np.ones((3, 2)), np.zeros(3)),
                    AffineLayer(np.ones((1, 4)), np.zeros(1), apply_activation=False),
                ),
            )

    def test_final_layer_must_be_scalar_affine(self):
        with pytest.raises(ValueError):
            FeedForwardNet(
                input_dim=2,
                layers=(AffineLayer(np.ones((2, 2)), np.zeros(2), apply_activation=False),),
            )
        with pytest.raises(ValueError):
            FeedForwardNet(
                input_dim=2,
                layers=(AffineLayer(np.ones((1, 2)), np.zeros(1), apply_activation=True),),
            )

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            AffineLayer(np.array([[np.inf]]), np.zeros(1))


def is_sparse(layer: AffineLayer) -> bool:
    return not isinstance(layer.matrix, np.ndarray)


def scattered(shape, nnz: int, seed: int = 0) -> np.ndarray:
    """A dense matrix with nnz nonzero entries at random places."""
    rng = np.random.default_rng(seed)
    w = np.zeros(shape)
    w.flat[rng.choice(w.size, nnz, replace=False)] = rng.standard_normal(nnz)
    return w


class TestStorage:
    """The storage rule: CSR for layers of at least SPARSE_MIN_WEIGHTS
    weights with at most SPARSE_MAX_DENSITY of them nonzero, dense else."""

    def test_rule_thresholds(self):
        rows = SPARSE_MIN_WEIGHTS // 64
        limit = int(SPARSE_MAX_DENSITY * SPARSE_MIN_WEIGHTS)
        assert is_sparse(AffineLayer(scattered((rows, 64), limit), np.zeros(rows)))
        assert not is_sparse(AffineLayer(scattered((rows, 64), limit + 1), np.zeros(rows)))
        assert not is_sparse(AffineLayer(scattered((rows, 63), 10), np.zeros(rows)))

    def test_negative_zero_is_kept(self):
        w = scattered((1024, 256), 100)
        w[3, 5] = -0.0
        layer = AffineLayer(w, np.zeros(1024))
        assert is_sparse(layer) and layer.matrix.nnz == 101
        np.testing.assert_array_equal(layer.weights.view(np.uint64), w.view(np.uint64))

    def test_sparse_input_is_made_canonical(self):
        from scipy import sparse as sp
        w = scattered((1024, 256), 300, seed=1)
        w[[0, -1]] = 0.0
        rows, cols = np.nonzero(w)
        # shuffled, plus a duplicate of a nonzero and an explicit +0.0, and
        # one more +0.0 as the only entry of the first and of the last row
        zr, zc = np.argwhere(w == 0)[300]
        order = np.random.default_rng(2).permutation(len(rows))
        r = np.concatenate([rows[order], [rows[0], zr, 0, 1023]])
        c = np.concatenate([cols[order], [cols[0], zc, 5, 7]])
        v = np.concatenate([w[rows, cols][order], [0.0, 0.0, 0.0, 0.0]])
        coo = sp.coo_array((v, (r, c)), shape=w.shape)
        layer = AffineLayer(coo, np.zeros(1024))
        ref = AffineLayer(w, np.zeros(1024))
        for a, b in zip((layer.matrix.indptr, layer.matrix.indices, layer.matrix.data),
                        (ref.matrix.indptr, ref.matrix.indices, ref.matrix.data)):
            np.testing.assert_array_equal(a, b)
        assert layer.matrix.has_canonical_format

    def test_small_sparse_input_is_stored_dense(self):
        from scipy import sparse as sp
        w = np.array([[0.0, 2.0], [-0.0, 0.0]])
        layer = AffineLayer(sp.csr_array(w), np.zeros(2))
        assert isinstance(layer.matrix, np.ndarray) and not layer.matrix.flags.writeable
        np.testing.assert_array_equal(layer.weights, [[0.0, 2.0], [0.0, 0.0]])

    def test_weights_is_a_fresh_read_only_view(self):
        layer = AffineLayer(scattered((1024, 256), 50), np.zeros(1024))
        a, b = layer.weights, layer.weights
        assert a is not b and not a.flags.writeable
        m = layer.matrix
        assert not (m.data.flags.writeable or m.indices.flags.writeable
                    or m.indptr.flags.writeable)

    def test_nonfinite_sparse_weights_rejected(self):
        w = scattered((1024, 256), 50)
        w[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            AffineLayer(w, np.zeros(1024))

    def test_stats_read_the_stored_values(self):
        w = 0.0 - np.abs(scattered((1024, 256), 50))  # zeros stay +0.0
        w[0, 0] = -3.5
        net = FeedForwardNet(
            input_dim=256,
            layers=(AffineLayer(w, np.zeros(1024)),
                    AffineLayer(np.ones((1, 1024)), np.zeros(1), apply_activation=False)),
        )
        assert is_sparse(net.layers[0])
        assert stats(net).max_abs_weight == 3.5

    def test_sparse_evaluation_matches_dense_products(self):
        net = deep_max(256, 1e6, 2)
        assert sum(map(is_sparse, net.layers)) == 3
        X = np.random.default_rng(3).random((300, 256))
        h = X
        for layer in net.layers:
            h = h @ layer.weights.T + layer.biases
            if layer.apply_activation:
                h = np.maximum(h, 0.0)
        np.testing.assert_allclose(evaluate_batch(net, X), h[:, 0], rtol=1e-12, atol=1e-9)

    def test_small_nets_never_import_scipy_sparse(self, tmp_path):
        # saving and loading too: every layer is written as CSR entries
        code = (
            "import sys, numpy as np, maxnet\n"
            "from maxnet.training import TrainConfig\n"
            "cfg = TrainConfig(d=4, arch=(3,), dist=maxnet.DistributionSpec.uniform_box(4),\n"
            "                  lr=0.05, batch=64, steps=20, seed=1)\n"
            "nets = [maxnet.depth3_max(32, 1e3), maxnet.train(cfg).net,\n"
            "        maxnet.deep_max(32, 1e4, 2)]\n"
            "for net in nets[:2]:\n"
            "    maxnet.save(net, sys.argv[1])\n"
            "    nets.append(maxnet.load(sys.argv[1]))\n"
            "for net in nets:\n"
            "    maxnet.evaluate_batch(net, np.random.default_rng(0).random((64, net.input_dim)))\n"
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'\n"
        )
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "net.json")],
                       check=True, env=child_env())


def one_pass(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    """evaluate_batch without row tiles: every layer over all rows at once.
    The reference that the tiled evaluation must match bit for bit."""
    h = X
    for layer in net.layers:
        h = h @ layer.matrix.T
        h += layer.biases
        if layer.apply_activation:
            np.maximum(h, 0.0, out=h)
    return h[:, 0]


class TestBiasBlocks:
    """_forward adds a C-ordered layer's bias through blocks of rows viewed
    as long rows; the sums must be those of h @ W.T + b."""

    @pytest.mark.parametrize("w", range(1, 81))
    def test_dense_layers_match_plain_add(self, w):
        rng = np.random.default_rng(w)
        rows = max(1, network.BIAS_BLOCK_VALUES // w)
        W, b = rng.standard_normal((w, 3)), rng.standard_normal(w)
        for n in (rows - 1, rows + 1, 3 * rows + 5):
            X = rng.standard_normal((n, 3))
            layer = AffineLayer(W, b, apply_activation=False)
            got = network._forward([layer], X, X, 0)
            assert got.tobytes() == (X @ W.T + b).tobytes(), n
            relu = network._forward([AffineLayer(W, b)], X, X, 0)
            assert relu.tobytes() == np.maximum(X @ W.T + b, 0.0).tobytes(), n

    @pytest.mark.parametrize("w", [1, 2, 7, 33, 80])
    def test_csr_products_match_plain_add(self, w):
        from scipy import sparse

        rng = np.random.default_rng(100 + w)
        m = sparse.random_array((w, 40), density=0.3, format="csr", rng=rng)
        b = rng.standard_normal(w)
        layer = types.SimpleNamespace(matrix=m, biases=b, apply_activation=False)
        n = 3 * max(1, network.BIAS_BLOCK_VALUES // w) + 5
        X = rng.standard_normal((n, 40))
        want = X @ m.T + b
        assert network._forward([layer], X, X, 0).tobytes() == want.tobytes()
        for h in (np.ascontiguousarray(X @ m.T), np.asfortranarray(X @ m.T)):
            network._add_bias(h, b)
            assert h.tobytes() == want.tobytes()

    def test_evaluate_batch_matches_plain_layers(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, d=4, widths=(2, 30))
        X = rng.random((9001, 4))
        h = X
        for layer in net.layers:
            h = h @ layer.weights.T + layer.biases
            if layer.apply_activation:
                h = np.maximum(h, 0.0)
        assert evaluate_batch(net, X).tobytes() == h[:, 0].tobytes()


def scanned_pass(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    """:func:`one_pass` that scans every layer for inf and NaN as it goes:
    every bias added and every layer scanned, the passes evaluate_batch
    skips where they cannot change a bit."""
    h = X
    for layer in net.layers:
        h = h @ layer.matrix.T
        h += layer.biases
        if layer.apply_activation:
            np.maximum(h, 0.0, out=h)
        bad = ~np.isfinite(h)
        if bad.any():
            raise NumericOverflowError("reference", sample=X[np.argwhere(bad)[0, 0]].copy())
    return h[:, 0]


SIGNS = [0.0, -0.0, 1.0, -1.0]
"""Mantissas that make exact zeros of both signs and negative products."""


@st.composite
def scaled_cases(draw):
    """A small dense or CSR net and a batch of fewer rows than one tile,
    scaled by powers of two so that the bound of network.SCAN_LIMIT falls
    on either side of it, or products underflow to -0.0."""
    d = draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 6), max_size=3))
    dims = [d, *widths, 1]
    # 2^total is about max|x| times the layers' gains: the limit is near
    # 2^1020, and products underflow below 2^-1074
    total = draw(st.one_of(st.integers(-1400, 1400), st.integers(990, 1100),
                           st.integers(-2400, -1080)))
    scale = total // len(dims)
    mantissas = st.one_of(st.sampled_from(SIGNS), st.floats(-1.0, 1.0))

    def array(shape, exponent):
        m = draw(st.lists(mantissas, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        sign = draw(st.sampled_from([None, 1.0, -1.0]))  # one sign: sums of -0.0
        m = np.reshape(m if sign is None else np.copysign(m, sign), shape)
        return np.ldexp(m, exponent)

    csr = draw(st.booleans())
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        kind = draw(st.sampled_from(["+0", "-0", "zeros", "any"]))
        if kind == "any":
            b = array(n_out, draw(st.integers(min(-1074, scale), scale)))
        else:
            b = np.full(n_out, {"+0": 0.0, "-0": -0.0}.get(kind, 0.0))
            if kind == "zeros":
                b[draw(st.lists(st.integers(0, n_out - 1)))] = -0.0
        W = array((n_out, n_in), scale)
        if csr:
            from scipy import sparse

            # every layer meets the storage rule while it is built
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(network, "SPARSE_MIN_WEIGHTS", 0)
                mp.setattr(network, "SPARSE_MAX_DENSITY", 1.0)
                layer = AffineLayer(sparse.csr_array(W), b, apply_activation=i < len(widths))
        else:
            layer = AffineLayer(W, b, apply_activation=i < len(widths))
        layers.append(layer)
    net = FeedForwardNet(input_dim=d, layers=tuple(layers))
    X = array((draw(st.integers(1, 8)), d), total - scale * (len(dims) - 1))
    return net, X


def underflow_case(hidden: bool):
    """A layer of products that underflow to -0.0, whose sums OpenBLAS
    0.3.31's gemv leaves -0.0: an output layer of five inputs on two rows,
    whose +0.0 bias makes the output +0.0, or a hidden layer of 33 inputs
    on one row, whose ReLU makes it +0.0."""
    k, n = (33, 1) if hidden else (5, 2)
    first = AffineLayer(np.full((hidden + 1, k), -1e-200), np.zeros(hidden + 1),
                        apply_activation=hidden)
    out = (AffineLayer(np.ones((1, 2)), np.array([-0.0]), apply_activation=False),)
    net = FeedForwardNet(input_dim=k, layers=(first, *out[:hidden]))
    return net, np.full((n, k), 1e-200)


class TestSkippedPasses:
    """evaluate_batch skips the bias add of a ReLU layer with zero biases
    and the finiteness scan of a layer whose values are bounded below
    network.SCAN_LIMIT; neither may change a bit or an overflow report."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 33, 1000])
    def test_relu_clears_negative_zero(self, n):
        # what skipping a zero bias on a ReLU layer rests on, on the
        # ufunc's scalar and SIMD loops, in place and strided
        for h in (np.full(n, -0.0), np.full((n, 3), -0.0), np.full(2 * n, -0.0)[::2]):
            assert not np.signbit(np.maximum(h, 0.0)).any()
            np.maximum(h, 0.0, out=h)
            assert not np.signbit(h).any()

    @settings(max_examples=300, deadline=None)
    @given(case=scaled_cases())
    @example(case=underflow_case(hidden=False))
    @example(case=underflow_case(hidden=True))
    def test_matches_every_pass(self, case):
        net, X = case
        with np.errstate(all="ignore"):
            try:
                want = scanned_pass(net, X)
            except NumericOverflowError as exc:
                with pytest.raises(NumericOverflowError) as got:
                    evaluate_batch(net, X)
                assert got.value.sample.view(np.uint64).tolist() == \
                    exc.sample.view(np.uint64).tolist()
                return
            got = evaluate_batch(net, X)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @staticmethod
    def counted(monkeypatch) -> dict[str, int]:
        """Count the calls of the input check, the scan and the bias add."""
        counts = dict.fromkeys(["_peak", "_all_finite", "_add_bias"], 0)
        for name in counts:
            def wrapped(*args, _call=getattr(network, name), _name=name, **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(network, name, wrapped)
        return counts

    @pytest.mark.parametrize("make, n", [
        (lambda: depth3_max(8, 1e3), 10**4),  # tiled
        (lambda: deep_max(256, 1e6, 2), 2000),  # CSR layers
    ])
    def test_constructions_skip_both(self, monkeypatch, make, n):
        net = make()
        X = np.random.default_rng(21).random((n, net.input_dim))
        want = evaluate_batch(net, X)  # computes the layers' gains
        counts = self.counted(monkeypatch)
        for calls in (1, 2):
            got = evaluate_batch(net, X)
            # the input check alone, and the output layer's bias alone
            assert counts == {"_peak": calls, "_all_finite": 0, "_add_bias": calls}
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("x, scans", [
        (1e300, 1),  # inf in the first layer
        (5e7, 2),  # 5e307, past the limit but finite, then inf in the output
    ])
    def test_a_net_near_the_range_scans_every_layer(self, monkeypatch, x, scans):
        net = FeedForwardNet(
            input_dim=1,
            layers=(
                AffineLayer(np.array([[1e300]]), np.array([0.0])),
                AffineLayer(np.array([[1e300]]), np.array([0.0]), apply_activation=False),
            ),
        )
        counts = self.counted(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(NumericOverflowError) as exc:
            evaluate_batch(net, np.array([[1e-300], [x]]))
        np.testing.assert_array_equal(exc.value.sample, [x])
        assert counts["_all_finite"] == scans
        # far from the limit, the same net scans nothing
        counts["_all_finite"] = 0
        assert evaluate_batch(net, np.array([[1e-300]]))[0] == pytest.approx(1e300)
        assert counts["_all_finite"] == 0


TILE_NETS = {
    "depth3_8": lambda: depth3_max(8, 1e3),
    "depth3_32": lambda: depth3_max(32, 1e3),
    "depth3_64": lambda: depth3_max(64, 1e3),  # both hidden layers sparse
    "deep_256_2": lambda: deep_max(256, 1e6, 2),  # CSR products come out F-ordered
    "exact_tree_7": lambda: exact_max_tree(7),
    # the last hidden layer is the widest: never tiled
    "last_widest": lambda: random_net(np.random.default_rng(11), d=5, widths=(300, 700)),
    # a width-1 hidden layer ends the tiled layers before the output does
    "width1_hidden": lambda: random_net(np.random.default_rng(12), d=6, widths=(480, 32, 1, 16)),
}


def layouts(X: np.ndarray):
    """X as a C-ordered, an F-ordered and a row-strided array."""
    yield "C", X
    yield "F", np.asfortranarray(X)
    strided = np.empty((2 * len(X), X.shape[1]))
    strided[::2] = X
    yield "strided", strided[::2]


class TestRowTiles:
    """evaluate_batch runs the hidden layers before the first single-output
    layer over row tiles; the result must equal one pass bit for bit."""

    @pytest.mark.parametrize("name", TILE_NETS)
    def test_tiles_match_one_pass(self, name):
        net = TILE_NETS[name]()
        stop, rows = network._tiling(net)
        if name == "last_widest":
            assert (stop, rows) == (0, 0)
            rows = network.TILE_BYTES // (8 * 700)
        else:
            assert stop == (2 if name == "width1_hidden" else len(net.layers) - 1)
        rng = np.random.default_rng(13)
        for n in (1, 2, rows - 1, rows, 2 * rows - 1, 2 * rows, 2 * rows + 1, 7 * rows + 3):
            X = rng.uniform(-0.5, 1.5, size=(n, net.input_dim))
            for layout, Xl in layouts(X):
                before = Xl.copy()
                got = evaluate_batch(net, Xl)
                expect = one_pass(net, Xl)
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), (n, layout)
                assert np.array_equal(Xl.view(np.uint64), before.view(np.uint64)), (n, layout)

    def test_ragged_widths_on_one_blas_thread(self):
        # widths that are not a multiple of the gemm kernels' blocks, and
        # small inputs that put small tiles on the small-matrix kernels: a
        # tile that ends inside a row block or falls to those kernels
        # changes bits here. Two BLAS threads would split the rows at
        # places that depend on the row count, so this runs on one.
        code = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_network import layouts, one_pass, random_net\n"
            "from maxnet import evaluate_batch, network\n"
            "bad = []\n"
            "for seed, (d, *widths) in enumerate([(4, 330, 4), (3, 612, 193)]):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    net = random_net(rng, d=d, widths=tuple(widths))\n"
            "    rows = network._tiling(net)[1]\n"
            "    for n in (2 * rows, 2 * rows + 1, 3 * rows - 1, 7 * rows + 3):\n"
            "        X = rng.uniform(-0.5, 1.5, size=(n, d))\n"
            "        for layout, Xl in layouts(X):\n"
            "            got, expect = evaluate_batch(net, Xl), one_pass(net, Xl)\n"
            "            if not np.array_equal(got.view(np.uint64), expect.view(np.uint64)):\n"
            "                bad.append((d, *widths, n, layout))\n"
            "assert not bad, bad\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=child_env(OPENBLAS_NUM_THREADS="1"))

    def test_layer_wider_than_the_budget(self, monkeypatch):
        # a layer wider than TILE_BYTES / 8 values still gets whole tiles
        monkeypatch.setattr(network, "TILE_BYTES", 8)
        net = depth3_max(64, 1e3)
        assert network._tiling(net) == (2, network.TILE_ROW_MULTIPLE)
        X = np.random.default_rng(16).random((5 * network.TILE_ROW_MULTIPLE + 7, 64))
        assert np.array_equal(evaluate_batch(net, X).view(np.uint64),
                              one_pass(net, X).view(np.uint64))

    def test_overflow_in_second_tile_reports_its_row(self):
        import warnings

        net = depth3_max(32, 1e3)
        rows = network._tiling(net)[1]
        X = np.random.default_rng(14).uniform(0, 1, size=(5 * rows, 32))
        X[rows + 5, 3] = 1e306  # overflows in the first layer: alpha * 1e306
        X[3 * rows + 1, 7] = 1e306
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericOverflowError) as exc:
                evaluate_batch(net, X)
            np.testing.assert_array_equal(exc.value.sample, X[rows + 5])
            with pytest.raises(NumericOverflowError):
                evaluate_batch(net, exc.value.sample[None, :])

    def test_wide_layer_memory(self):
        # one pass holds the 7943 x 1056 first activation, 67.9 MiB; tiles
        # hold X, the 7943 x 64 buffer and one tile's activations
        net = depth3_max(32, 1e3)
        X = np.random.default_rng(15).random((7943, 32))
        tracemalloc.start()
        try:
            evaluate_batch(net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak / 2**20


def reference_serialize(net: FeedForwardNet, csr: bool = False) -> str:
    """A document in an earlier layout, which deserialize still reads, as
    json's indent=1 encoder writes it. By default it is the maxnet-ffn/1
    document, with every layer's ``weights`` rows. With ``csr`` a net with
    a layer stored sparse becomes maxnet-ffn/2, where each such layer holds
    the CSR arrays of its matrix and every other one its ``weights``."""
    csr = csr and any(map(is_sparse, net.layers))
    layers = []
    for layer in net.layers:
        m = layer.matrix
        if csr and is_sparse(layer):
            entry = {"shape": list(m.shape), "indptr": m.indptr.tolist(),
                     "indices": m.indices.tolist(), "values": m.data.tolist()}
        else:
            entry = {"weights": layer.weights.tolist()}
        entry["biases"] = layer.biases.tolist()
        entry["apply_activation"] = layer.apply_activation
        layers.append(entry)
    doc = {
        "format": CSR_FORMAT_TAG if csr else FORMAT_TAG,
        "input_dim": net.input_dim,
        "activation": "relu",
        "metadata": net.metadata,
        "layers": layers,
    }
    return json.dumps(doc, indent=1)


def entries_doc(net: FeedForwardNet) -> dict:
    """The maxnet-ffn/2 document serialize writes: every layer, dense or
    sparse, holds the CSR arrays of the entries of its dense weights whose
    bits are nonzero."""
    layers = []
    for layer in net.layers:
        w = layer.weights
        stored = w.view(np.uint64) != 0
        layers.append({
            "shape": list(w.shape),
            "indptr": [0, *np.cumsum(stored.sum(axis=1)).tolist()],
            "indices": np.nonzero(stored)[1].tolist(),
            "values": w[stored].tolist(),
            "biases": layer.biases.tolist(),
            "apply_activation": layer.apply_activation,
        })
    return {
        "format": CSR_FORMAT_TAG,
        "input_dim": net.input_dim,
        "activation": "relu",
        "metadata": net.metadata,
        "layers": layers,
    }


def assert_serialize_matches_reference(net: FeedForwardNet) -> None:
    """serialize writes the entries document as compact JSON, and that
    text and both earlier layouts all load to the net's arrays."""
    text = serialize(net)
    assert text == json.dumps(entries_doc(net), separators=(",", ":"))
    for saved in (text, reference_serialize(net), reference_serialize(net, csr=True)):
        assert_same_arrays(net, deserialize(saved))


# floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal and normal, a non-dyadic decimal, the switch to exponent
# notation, and the largest magnitudes
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1e16, -1e16,
    1e-5, 123456789.0, 1.7976931348623157e308, -1.7976931348623157e308,
]
EDGE_TEXT = ['', 'a "quoted" name', "back\\slash", "two\nlines\ttab", "\u00e9\u03b1\u2211 \U0001f600", "\x00\x1f"]


@st.composite
def small_nets(draw):
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), max_size=2))
    values = st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    dims = [d, *widths, 1]
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = draw(st.lists(values, min_size=n_in * n_out, max_size=n_in * n_out))
        b = draw(st.lists(values, min_size=n_out, max_size=n_out))
        layers.append(
            AffineLayer(np.reshape(w, (n_out, n_in)), np.array(b),
                        apply_activation=i < len(widths))
        )
    metadata = draw(st.one_of(st.sampled_from(EDGE_TEXT), st.text()))
    return FeedForwardNet(input_dim=d, layers=tuple(layers), metadata=metadata)


class TestSerializeBytes:
    """serialize writes exactly what json.dumps(doc, separators=(",", ":"))
    writes for the entries document."""

    @settings(max_examples=200, deadline=None)
    @given(net=small_nets())
    def test_random_nets_match_json(self, net):
        assert_serialize_matches_reference(net)

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda d=d: depth3_max(d, 7.0) for d in (2, 3, 8)),
            lambda: depth3_max(5, 0.5),
            *(lambda d=d: exact_max_tree(d) for d in (2, 7, 9)),
            lambda: deep_max(16, 1e6, 2),
            lambda: deep_max(12, 0.5, 3),
            lambda: rescale_to_box(depth3_max(3, 100.0), -0.1, 3.3),
            lambda: rescale_to_box(exact_max_tree(1), 2.5, 0.7),
        ],
        ids=[
            "depth3-2", "depth3-3", "depth3-8", "depth3-5-alpha0.5",
            "tree-2", "tree-7", "tree-9",
            "deep-16-2", "deep-12-3", "rescaled-depth3", "rescaled-tree-1",
        ],
    )
    def test_constructions_match_json(self, make):
        assert_serialize_matches_reference(make())

    def test_single_layer_net(self):
        net = exact_max_tree(1)
        assert len(net.layers) == 1
        assert_serialize_matches_reference(net)

    def test_trained_net_with_json_metadata(self):
        dist = DistributionSpec.uniform_box(3)
        net = train(TrainConfig(d=3, arch=(4, 2), dist=dist, steps=20, seed=1)).net
        assert json.loads(net.metadata)["trained"] == "sgd"
        assert_serialize_matches_reference(net)

    def test_peak_memory_is_a_few_times_the_text(self):
        # json's indent encoder held about 10.7 times the text at its peak
        net = deep_max(64, 1e6, 2)
        tracemalloc.start()
        try:
            text = serialize(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), peak / len(text)


NONZERO_EDGE_FLOATS = [v for v in EDGE_FLOATS if np.float64(v).view(np.uint64)]


@st.composite
def csr_nets(draw):
    """A net whose first layer meets the storage rule: 512 x 512 weights,
    a few rows of which hold entries (the first of them exactly one) and
    the rest none, then a dense hidden layer and the output layer."""
    n = 512
    values = st.one_of(
        st.sampled_from(NONZERO_EDGE_FLOATS),
        # without +0.0, which is not stored: every drawn entry is one
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda v: np.float64(v).view(np.uint64)),
    )
    w = np.zeros((n, n))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    for i, r in enumerate(rows):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=1 if i == 0 else 6, unique=True))
        w[r, cols] = draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
    b = np.zeros(n)
    b[:3] = draw(st.lists(values, min_size=3, max_size=3))
    hidden = np.zeros((2, n))  # stored dense: 1024 weights are too few for CSR
    hidden[:, :3] = np.reshape(draw(st.lists(values, min_size=6, max_size=6)), (2, 3))
    net = FeedForwardNet(
        input_dim=n,
        layers=(
            AffineLayer(w, b),
            AffineLayer(hidden, draw(st.lists(values, min_size=2, max_size=2))),
            AffineLayer(np.array([draw(st.lists(values, min_size=2, max_size=2))]),
                        [draw(values)], apply_activation=False),
        ),
        metadata=draw(st.sampled_from(EDGE_TEXT)),
    )
    assert is_sparse(net.layers[0]) and not is_sparse(net.layers[1])
    per_row = np.diff(net.layers[0].matrix.indptr)
    assert (per_row == 0).any() and (per_row == 1).any()
    return net


SPARSE_CONSTRUCTIONS = {
    **{f"depth3-64-{a}": (lambda a=a: depth3_max(64, a)) for a in (0.5, 7.0, 1e6)},
    **{f"deep-256-2-{a}": (lambda a=a: deep_max(256, a, 2)) for a in (0.5, 7.0, 1e6)},
    **{f"deep-512-3-{a}": (lambda a=a: deep_max(512, a, 3)) for a in (0.5, 1e6)},
    "deep-1024-2-1e6": lambda: deep_max(1024, 1e6, 2),
}


def sparse_doc() -> dict:
    """The maxnet-ffn/2 document of a net whose first layer is stored
    sparse, with an empty row and row 7 holding entries at columns 3 and 9."""
    w = scattered((1024, 256), 60, seed=4)
    w[0] = 0.0
    w[7, 3], w[7, 9] = 1.5, -2.0
    net = FeedForwardNet(
        input_dim=256,
        layers=(AffineLayer(w, np.zeros(1024)),
                AffineLayer(np.ones((1, 1024)), np.zeros(1), apply_activation=False)),
    )
    doc = json.loads(serialize(net))
    assert doc["format"] == CSR_FORMAT_TAG and "indptr" in doc["layers"][0]
    return doc


def _set(key, i, value):
    def mutate(entry):
        entry[key][i] = value
    return mutate


def _row7(mutate):
    """Apply ``mutate(indices, p)`` to the first two entries of row 7."""
    return lambda entry: mutate(entry["indices"], entry["indptr"][7])


def _swap(indices, p):
    indices[p], indices[p + 1] = indices[p + 1], indices[p]


def _repeat(indices, p):
    indices[p + 1] = indices[p]


# one malformed value per check of a CSR entry: (field, mutation)
MALFORMED_CSR = {
    "shape-one-int": ("shape", lambda e: e.update(shape=[1024])),
    "shape-three-ints": ("shape", lambda e: e.update(shape=[1024, 256, 1])),
    "shape-negative": ("shape", _set("shape", 1, -1)),
    "shape-float": ("shape", _set("shape", 1, 256.0)),
    "shape-bool": ("shape", _set("shape", 0, True)),
    "shape-string": ("shape", lambda e: e.update(shape="1024x256")),
    "indptr-not-a-list": ("indptr", lambda e: e.update(indptr=0)),
    "indptr-bool": ("indptr", _set("indptr", 0, False)),
    "indptr-float": ("indptr", _set("indptr", 1, 0.0)),
    "indptr-short": ("indptr", lambda e: e["indptr"].pop()),
    "indptr-not-from-0": ("indptr", _set("indptr", 0, 1)),
    "indptr-decreasing": ("indptr", lambda e: e["indptr"].__setitem__(8, e["indptr"][7] - 1)),
    "indptr-not-to-nnz": ("indptr", lambda e: e["indptr"].__setitem__(-1, e["indptr"][-1] + 1)),
    "indptr-beyond-int64": ("indptr", _set("indptr", 500, 2**70)),
    "indices-bool": ("indices", _set("indices", 0, True)),
    "indices-float": ("indices", _set("indices", 0, 3.0)),
    "indices-negative": ("indices", _set("indices", 0, -1)),
    "indices-past-shape": ("indices", _set("indices", -1, 256)),
    "indices-beyond-int64": ("indices", _set("indices", 0, 2**70)),
    "indices-unsorted": ("indices", _row7(_swap)),
    "indices-repeated": ("indices", _row7(_repeat)),
    "values-short": ("values", lambda e: e["values"].pop()),
    "values-bool": ("values", _set("values", 0, True)),
    "values-string": ("values", _set("values", 0, "1.5")),
    "values-positive-zero": ("values", _set("values", 0, 0.0)),
    "values-integer-zero": ("values", _set("values", 0, 0)),
    "values-infinite": ("values", _set("values", 0, float("inf"))),
    "values-nan": ("values", _set("values", 0, float("nan"))),
    "values-beyond-float64": ("values", _set("values", 0, 10**400)),
}


@st.composite
def layer_weights(draw, size: str, form: str):
    """Weights of a layer that the storage rule keeps dense (``size``
    "small", or "crowded": 1024 x 256 with more entries than the rule lets
    a sparse layer hold) or sparse ("sparse"), given as a dense ndarray or
    as a scipy CSR array (``form``). Entries are drawn from the nonzero
    edge floats, -0.0 among them; the first and last rows may be empty, the
    matrix may hold none, and a CSR input may add explicit +0.0 entries."""
    shape = ((draw(st.integers(1, 6)), draw(st.integers(1, 6))) if size == "small"
             else (1024, 256))
    limit = int(SPARSE_MAX_DENSITY * shape[0] * shape[1])
    first = 1 if draw(st.booleans()) else 0  # 1: the first and last rows are empty
    places = max(0, shape[0] - 2 * first) * shape[1]
    nnz = draw({"small": st.integers(0, places), "sparse": st.integers(0, limit),
                "crowded": st.integers(limit + 1, 2 * limit)}[size])
    zeros = draw(st.integers(0, 3)) if form == "csr" else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = first * shape[1] + rng.choice(places, min(places, nnz + zeros), replace=False)
    values = rng.choice(NONZERO_EDGE_FLOATS, len(flat))
    values[nnz:] = 0.0  # explicit +0.0 entries beyond the first nnz
    if form == "csr":
        from scipy import sparse as sp
        return sp.csr_array((values, np.divmod(flat, shape[1])), shape=shape)
    w = np.zeros(shape)
    w.flat[flat] = values
    return w


class TestEntries:
    """matrix_entries gives a stored matrix's canonical CSR arrays, and
    matrix_from_csr stores them as the layer did."""

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("size", ["small", "sparse", "crowded"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_entries_rebuild_the_stored_arrays(self, size, form, data):
        weights = data.draw(layer_weights(size, form))
        m = AffineLayer(weights, np.zeros(weights.shape[0])).matrix
        assert isinstance(m, np.ndarray) == (size != "sparse")
        assert_same_matrix(m, network.matrix_from_csr(m.shape, *network.matrix_entries(m)))

    def test_entries_of_a_stored_csr_are_its_own_arrays(self):
        m = deep_max(256, 1e6, 2).layers[0].matrix
        indptr, indices, values = network.matrix_entries(m)
        assert indptr is m.indptr and indices is m.indices and values is m.data


class TestCsrFormat:
    """maxnet-ffn/2: every layer is written as the CSR arrays of its
    matrix, however it is stored."""

    @pytest.mark.parametrize("make", [
        lambda: depth3_max(64, 7.0), lambda: deep_max(256, 1e6, 2),
    ], ids=["depth3-64", "deep-256-2"])
    def test_constructions_match_json(self, make):
        assert_serialize_matches_reference(make())

    @settings(max_examples=40, deadline=None)
    @given(net=csr_nets())
    def test_random_csr_layers_match_json(self, net):
        assert_serialize_matches_reference(net)

    @pytest.mark.parametrize("name", SPARSE_CONSTRUCTIONS)
    def test_round_trip_is_bit_identical(self, name):
        net = SPARSE_CONSTRUCTIONS[name]()
        text = serialize(net)
        assert json.loads(text[:text.index(",")] + "}")["format"] == CSR_FORMAT_TAG
        assert_same_arrays(net, deserialize(text))

    def test_bytes_per_stored_weight(self):
        # json's indent=1 layout took 25.96 B per stored weight here
        net = deep_max(4096, 1e6, 4)
        stored = sum(network._values(layer.matrix).size for layer in net.layers)
        assert len(serialize(net)) <= 16 * stored

    def test_format_1_file_of_a_sparse_net_still_loads(self):
        net = deep_max(256, 1e6, 2)
        assert_same_arrays(net, deserialize(reference_serialize(net)))

    def test_dense_entry_of_a_sparse_layer_loads_sparse(self):
        net = deep_max(256, 1e6, 2)
        doc = json.loads(serialize(net))
        doc["layers"][0] = {"weights": net.layers[0].weights.tolist(),
                            **{k: v for k, v in doc["layers"][0].items()
                               if k in ("biases", "apply_activation")}}
        assert_same_arrays(net, deserialize(json.dumps(doc)))

    @pytest.mark.parametrize("case", MALFORMED_CSR)
    def test_malformed_field_is_located_parse_error(self, case):
        field, mutate = MALFORMED_CSR[case]
        doc = sparse_doc()
        deserialize(json.dumps(doc))
        mutate(doc["layers"][0])
        with pytest.raises(ParseError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.location == f"layers[0].{field}"

    @pytest.mark.parametrize("field", ["shape", "indptr", "indices", "values"])
    def test_missing_csr_field_is_parse_error(self, field):
        doc = sparse_doc()
        del doc["layers"][0][field]
        with pytest.raises(ParseError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.location == "layers[0]"

    def test_negative_zero_value_is_kept(self):
        doc = sparse_doc()
        doc["layers"][0]["values"][0] = -0.0
        m = deserialize(json.dumps(doc)).layers[0].matrix
        assert m.nnz == len(doc["layers"][0]["values"])
        assert m.data.view(np.uint64)[0] == np.float64(-0.0).view(np.uint64)

    def test_weights_never_densified(self, monkeypatch):
        net = deep_max(256, 1e6, 2)

        def dense_view(layer):
            raise AssertionError("a sparse layer was densified")
        monkeypatch.setattr(AffineLayer, "weights", property(dense_view))
        assert_same_arrays(net, deserialize(serialize(net)))

    def test_memory_of_the_round_trip(self):
        # as maxnet-ffn/1 the file took 587 MB and its round trip peaked at
        # 3.7 GB of RSS
        net = deep_max(1024, 1e6, 2)
        tracemalloc.start()
        try:
            text = serialize(net)
            serialize_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            clone = deserialize(text)
            deserialize_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert serialize_peak < 500e6 and deserialize_peak < 500e6, (
            serialize_peak, deserialize_peak)
        assert_same_arrays(net, clone)


def depth3_docs(field: str = "biases") -> list[dict]:
    """The documents of depth3_max(2, 10.0) in the layouts whose layers hold
    ``field``, among the two the reader takes: as serialize writes it, with
    CSR entries, and as maxnet-ffn/1, with ``weights`` rows."""
    net = depth3_max(2, 10.0)
    docs = [json.loads(serialize(net)), json.loads(reference_serialize(net))]
    return [doc for doc in docs if field in doc["layers"][0]]


class TestSerialization:
    def test_roundtrip_bit_exact_evaluation(self):
        net = depth3_max(3, 100.0)
        clone = deserialize(serialize(net))
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (1000, 3))
        np.testing.assert_array_equal(evaluate_batch(net, X), evaluate_batch(clone, X))

    def test_roundtrip_preserves_weights_exactly(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        clone = deserialize(serialize(net))
        for a, b in zip(net.layers, clone.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.biases, b.biases)

    def test_empty_document_is_parse_error(self):
        with pytest.raises(ParseError):
            deserialize("")

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            deserialize('{"input_dim": 1,')
        assert exc.value.location

    @pytest.mark.parametrize("tag", [None, "maxnet-ffn/3", "", 1])
    def test_missing_or_unknown_format_rejected(self, tag):
        for doc in depth3_docs():
            if tag is None:
                del doc["format"]
            else:
                doc["format"] = tag
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location in ("root", "format")

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None])
    def test_non_integer_input_dim_rejected(self, value):
        for doc in depth3_docs():
            doc["input_dim"] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == "input_dim"

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_bool_apply_activation_rejected(self, value):
        for doc in depth3_docs():
            doc["layers"][0]["apply_activation"] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == "layers[0].apply_activation"

    @pytest.mark.parametrize("field", ["weights", "biases", "apply_activation"])
    def test_missing_layer_field_is_parse_error(self, field):
        for doc in depth3_docs(field):
            del doc["layers"][1][field]
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == "layers[1]"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", "1e3"),
            ("weights", True),
            ("weights", None),
            ("weights", [0.5]),
            ("biases", True),
            ("biases", "0"),
            ("biases", [0.0]),
            *((field, value) for field in ("values", "indices")
              for value in ("1e3", True, None, [0.5], 10**400)),
        ],
        ids=lambda v: "10**400" if v == 10**400 else None,
    )
    def test_non_number_parameter_is_parse_error(self, field, value):
        for doc in depth3_docs(field):
            entry = doc["layers"][1]
            if field == "weights":
                entry["weights"][0][-1] = value
            else:
                entry[field][0] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == f"layers[1].{field}"

    @pytest.mark.parametrize(
        "field, value",
        [("weights", 1.0), ("weights", [1.0, 2.0]), ("weights", {}), ("biases", 0.0)],
    )
    def test_parameter_of_wrong_nesting_is_parse_error(self, field, value):
        for doc in depth3_docs(field):
            doc["layers"][0][field] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == f"layers[0].{field}"

    def test_integer_parameters_are_accepted(self):
        for doc in depth3_docs():
            doc["layers"][0]["biases"] = [0] * len(doc["layers"][0]["biases"])
            net = deserialize(json.dumps(doc))
            assert net.layers[0].biases.dtype == np.float64
            assert not net.layers[0].biases.any()

    def test_oversized_integer_is_validation_error(self):
        [doc] = depth3_docs("weights")
        doc["layers"][0]["weights"][0][0] = 10**400
        with pytest.raises(ValueError, match=r"layers\[0\]"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("value", [5, None, True, ["x"]])
    def test_non_string_metadata_is_parse_error(self, value):
        for doc in depth3_docs():
            doc["metadata"] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == "metadata"

    @pytest.mark.parametrize("value", [5, None, ["relu"], "softplus"])
    def test_non_string_activation_is_parse_error(self, value):
        for doc in depth3_docs():
            doc["activation"] = value
            with pytest.raises(ParseError) as exc:
                deserialize(json.dumps(doc))
            assert exc.value.location == "activation"

    def test_mismatched_widths_is_validation_error(self):
        for doc in depth3_docs():
            doc["input_dim"] = 3
            with pytest.raises(ValueError):
                deserialize(json.dumps(doc))


class TestProperties:
    @given(
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(1e-3, 1e3),
    )
    def test_positive_homogeneity_of_bias_free_nets(self, d, seed, c):
        # exact_max_tree has all-zero biases
        net = exact_max_tree(d)
        x = np.random.default_rng(seed).uniform(-10, 10, d)
        lhs = evaluate(net, c * x)
        rhs = c * evaluate(net, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
