"""Construction correctness: exactness on separated inputs, bounds, shapes.

The independent oracle for the depth-3 family is a direct scalar
transcription of the defining formula (sums of clipped terms), kept apart
from the layered matrix path it validates. The recursion's triplet
assembly is checked bit for bit against a dense reference that writes each
depth-3 block into a zeroed matrix, builds block-diagonal layers and merges
batch maxima by a matrix product.
"""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import maxnet
from maxnet import (
    AffineLayer,
    FeedForwardNet,
    alpha_for_accuracy,
    batch_split,
    beta,
    build_weight_graph,
    deep_max,
    deep_shape,
    depth3_max,
    depth3_shape,
    evaluate,
    evaluate_batch,
    exact_max_tree,
    find_triangle,
    is_delta_separated,
    max_k_for_width_bound,
    rescale_to_box,
    sample_separated,
    stats,
    DistributionSpec,
)
from maxnet.constructions import _ceil_root_pow
from maxnet.network import SPARSE_MIN_WEIGHTS, deserialize, serialize


def relu(t: float) -> float:
    return t if t > 0.0 else 0.0


def depth3_formula(x, alpha: float) -> float:
    """Scalar reference for the depth-3 construction, independent of the
    layered evaluation path."""
    d = len(x)
    total = 0.0
    for i in range(d):
        penalty = sum(relu(alpha * x[j] - alpha * x[i]) for j in range(d) if j != i)
        total += relu(relu(x[i]) - penalty) - relu(relu(-x[i]) - penalty)
    return total


def block_diag(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def dense_depth3(d: int, alpha: float):
    """Reference weight matrices of the depth-3 maximum of d inputs,
    written entry by entry into zeroed dense matrices."""
    w1 = np.zeros((d * (d + 1), d))
    w2 = np.zeros((2 * d, d * (d + 1)))
    for i in range(d):
        row = i * (d + 1)
        w1[row, i] = 1.0
        w1[row + 1, i] = -1.0
        offset = row + 2
        for j in range(d):
            if j != i:
                w1[offset, j] = alpha
                w1[offset, i] = -alpha
                offset += 1
        w2[2 * i, row] = w2[2 * i + 1, row + 1] = 1.0
        w2[2 * i : 2 * i + 2, row + 2 : row + d + 1] = -1.0
    w3 = np.zeros((1, 2 * d))
    w3[0, ::2] = 1.0
    w3[0, 1::2] = -1.0
    return w1, w2, w3


def dense_deep_layers(d: int, alpha: float, k: int):
    """Reference assembly of deep_max as (weights, biases) pairs: dense
    block-diagonal layers, and batch maxima merged into the inner first
    layer by a matrix product."""
    if k == 1:
        return [(w, np.zeros(w.shape[0])) for w in dense_depth3(d, alpha)]
    sizes = batch_split(d, k)
    blocks = [dense_depth3(s, alpha) for s in sizes]
    w1 = block_diag([b[0] for b in blocks])
    w2 = block_diag([b[1] for b in blocks])
    out_rows = block_diag([b[2] for b in blocks])  # batch maxima
    inner = dense_deep_layers(len(sizes), alpha, k - 1)
    return [
        (w1, np.zeros(w1.shape[0])),
        (w2, np.zeros(w2.shape[0])),
        (inner[0][0] @ out_rows, inner[0][1]),
        *inner[1:],
    ]


# (d, k, alpha) settings of the recursion, k = 2..4, with size-1 batches
# (d = 2, 3) and alpha below and above 1
DEEP_GRID = [
    (d, k, alpha)
    for d, k in [(2, 2), (3, 2), (5, 2), (9, 2), (16, 2), (16, 3), (32, 2), (58, 3),
                 (100, 3), (128, 4), (256, 2), (256, 4)]
    for alpha in (0.5, 7.0, 1e6)
]

# settings whose large layers are stored sparse
SPARSE_GRID = [(d, k, alpha) for d, k in [(256, 2), (512, 3), (1024, 2)]
               for alpha in (0.5, 7.0, 1e6)]


def csr_parts(layer):
    m = layer.matrix
    return m.indptr, m.indices, m.data.view(np.uint64)


def stored_bytes(net) -> int:
    """Bytes the net's layers hold: CSR data, indices and indptr or the
    dense matrix, plus the biases."""
    total = 0
    for layer in net.layers:
        m = layer.matrix
        parts = [m] if isinstance(m, np.ndarray) else [m.data, m.indices, m.indptr]
        total += sum(p.nbytes for p in parts) + layer.biases.nbytes
    return total


def loop_exact_tree(d: int):
    """(weights, biases) of each layer of exact_max_tree(d), written pair by
    pair from the current values v = C h + c: the reference for the triplet
    build, which must match it bit for bit once the reference's zeros, some
    of them -0.0 here, are mapped to +0.0."""
    layers = []
    C, c = np.eye(d), np.zeros(d)
    while len(C) > 1:
        n_pairs, odd = divmod(len(C), 2)
        rows, biases = [], []
        for p in range(n_pairs):
            a, b = 2 * p, 2 * p + 1
            rows += [C[a] - C[b], C[b], -C[b]]
            biases += [c[a] - c[b], c[b], -c[b]]
        if odd:
            rows += [C[-1], -C[-1]]
            biases += [c[-1], -c[-1]]
        layers.append((np.array(rows), np.array(biases)))
        C = np.zeros((n_pairs + odd, len(rows)))
        for p in range(n_pairs):
            C[p, 3 * p : 3 * p + 3] = (1.0, 1.0, -1.0)
        if odd:
            C[-1, -2:] = (1.0, -1.0)
        c = np.zeros(len(C))
    layers.append((C, c[:1]))
    return layers


def separated_rows(rng, n: int, d: int, delta: float, spread: float = 1e3):
    """Rows in [1/spread, 1) whose sorted neighbours differ by a factor of
    at least (1 + 3 delta), in shuffled order: geometric spacing reaches
    dimensions where rejection sampling cannot."""
    step = math.log1p(3.0 * delta)
    free = math.log(spread) - d * step
    w = rng.exponential(size=(n, d))
    w *= free / w.sum(axis=1, keepdims=True)
    logs = -np.cumsum(step + w, axis=1)
    order = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
    return np.exp(np.take_along_axis(logs, order, axis=1))


class TestBeta:
    def test_exact_values(self):
        assert beta(1) == 1
        assert beta(2) == Fraction(1, 3)
        assert beta(3) == Fraction(1, 7)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta(0)


class TestDepth3:
    def test_separated_pair(self):
        # ratios 0.5 and 2 are both outside [0.9, 1.1]
        assert evaluate(depth3_max(2, 10.0), [1.0, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_negative_maximum(self):
        assert evaluate(depth3_max(3, 100.0), [-1.0, -2.0, -3.0]) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_hand_evaluated_non_separated_point(self):
        # formula by hand: i=0 penalty 0.2 -> 0.1, i=1 penalty 0 -> 0.32
        x = [0.3, 0.32]
        net = depth3_max(2, 10.0)
        assert evaluate(net, x) == pytest.approx(0.42, abs=1e-12)
        assert evaluate(net, x) == pytest.approx(depth3_formula(x, 10.0), abs=1e-12)

    def test_tied_inputs_obey_l1_bound(self):
        val = evaluate(depth3_max(2, 10.0), [1.0, 1.0])
        assert -2.0 <= val <= 2.0

    def test_shape(self):
        for d in (2, 3, 7, 20):
            s = stats(depth3_max(d, 1e4))
            assert s.depth == 3
            assert s.width == d * (d + 1)
            assert [l.out_width for l in depth3_max(d, 1e4).hidden_layers] == depth3_shape(d)

    def test_max_abs_weight(self):
        assert stats(depth3_max(5, 1e4)).max_abs_weight == 1e4
        assert stats(depth3_max(5, 0.5)).max_abs_weight == 1.0

    @given(
        d=st.integers(2, 6),
        alpha=st.sampled_from([10.0, 1e3, 1e5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_formula_everywhere(self, d, alpha, seed):
        # includes ties, negatives, zeros: the net and the scalar formula
        # must agree on every input, separated or not
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, d)
        x[rng.integers(d)] = x[rng.integers(d)]  # force occasional ties
        expected = depth3_formula(x, alpha)
        assert evaluate(depth3_max(d, alpha), x) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("d", [2, 3, 8, 17, 32])
    @pytest.mark.parametrize("alpha", [1e2, 1e4, 1e6])
    def test_exact_on_separated_inputs(self, d, alpha):
        dist = DistributionSpec.uniform_box(d)
        X = sample_separated(dist, 1.0 / alpha, 2000, seed=d * 1000 + int(math.log10(alpha)))
        net = depth3_max(d, alpha)
        err = np.abs(evaluate_batch(net, X) - X.max(axis=1))
        tol = 1e-9 * np.maximum(1.0, alpha * np.abs(X).max(axis=1))
        assert np.all(err <= tol)

    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_l1_bound_everywhere(self, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, (200, d))
        X[:50] = np.round(X[:50], 1)  # plenty of ties
        net = depth3_max(d, 1e3)
        vals = np.abs(evaluate_batch(net, X))
        assert np.all(vals <= np.abs(X).sum(axis=1) + 1e-9)


class TestDeep:
    def test_k1_is_depth3(self):
        a, b = deep_max(58, 1e4, 1), depth3_max(58, 1e4)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_split_at_a_huge_k(self):
        # q = 2^64 - 1: the exact power d^(q-1) would never fit in memory,
        # and past q = d log2 d the root is d itself
        assert batch_split(4, 64) == [1, 1, 1, 1]
        for d in range(2, 65):
            for k in range(1, 11):
                q = 2**k - 1
                assert len(batch_split(d, k)) == _ceil_root_pow(d, q - 1, q), (d, k)

    def test_batching_arithmetic_d16_k2(self):
        # ceil(16^(1/3)) = 3 per batch, ceil(16^(2/3)) = 7 batches
        assert batch_split(16, 2) == [3, 3, 2, 2, 2, 2, 2]
        net = deep_max(16, 1e6, 2)
        assert stats(net).depth == 5
        x = np.arange(1, 17) / 16.0
        rng = np.random.default_rng(0)
        x = rng.permutation(x)
        assert is_delta_separated(x, 1e-6)
        assert evaluate(net, x) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d,k", [(4, 2), (9, 2), (16, 3), (32, 2)])
    def test_depth_and_exactness(self, d, k):
        net = deep_max(d, 1e5, k)
        assert stats(net).depth == 2 * k + 1
        dist = DistributionSpec.uniform_box(d)
        X = sample_separated(dist, 1e-5, 500, seed=d + k)
        err = np.abs(evaluate_batch(net, X) - X.max(axis=1))
        assert np.all(err <= 1e-9 * 1e5)

    @given(d=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_l1_bound(self, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-4, 4, (100, d))
        net = deep_max(d, 1e3, 2)
        assert np.all(np.abs(evaluate_batch(net, X)) <= np.abs(X).sum(axis=1) + 1e-9)

    def test_built_widths_match_shape_plan(self):
        for d, k in [(58, 2), (58, 3), (100, 2), (128, 3), (200, 2)]:
            net = deep_max(d, 10.0, k)
            assert [l.out_width for l in net.hidden_layers] == deep_shape(d, k)

    def test_width_bound_sampled(self):
        for d in (58, 64, 100, 256, 1000, 4096):
            for k in range(1, max_k_for_width_bound(d) + 1):
                width = max(deep_shape(d, k))
                assert width <= 20 * d ** (1 + float(beta(k)))
            k_top = max_k_for_width_bound(d)
            assert max(deep_shape(d, k_top)) <= 40 * d

    @pytest.mark.parametrize("d,k,alpha", DEEP_GRID)
    def test_assembly_matches_dense_reference(self, d, k, alpha):
        # uint64 views, so that a -0.0 where the reference has +0.0 fails
        net = deep_max(d, alpha, k)
        ref = dense_deep_layers(d, alpha, k)
        assert len(net.layers) == len(ref) == 2 * k + 1
        for layer, (w, b) in zip(net.layers, ref):
            assert layer.weights.shape == w.shape
            np.testing.assert_array_equal(layer.weights.view(np.uint64), w.view(np.uint64))
            np.testing.assert_array_equal(layer.biases.view(np.uint64), b.view(np.uint64))

    def test_merge_keeps_weight_magnitudes(self):
        # every merged weight is +- an inner weight
        for d, k, alpha in DEEP_GRID:
            assert stats(deep_max(d, alpha, k)).max_abs_weight == max(alpha, 1.0), (d, k, alpha)

    @pytest.mark.parametrize("d,k,alpha", SPARSE_GRID)
    def test_sparse_view_matches_dense_reference(self, d, k, alpha):
        net = deep_max(d, alpha, k)
        ref = dense_deep_layers(d, alpha, k)
        assert not isinstance(net.layers[0].matrix, np.ndarray)
        for layer, (w, b) in zip(net.layers, ref):
            view = layer.weights
            assert not view.flags.writeable
            np.testing.assert_array_equal(view.view(np.uint64), w.view(np.uint64))
            np.testing.assert_array_equal(layer.biases.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("d,k,alpha", SPARSE_GRID)
    def test_loaded_net_has_the_built_csr(self, d, k, alpha):
        net = deep_max(d, alpha, k)
        for built, loaded in zip(net.layers, deserialize(serialize(net)).layers):
            assert type(built.matrix) is type(loaded.matrix)
            if isinstance(built.matrix, np.ndarray):
                continue
            for a, b in zip(csr_parts(built), csr_parts(loaded)):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_storage_follows_the_rule(self):
        # (256, 2): the three large layers are sparse, the last two small
        net = deep_max(256, 1e6, 2)
        sizes = [l.in_width * l.out_width for l in net.layers]
        sparse = [not isinstance(l.matrix, np.ndarray) for l in net.layers]
        assert sparse == [n >= SPARSE_MIN_WEIGHTS for n in sizes] == [True] * 3 + [False] * 2
        assert all(isinstance(l.matrix, np.ndarray) for l in deep_max(32, 1e4, 2).layers)

    def test_paper_scale(self):
        # d = 65536 at k = ceil(log2(log2 d + 1)) = 5, where dense weights
        # would take about 699 GB
        d, alpha, k = 65536, 1e6, max_k_for_width_bound(65536)
        assert k == 5
        tracemalloc.start()
        try:
            net = deep_max(d, alpha, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        widths = [l.out_width for l in net.hidden_layers]
        assert widths == deep_shape(d, k) and max(widths) == 170492
        assert peak < 2**30, peak
        X = separated_rows(np.random.default_rng(65536), 16, d, 1.0 / alpha)
        assert all(is_delta_separated(x, 1.0 / alpha) for x in X)
        err = np.abs(evaluate_batch(net, X) - X.max(axis=1))
        assert err.max() <= 1e-9 * alpha, err.max()
        # the first layer's weight graph, where a d x d adjacency alone
        # would take 4.3 GB
        tracemalloc.start()
        try:
            g = build_weight_graph(net.layers[0])
            triangle = find_triangle(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n_edges, len(g.removed_by), triangle) == (2147431170, 19710, (0, 2, 4))
        assert peak < 64 * 2**20, peak

    def test_sparse_build_memory(self):
        # the dense layers of deep_max(1024, 1e6, 2) hold about 470 MB
        tracemalloc.start()
        try:
            deep_max(1024, 1e6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20, peak

    def test_build_memory_peak(self):
        # the build holds little beyond what the net stores: no dense
        # matrix of a sparse layer. Measured 1.93x, 1.95x and 1.57x the
        # stored bytes; the warm-up build pays the scipy.sparse import
        # outside the trace.
        for d, k in [(512, 2), (1024, 2), (2048, 3)]:
            deep_max(d, 1e6, k)
            tracemalloc.start()
            try:
                net = deep_max(d, 1e6, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * stored_bytes(net), (d, k, peak / stored_bytes(net))


class TestExactTree:
    def test_d1_identity(self):
        assert evaluate(exact_max_tree(1), [0.37]) == 0.37

    def test_d4(self):
        assert evaluate(exact_max_tree(4), [0.1, 0.9, 0.4, 0.2]) == pytest.approx(
            0.9, rel=1e-12
        )

    def test_d5_odd_padding_negative(self):
        assert evaluate(exact_max_tree(5), [-3, -1, -2, -5, -4]) == pytest.approx(
            -1.0, rel=1e-12
        )

    def test_depth_formula(self):
        for d in (1, 2, 3, 4, 7, 8, 9, 64, 100):
            assert stats(exact_max_tree(d)).depth == math.ceil(math.log2(d)) + 1

    def test_linear_size(self):
        for d in (8, 32, 128):
            assert stats(exact_max_tree(d)).size <= 8 * d

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 16, 31, 64, 128])
    def test_agrees_with_bruteforce(self, d):
        rng = np.random.default_rng(d)
        X = rng.uniform(-10, 10, (2000, d))
        X[:100] = X[:100, :1]  # all-equal rows
        X[100:200] += rng.uniform(-1e-12, 1e-12, (100, d))  # adversarial near-ties
        net = exact_max_tree(d)
        got = evaluate_batch(net, X)
        want = X.max(axis=1)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_assembly_matches_loop_reference(self):
        # from d = 419 the first layer meets the storage rule and is held as CSR
        for d in [*range(1, 70), 127, 128, 129, 418, 419, 420, 1000]:
            net = exact_max_tree(d)
            for layer, (w, b) in zip(net.layers, loop_exact_tree(d), strict=True):
                assert np.array_equal(layer.weights.view(np.uint64), (w + 0.0).view(np.uint64)), d
                assert np.array_equal(layer.biases.view(np.uint64), (b + 0.0).view(np.uint64)), d

    def test_large_layers_are_stored_sparse(self):
        assert isinstance(exact_max_tree(418).layers[0].matrix, np.ndarray)
        net = exact_max_tree(419)
        assert [isinstance(l.matrix, np.ndarray) for l in net.layers] == [False] + [True] * 9
        # 8192 nonzero weights in a first layer of 6144 x 4096
        assert stored_bytes(exact_max_tree(4096)) < 2 * 2**20

    def test_paper_scale(self):
        # a dense build's identity matrix alone would take 32 GiB at d = 65536
        d = 65536
        tracemalloc.start()
        try:
            net = exact_max_tree(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        s = stats(net)
        assert (s.depth, s.width) == (17, 98304) and s.size <= 8 * d
        rng = np.random.default_rng(d)
        X = np.vstack([rng.random((32, d)), rng.standard_normal((32, d))])
        err = np.abs(evaluate_batch(net, X) - X.max(axis=1))
        assert np.all(err <= 4 * 16 * 2.0**-53 * np.abs(X).max(axis=1))

    def test_not_bit_exact_even_on_nonnegative_inputs(self):
        net = exact_max_tree(2)
        assert evaluate(net, [768.0942222207374, 152.80892869647533]) == 768.0942222207373
        x = [0.0005910296557712952, -1.6194200987220926]
        assert abs(evaluate(net, x) - x[0]) == 988 * np.spacing(x[0])

    def test_rounding_bound(self):
        # |net - max| <= 4 ceil(log2 d) 2^-53 max_i |x_i|: each level rounds
        # a - b and then the sum of its units; the measured worst case is half
        # this bound
        for d in range(2, 131):
            rng = np.random.default_rng(d)
            X = np.vstack([
                rng.random((200, d)),
                rng.standard_normal((200, d)),
                rng.uniform(-1, 1, (200, d)) * 10.0 ** rng.uniform(-6, 6, (200, 1)),
                rng.choice([-1.0, 1.0], (200, d)) * 2.0 ** rng.uniform(-30, 30, (200, d)),
            ])
            err = np.abs(evaluate_batch(exact_max_tree(d), X) - X.max(axis=1))
            bound = 4 * math.ceil(math.log2(d)) * 2.0**-53 * np.abs(X).max(axis=1)
            assert np.all(err <= bound), d


def subnormal_net() -> FeedForwardNet:
    """A net whose sparse first layer holds +-5e-324, row 0 nothing else."""
    rng = np.random.default_rng(6)
    w = np.zeros((1024, 256))
    w.flat[rng.choice(w.size, 200, replace=False)] = rng.standard_normal(200)
    w[0] = 0.0
    w[0, 3] = w[5, 9] = w[1023, 255] = 5e-324
    w[7, 2] = -5e-324
    return FeedForwardNet(256, (AffineLayer(w, np.zeros(1024)),
                                AffineLayer(np.ones((1, 1024)), np.zeros(1),
                                            apply_activation=False)))


class TestRescale:
    def test_identity_rescale_is_weight_identical(self):
        net = depth3_max(3, 100.0)
        same = rescale_to_box(net, 0.0, 1.0)
        for a, b in zip(net.layers, same.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.biases, b.biases)

    def test_separated_point_on_shifted_box(self):
        net = rescale_to_box(depth3_max(3, 1e4), 0.0, 8.0)
        assert evaluate(net, [7.0, 2.0, 4.0]) == pytest.approx(7.0, abs=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), R=st.floats(0.5, 8))
    def test_conjugation_identity(self, seed, a, R):
        rng = np.random.default_rng(seed)
        net = depth3_max(3, 50.0)
        scaled = rescale_to_box(net, a, R)
        x = a + R * rng.random(3)
        want = R * evaluate(net, (x - a) / R) + a
        assert evaluate(scaled, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_tree_rescaled_still_exact(self):
        net = rescale_to_box(exact_max_tree(4), -2.0, 5.0)
        rng = np.random.default_rng(0)
        X = -2.0 + 5.0 * rng.random((500, 4))
        np.testing.assert_allclose(evaluate_batch(net, X), X.max(axis=1), rtol=1e-12)

    def test_bad_R(self):
        with pytest.raises(ValueError):
            rescale_to_box(exact_max_tree(2), 0.0, -1.0)

    @staticmethod
    def dense_rescale(net, a, R):
        """The rescaled net built from the dense weights."""
        layers = list(net.layers)
        first = layers[0]
        layers[0] = AffineLayer(first.weights / R,
                                first.biases - (a / R) * first.weights.sum(axis=1),
                                first.apply_activation)
        last = layers[-1]
        layers[-1] = AffineLayer(R * last.weights, R * last.biases + a, apply_activation=False)
        return FeedForwardNet(net.input_dim, tuple(layers),
                              f"{net.metadata} | rescaled to [{a!r}, {a + R!r}]^d")

    @pytest.mark.parametrize("build", [
        lambda: depth3_max(8, 1e3), lambda: depth3_max(64, 1e4),
        lambda: deep_max(256, 1e6, 2), lambda: deep_max(256, 1e6, 3),
        lambda: deep_max(1024, 1e6, 2), lambda: exact_max_tree(1), lambda: exact_max_tree(5),
        lambda: subnormal_net(),
    ])
    def test_stored_values_match_a_dense_rescale(self, build):
        # sparse layers are scaled in their stored values; R = 7 is a scale
        # whose reciprocal would round differently, and R = 3 and 7 take
        # 5e-324 to +0.0, which the rescaled layer must drop
        net = build()
        for a, R in [(0.0, 1.0), (-0.5, 3.0), (2.5, 7.0), (1e-3, 0.3)]:
            assert serialize(rescale_to_box(net, a, R)) == serialize(self.dense_rescale(net, a, R))

    def test_sparse_layer_is_not_built_dense(self):
        # the first layer of deep_max(1024, ., 2) takes 88 MiB dense
        net = deep_max(1024, 1e6, 2)
        tracemalloc.start()
        try:
            rescale_to_box(net, -0.5, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDepthWidthTable:
    def test_rows_match_the_built_nets(self):
        script = Path(__file__).parents[1] / "scripts" / "depth_width_table.py"
        src = str(Path(maxnet.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        dims = [2, 3, 7, 58, 64, 129]
        out = subprocess.run([sys.executable, str(script), "--dims", ",".join(map(str, dims))],
                             env=env, capture_output=True, text=True, check=True).stdout
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["d", "construction", "k", "depth", "width", "width_bound",
                           "hidden_neurons"]
        # per d: the tree, then k = 1 .. max_k_for_width_bound(d)
        assert len(rows) == 1 + sum(max_k_for_width_bound(d) + 1 for d in dims)
        for d, kind, k, depth, width, _, hidden in rows[1:]:
            d = int(d)
            if kind == "exact_tree":
                net = exact_max_tree(d)
            else:
                net = deep_max(d, 1.0, int(k))
            s = stats(net)
            assert (int(depth), int(width)) == (s.depth, s.width), (d, kind, k)
            assert int(hidden) == s.size - 1, (d, kind, k)


class TestAlphaForAccuracy:
    def test_explicit_values(self):
        assert alpha_for_accuracy(2, 1.0, 0.01) == pytest.approx(7200.0)
        # 2 * 16 * 25 * 4 / 0.1
        assert alpha_for_accuracy(4, 2.0, 0.1) == pytest.approx(32000.0)

    def test_linear_in_inverse_epsilon(self):
        assert alpha_for_accuracy(3, 1.0, 0.005) == pytest.approx(
            2 * alpha_for_accuracy(3, 1.0, 0.01)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_for_accuracy(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            alpha_for_accuracy(4, -1.0, 0.1)

    @pytest.mark.parametrize("R,epsilon", [(1.0, math.inf), (math.inf, 1.0),
                                           (1.0, math.nan), (math.nan, 1.0)])
    def test_non_finite_R_or_epsilon_is_named(self, R, epsilon):
        with pytest.raises(ValueError, match="R and epsilon must be positive and finite"):
            alpha_for_accuracy(4, R, epsilon)


class TestNumericSupportLemmas:
    def test_squared_product_stays_below_twenty(self):
        i = np.arange(1, 1001)
        assert np.prod((1 + 2 / i**3) ** 2) <= 20.0

    def test_batch_exponent_inequality(self):
        # 1 <= 2 d^(1-beta(k+1)) / (k+1)^3 across the valid (d, k) range
        ds = [*range(58, 400), 1000, 4096, 10**5, 10**6]
        for d in ds:
            for k in range(1, max_k_for_width_bound(d) + 1):
                lhs = 2 * d ** (1 - float(beta(k + 1))) / (k + 1) ** 3
                assert lhs >= 1.0, (d, k)


class TestDomainErrors:
    def test_depth3_small_d(self):
        with pytest.raises(ValueError):
            depth3_max(1, 10.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            depth3_max(3, 0.0)
        with pytest.raises(ValueError):
            deep_max(8, -2.0, 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            deep_max(8, 10.0, 0)
