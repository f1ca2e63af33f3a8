"""Weight-graph edge removal, triangle detection, kernel floors.

The triangle oracle is trace(A^3) > 0, an algebraically independent route
from the neighbor-intersection search it validates. Vertex labels are
0-based throughout.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from maxnet import (
    AffineLayer,
    FeedForwardNet,
    WeightGraph,
    build_parallelotope,
    build_weight_graph,
    deep_max,
    depth3_max,
    error_floor,
    evaluate,
    evaluate_batch,
    find_triangle,
    kernel_direction,
    mantel_edge_threshold,
    parallelotope_floor,
    parallelotope_floors,
)
from maxnet import analysis
from maxnet.analysis import kernel_constancy_deviation
from weight_graphs import adjacency_of, graph_of


def has_triangle_bruteforce(adj: np.ndarray) -> bool:
    A = adj.astype(np.int64)
    return np.trace(A @ A @ A) > 0


def det_formula(para) -> float:
    """|det P| = (1/d) (1 - 2/d)^(d-1) v1, from the parallelotope's layout."""
    d = para.d
    return (1.0 / d) * (1.0 - 2.0 / d) ** (d - 1) * para.v1


def target_values(para, X: np.ndarray) -> np.ndarray:
    """max over the image point, which is its first permuted coordinate:
    1 - 1/d + v1 x1 / d."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = para.d
    return 1.0 - 1.0 / d + para.v1 * X[:, 0] / d


def random_graph(rng, d: int, p: float) -> WeightGraph:
    upper = np.triu(rng.random((d, d)) < p, 1)
    return graph_of(upper | upper.T)


def narrow_net(rng, d: int, first_width: int, deep: bool = False) -> FeedForwardNet:
    widths = [first_width, 2 * first_width] if deep else [first_width]
    dims = [d, *widths, 1]
    layers = [
        AffineLayer(rng.standard_normal((o, i)), rng.standard_normal(o))
        for i, o in zip(dims[:-1], dims[1:])
    ]
    last = layers[-1]
    layers[-1] = AffineLayer(last.weights, last.biases, apply_activation=False)
    return FeedForwardNet(input_dim=d, layers=tuple(layers))


def strict_top_pair(absw: np.ndarray) -> tuple[int, int] | None:
    """The reference rule on one dense row of magnitudes: the two strictly
    largest coordinates, or None when the second is 0 or a third ties it."""
    order = np.argsort(-absw, kind="stable")
    j1, j2 = int(order[0]), int(order[1])
    if absw[j2] <= 0.0:
        return None
    if absw.size > 2 and absw[int(order[2])] >= absw[j2]:
        return None
    return (j1, j2) if j1 < j2 else (j2, j1)


def reference_graph(W: np.ndarray) -> tuple[np.ndarray, dict]:
    """Adjacency and removed_by of a dense W, one row at a time."""
    d = W.shape[1]
    adj = ~np.eye(d, dtype=bool)
    removed: dict[tuple[int, int], list[int]] = {}
    for m, row in enumerate(np.abs(W)):
        if d < 2:
            break
        pair = strict_top_pair(row)
        if pair is None:
            continue
        adj[pair] = adj[pair[::-1]] = False
        removed.setdefault(pair, []).append(m)
    return adj, {edge: tuple(ms) for edge, ms in removed.items()}


def assert_reference_graph(g: WeightGraph, W: np.ndarray) -> None:
    adj, removed = reference_graph(W)
    np.testing.assert_array_equal(adjacency_of(g), adj)
    assert list(g.removed_by.items()) == list(removed.items())  # order too


TIE_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]


FIG3_WEIGHTS = np.array(
    [
        [0, 0, 1, -1],
        [0, -1, 0, 1],
        [0, 1, 0, -1],
    ],
    dtype=float,
)


class TestWeightGraph:
    def test_three_neuron_example(self):
        g = build_weight_graph(FIG3_WEIGHTS)
        # neuron 0 removes the pair on coordinates {2, 3}; neurons 1 and 2
        # both remove {1, 3}; four of the six edges remain
        assert set(g.removed_by) == {(2, 3), (1, 3)}
        assert g.removed_by[(2, 3)] == (0,)
        assert g.removed_by[(1, 3)] == (1, 2)
        assert g.n_edges == 4
        assert set(g.edges()) == {(0, 1), (0, 2), (0, 3), (1, 2)}

    def test_all_zero_layer_keeps_complete_graph(self):
        g = build_weight_graph(np.zeros((5, 4)))
        assert g.n_edges == 6 and not g.removed_by

    def test_single_neuron_d2(self):
        g = build_weight_graph(np.array([[1.0, 2.0]]))
        assert g.n_edges == 0
        assert g.removed_by == {(0, 1): (0,)}

    def test_second_place_tie_removes_nothing(self):
        g = build_weight_graph(np.array([[3.0, 1.0, 1.0, 0.0]]))
        assert g.n_edges == 6

    def test_equal_magnitude_pair_still_removes(self):
        g = build_weight_graph(np.array([[0.0, 1.0, -1.0]]))
        assert (1, 2) in g.removed_by

    def test_each_neuron_removes_at_most_one_edge(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, d * d // 5 + 1))
            W = rng.standard_normal((k, d))
            g = build_weight_graph(W)
            assert g.n_edges >= d * (d - 1) // 2 - k

    def test_depth3_first_layer_removes_every_pair(self):
        g = build_weight_graph(depth3_max(4, 100.0).layers[0])
        assert g.n_edges == 0
        assert find_triangle(g) is None

    @pytest.mark.parametrize("make,n_edges,n_removed,triangle", [
        (lambda: depth3_max(8, 1e6), 0, 28, None),
        (lambda: depth3_max(32, 1e6), 0, 496, None),
        (lambda: deep_max(64, 1e6, 2), 1920, 96, (0, 4, 8)),
    ], ids=["depth3_8", "depth3_32", "deep_64_2"])
    def test_construction_graphs(self, make, n_edges, n_removed, triangle):
        g = build_weight_graph(make().layers[0])
        assert g.n_edges == n_edges
        assert len(g.removed_by) == n_removed
        assert find_triangle(g) == triangle

    def test_graph_is_its_removed_edges(self):
        g = WeightGraph(d=4, removed_by={(0, 1): (), (2, 3): (5,)})
        assert g.n_edges == 4
        assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert g.neighbours(0).tolist() == [False, False, True, True]
        assert find_triangle(g) is None  # the 4-cycle 0-2-1-3
        assert WeightGraph(d=3).edges() == [(0, 1), (0, 2), (1, 2)]

    def test_removed_by_is_read_only(self):
        g = WeightGraph(d=3)
        with pytest.raises(TypeError):
            g.removed_by[(0, 1)] = ()
        assert g.n_edges == 3 and g.neighbours(0).tolist() == [False, True, True]

    def test_mutating_the_given_mapping_leaves_the_graph(self):
        removed = {(0, 1): (4,)}
        g = WeightGraph(d=3, removed_by=removed)
        removed[(1, 2)] = ()
        del removed[(0, 1)]
        assert g.removed_by == {(0, 1): (4,)}
        assert g.n_edges == 2 and g.edges() == [(0, 2), (1, 2)]

    def test_adjacency_round_trip(self):
        rng = np.random.default_rng(20)
        for d in range(0, 25):
            upper = np.triu(rng.random((d, d)) < rng.random(), 1)
            adj = upper | upper.T
            np.testing.assert_array_equal(adjacency_of(graph_of(adj)), adj)

    @pytest.mark.parametrize("key", [(1, 0), (2, 2), (-1, 2), (0, 4), (3, 5), (0, 1, 2)],
                             ids=str)
    def test_malformed_keys_are_rejected(self, key):
        with pytest.raises(ValueError, match="pairs 0 <= i < j < d"):
            WeightGraph(d=4, removed_by={(0, 1): (), key: ()})


class TestWeightGraphReference:
    """The rule on stored entries against the per-row reference on W."""

    @given(W=hnp.arrays(np.float64,
                        st.tuples(st.integers(0, 12), st.integers(0, 8)),
                        elements=st.sampled_from(TIE_VALUES)))
    def test_small_dense_layers(self, W):
        assert_reference_graph(build_weight_graph(W), W)
        layer = AffineLayer(W, np.zeros(W.shape[0]))
        assert_reference_graph(build_weight_graph(layer), W)

    def test_layers_stored_sparse(self):
        rng = np.random.default_rng(19)
        k, d = 4096, 128  # 2^19 weights, about 2.8 per row
        for values in (np.array(TIE_VALUES[1:]), None):
            W = np.zeros((k, d))
            for m, count in enumerate(rng.choice([0, 1, 2, 3, 4, 7], k)):
                cols = rng.choice(d, count, replace=False)
                W[m, cols] = (rng.choice(values, count) if values is not None
                              else rng.standard_normal(count))
            layer = AffineLayer(W, np.zeros(k))
            assert not isinstance(layer.matrix, np.ndarray)
            if values is not None:  # ties and stored -0.0 are there
                negzero = np.signbit(layer.matrix.data) & (layer.matrix.data == 0)
                assert negzero.any()
            g = build_weight_graph(layer)
            assert g.removed_by
            assert_reference_graph(g, W)

    @pytest.mark.parametrize("make", [lambda: depth3_max(64, 1e6),
                                      lambda: deep_max(256, 1e6, 2),
                                      lambda: deep_max(1024, 1e6, 2)])
    def test_construction_first_layers(self, make):
        first = make().layers[0]
        assert_reference_graph(build_weight_graph(first), first.weights)

    def test_layer_is_not_densified(self, monkeypatch):
        layers = [depth3_max(8, 10.0).layers[0], deep_max(256, 1e6, 2).layers[0]]
        want = [build_weight_graph(layer) for layer in layers]

        def dense_view(layer):
            raise AssertionError("the first layer was densified")
        monkeypatch.setattr(AffineLayer, "weights", property(dense_view))
        for layer, g in zip(layers, want):
            got = build_weight_graph(layer)
            np.testing.assert_array_equal(adjacency_of(got), adjacency_of(g))
            assert got.removed_by == g.removed_by

    def test_memory_of_a_sparse_first_layer(self):
        # building the dense view and its |W| peaked at 180 MiB
        first = deep_max(1024, 1e6, 2).layers[0]
        tracemalloc.start()
        try:
            build_weight_graph(first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_memory_without_a_d_by_d_adjacency(self):
        # a dense d x d adjacency and its symmetry check peaked at 520.6 MiB
        first = deep_max(16384, 1e6, 4).layers[0]
        tracemalloc.start()
        try:
            g = build_weight_graph(first)
            triangle = find_triangle(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n_edges, len(g.removed_by), triangle) == (134201732, 7804, (0, 2, 4))
        assert peak < 32 * 2**20, peak


class TestMantel:
    def test_complete_triangle(self):
        g = graph_of(~np.eye(3, dtype=bool))
        assert find_triangle(g) == (0, 1, 2)

    def test_four_cycle_at_threshold_has_none(self):
        adj = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            adj[i, j] = adj[j, i] = True
        g = graph_of(adj)
        assert g.n_edges == 4 == mantel_edge_threshold(4)
        assert find_triangle(g) is None

    def test_balanced_bipartite_extremal_graph_is_triangle_free(self):
        for d in range(2, 31):
            left = d // 2
            adj = np.zeros((d, d), dtype=bool)
            adj[:left, left:] = True
            adj |= adj.T
            g = graph_of(adj)
            assert g.n_edges == (d * d) // 4
            assert find_triangle(g) is None
            assert not has_triangle_bruteforce(adj)

    def test_random_graphs_against_bruteforce(self):
        rng = np.random.default_rng(42)
        over_threshold = 0
        for _ in range(400):
            d = int(rng.integers(3, 31))
            g = random_graph(rng, d, float(rng.random()))
            adj = adjacency_of(g)
            assert g.n_edges == int(adj.sum()) // 2
            assert g.edges() == list(zip(*(a.tolist() for a in np.nonzero(np.triu(adj, 1)))))
            tri = find_triangle(g)
            assert (tri is not None) == has_triangle_bruteforce(adj)
            if tri is not None:
                i, j, k = tri
                assert adj[i, j] and adj[j, k] and adj[i, k]
            if g.n_edges > mantel_edge_threshold(d):
                over_threshold += 1
                assert tri is not None
        assert over_threshold > 50

    def test_lexicographic_tie_break(self):
        adj = np.zeros((5, 5), dtype=bool)
        for i, j in [(0, 3), (0, 4), (3, 4), (0, 1), (1, 2), (0, 2)]:
            adj[i, j] = adj[j, i] = True
        g = graph_of(adj)
        assert find_triangle(g) == (0, 1, 2)

    def test_narrow_layer_forces_triangle_for_d_at_least_11(self):
        # binom(d,2) - floor(d^2/5) > d^2/4 holds from d = 11 on (at 9 and
        # 10 the integer counts miss the strict threshold by a hair)
        for d in range(11, 200):
            assert d * (d - 1) // 2 - (d * d) // 5 > d * d / 4.0
        rng = np.random.default_rng(7)
        for d in (11, 16, 24):
            W = rng.standard_normal((d * d // 5, d))
            g = build_weight_graph(W)
            assert g.n_edges > mantel_edge_threshold(d)
            assert find_triangle(g) is not None


def loop_null_vector(W: np.ndarray, tol: float) -> np.ndarray:
    """The reference elimination: index lists, and one row update at a
    time, skipping rows whose pivot-column entry is +-0.0."""
    A = W.astype(np.float64)
    k, d = A.shape
    pivot_cols, pivot_rows, free_rows = [], [], list(range(k))
    for _ in range(min(k, d)):
        cols = [c for c in range(d) if c not in pivot_cols]
        sub = np.abs(A[free_rows][:, cols])
        if sub.size == 0 or sub.max() <= tol:
            break
        ri, ci = divmod(int(np.argmax(sub)), sub.shape[1])
        row, col = free_rows[ri], cols[ci]
        A[row] /= A[row, col]
        for r in range(k):
            if r != row and A[r, col] != 0.0:
                A[r] -= A[r, col] * A[row]
        pivot_rows.append(row)
        pivot_cols.append(col)
        free_rows.remove(row)
    f = next(c for c in range(d) if c not in pivot_cols)
    v = np.zeros(d)
    v[f] = 1.0
    for row, col in zip(pivot_rows, pivot_cols):
        v[col] = -A[row, f]
    return v


class TestKernelDirection:
    def test_elimination_matches_the_row_loop(self):
        rng = np.random.default_rng(13)
        for t in range(600):
            d = int(rng.integers(2, 12))
            k = int(rng.integers(1, d))
            W = [rng.standard_normal((k, d)),
                 rng.integers(-3, 4, (k, d)).astype(float),
                 rng.standard_normal((k, 1)) * rng.standard_normal((1, d)),
                 rng.choice(TIE_VALUES, (k, d))][t % 4]
            tol = analysis.RANK_TOL * max(float(np.abs(W).max()), 1.0)
            got = analysis._eliminate_null_vector(W, tol)
            assert got.view(np.uint64).tolist() == loop_null_vector(W, tol).view(np.uint64).tolist()

    def test_hand_null_space(self):
        kd = kernel_direction(np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(kd.v, [2**-0.5, 2**-0.5], atol=1e-12)
        assert kd.v1 == pytest.approx(2**-0.5)

    def test_zero_matrix_canonicalizes_to_e1(self):
        kd = kernel_direction(np.zeros((2, 4)))
        np.testing.assert_array_equal(kd.v, [1.0, 0.0, 0.0, 0.0])
        assert kd.perm == (0, 1, 2, 3)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_residual_is_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((5, 8))
        kd = kernel_direction(W)
        assert np.abs(W @ kd.v).max() <= 1e-9 * np.abs(W).max()
        assert np.linalg.norm(kd.v) == pytest.approx(1.0, rel=1e-12)
        assert kd.v1 >= 8**-0.5

    def test_rank_deficient_rows(self):
        W = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        kd = kernel_direction(W)
        assert np.abs(W @ kd.v).max() <= 1e-9 * 6.0

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            kernel_direction(np.ones((3, 3)))

    def test_layer_rejected(self):
        # the weights only: a layer's dense view is built by the caller,
        # after its width check, never here
        layer = AffineLayer(np.array([[1.0, -1.0, 0.0]]), [0.0])
        with pytest.raises(ValueError, match="weight matrix"):
            kernel_direction(layer)
        assert kernel_direction(layer.weights).v1 == pytest.approx(2**-0.5)

    def test_nearly_dependent_rows_keep_their_kernel(self):
        # rows dependent only to 1e-7 relative are of full rank at RANK_TOL
        # = 1e-10, so the direction must be the kernel of both rows: the
        # normal of their plane. A rank tolerance near 1e-7 would drop the
        # second row and return a vector only the first row annihilates.
        r1 = np.array([1.0, 2.0, 3.0])
        W = np.array([r1, r1 + 1e-7 * np.array([0.0, 1.0, -1.0])])
        kd = kernel_direction(W)
        normal = np.cross(W[0], W[1])
        normal *= np.sign(normal[np.argmax(np.abs(normal))]) / np.linalg.norm(normal)
        assert np.abs(W @ kd.v).max() <= 1e-15 * 3.0
        np.testing.assert_allclose(kd.v, normal, atol=1e-8)

    def test_bad_elimination_is_arithmetic_error(self, monkeypatch):
        # a vector that W does not annihilate must not come out as the kernel
        monkeypatch.setattr(analysis, "_eliminate_null_vector",
                            lambda W, tol: np.ones(W.shape[1]))
        with pytest.raises(ArithmeticError, match="kernel vector"):
            kernel_direction(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


class TestParallelotope:
    @pytest.mark.parametrize("d", [3, 4, 8, 16, 64])
    def test_containment(self, d):
        rng = np.random.default_rng(d)
        kd = kernel_direction(rng.standard_normal((d - 1, d)))
        para = build_parallelotope(kd)
        X = rng.random((10_000, d))
        U = para.apply(X)
        assert U.min() >= 0.0 and U.max() <= 1.0

    def test_determinant_formula(self):
        rng = np.random.default_rng(1)
        for d in (3, 5, 10):
            kd = kernel_direction(rng.standard_normal((d - 2, d)))
            para = build_parallelotope(kd)
            assert para.det_abs() == pytest.approx(det_formula(para), rel=1e-12)
            # direct determinant of the full map agrees
            assert abs(np.linalg.det(para.P)) == pytest.approx(
                det_formula(para), rel=1e-12
            )

    def test_image_max_is_first_permuted_coordinate(self):
        rng = np.random.default_rng(2)
        d = 6
        kd = kernel_direction(rng.standard_normal((3, d)))
        para = build_parallelotope(kd)
        X = rng.random((2_000, d))
        U = para.apply(X)
        np.testing.assert_allclose(U.max(axis=1), target_values(para, X), rtol=1e-12)


class TestKernelConstancy:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_constant_along_kernel_direction(self, seed):
        rng = np.random.default_rng(seed)
        d = 5
        net = narrow_net(rng, d, first_width=3)
        kd = kernel_direction(net.layers[0].weights)
        x = rng.random(d)
        ts = np.linspace(-0.1, 0.1, 21)
        vals = evaluate_batch(net, x[None, :] + ts[:, None] * kd.v[None, :])
        assert vals.max() - vals.min() <= 1e-9


class TestParallelotopeFloor:
    def test_random_two_neuron_net_d3(self):
        rng = np.random.default_rng(3)
        net = narrow_net(rng, 3, first_width=2)
        report = parallelotope_floor(net, n=100_000, seed=5)
        assert report.floor == pytest.approx(1.0 / (120 * 3**4.5), rel=1e-12)
        assert report.constancy_deviation <= 1e-9
        assert report.floor_respected

    def test_constant_predictor_d4(self):
        net = FeedForwardNet(
            input_dim=4,
            layers=(
                AffineLayer(np.zeros((1, 4)), np.array([1.0])),
                AffineLayer(np.array([[0.75]]), np.array([0.0]), apply_activation=False),
            ),
        )
        report = parallelotope_floor(net, n=200_000, seed=6)
        assert report.empirical.mean_sq_error == pytest.approx(0.0292, abs=2e-3)
        assert report.empirical.mean_sq_error >= error_floor(4)
        assert report.floor_respected

    def test_many_nets_match_one_net_calls(self):
        rng = np.random.default_rng(11)
        d = 6
        nets = [narrow_net(rng, d, first_width=w, deep=w % 2 == 0) for w in (1, 2, 3, 5)]
        got = parallelotope_floors(nets, n=40_000, seed=12)
        want = [parallelotope_floor(net, n=40_000, seed=12) for net in nets]
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.empirical == w.empirical
            assert g.constancy_deviation == w.constancy_deviation
            assert g.floor == w.floor and g.floor_respected == w.floor_respected
            assert g.parallelotope.perm == w.parallelotope.perm
            np.testing.assert_array_equal(g.parallelotope.P, w.parallelotope.P)
        with pytest.raises(ValueError):
            parallelotope_floors([], n=1000)
        with pytest.raises(ValueError):
            parallelotope_floors([nets[0], narrow_net(rng, 5, first_width=2)], n=1000)

    def test_negative_seed_is_named(self):
        net = narrow_net(np.random.default_rng(5), 3, first_width=2)
        for call in (parallelotope_floor, lambda net, **kw: parallelotope_floors([net], **kw)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                call(net, n=1000, seed=-1)

    def test_floor_value(self):
        assert error_floor(3) == pytest.approx(5.94e-5, rel=2e-3)

    def test_variation_along_the_kernel_is_refused(self):
        # the rows differ by 1e-11 relative, below RANK_TOL, so the kernel
        # direction is that of the first row alone and the second neuron
        # moves along it; an output weight of about 1e6 makes the net vary
        # by about 1e-6 there, which CONSTANCY_TOL = 1e-9 must refuse
        r1 = np.array([1.0, 2.0, 3.0])
        W = np.array([r1, r1 + 1e-11 * np.array([0.0, 1.0, -1.0])])
        net = FeedForwardNet(
            input_dim=3,
            layers=(
                AffineLayer(W, np.array([10.0, 10.0])),
                AffineLayer(np.array([[-1e6, 1e6]]), np.array([0.0]), apply_activation=False),
            ),
        )
        dev = kernel_constancy_deviation(net, build_parallelotope(kernel_direction(W)))
        assert 1e-7 < dev < 1e-5
        with pytest.raises(ArithmeticError, match="varies by"):
            parallelotope_floor(net, n=1000)

    def test_wide_first_layer_rejected(self):
        rng = np.random.default_rng(4)
        net = narrow_net(rng, 3, first_width=3)
        with pytest.raises(ValueError):
            parallelotope_floor(net, n=1000)

    def test_deviation_helper_reports_tiny_values(self):
        rng = np.random.default_rng(8)
        net = narrow_net(rng, 4, first_width=2, deep=True)
        kd = kernel_direction(net.layers[0].weights)
        para = build_parallelotope(kd)
        assert kernel_constancy_deviation(net, para) <= 1e-9
