"""Structural lower-bound diagnostics: first-layer weight graphs with
triangle detection, and the narrow-first-layer parallelotope error floor.

The weight graph starts complete on the d input coordinates and loses edge
(j1, j2) whenever some first-layer neuron's two strictly largest-magnitude
weights sit exactly on {j1, j2}: such a neuron can capture the kink where
one coordinate overtakes the other. Any graph on d vertices with more than
d^2/4 edges contains a triangle (Mantel), so narrow first layers leave a
triangle of coordinate pairs whose kinks no neuron captures.

A first hidden layer with at most d-1 neurons has a nontrivial kernel
direction v; the network is constant along v, while the maximum is not.
Pushing the unit cube through a parallelotope aligned with v yields the
explicit mean squared error floor 1/(120 d^4.5) over uniform [0,1]^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .network import AffineLayer, FeedForwardNet, evaluate_batch, matrix_entries
from .sampling import DistributionSpec, ErrorEstimate, mc_l2_errors, row_max

FLOOR_COEFF = 120.0  # mse >= 1 / (FLOOR_COEFF * d^4.5)
RANK_TOL = 1e-10  # kernel_direction's rank tolerance, relative to max|W|
CONSTANCY_LINES = 8  # kernel-axis lines that kernel_constancy_deviation probes
CONSTANCY_GRID = 21  # points per line
CONSTANCY_TOL = 1e-9  # largest variation along the kernel parallelotope_floor accepts


@dataclass(frozen=True)
class WeightGraph:
    """Graph on input coordinates left after first-layer edge removal: the
    complete graph on the d coordinates less the keys of ``removed_by``,
    which maps each absent edge (i, j), 0 <= i < j < d, to the indices of
    every neuron that removed it (none in a graph made by hand). No d x d
    array is kept; :meth:`neighbours` builds one row on demand.
    ``removed_by`` is a read-only copy of the mapping given, so the graph
    and its index of absent edges cannot drift apart.
    """

    d: int
    removed_by: Mapping[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _absent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "removed_by", MappingProxyType(dict(self.removed_by)))
        if not all(len(e) == 2 and 0 <= e[0] < e[1] < self.d for e in self.removed_by):
            raise ValueError(f"removed_by keys must be pairs 0 <= i < j < d = {self.d}")
        ends = np.array(list(self.removed_by), dtype=np.int64).reshape(-1, 2).T
        both = np.concatenate([ends, ends[::-1]], axis=1)  # each absent edge both ways
        object.__setattr__(self, "_absent", both[:, np.argsort(both[0])])

    @property
    def n_edges(self) -> int:
        return self.d * (self.d - 1) // 2 - len(self.removed_by)

    def neighbours(self, v: int) -> np.ndarray:
        """Boolean mask over the d coordinates of the vertices joined to v."""
        src, dst = self._absent
        lo, hi = np.searchsorted(src, [v, v + 1])
        mask = np.ones(self.d, dtype=bool)
        mask[v] = mask[dst[lo:hi]] = False
        return mask

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j), i < j, in lexicographic order."""
        return [(i, j) for i in range(self.d)
                for j in (np.flatnonzero(self.neighbours(i)[i + 1:]) + i + 1).tolist()]


def build_weight_graph(first_layer: AffineLayer | np.ndarray) -> WeightGraph:
    """Apply the edge-removal rule to a first hidden layer.

    Reads the layer's stored entries (:func:`matrix_entries`), never a
    dense view: sorted by row, then by falling magnitude, a neuron removes
    the edge of its first two entries when the second is positive and no
    third entry reaches it (a missing entry or a stored -0.0 counts as 0).
    Ties remove nothing (the rule is strict), so their order never matters
    and an all-zero layer leaves the complete graph. All removing neurons
    are recorded per edge, in order.
    """
    W = (first_layer.matrix if isinstance(first_layer, AffineLayer)
         else np.asarray(first_layer, dtype=np.float64))
    if W.ndim != 2:
        raise ValueError("first layer weights must be a matrix")
    k, d = W.shape
    indptr, cols, values = matrix_entries(W)
    rows = np.repeat(np.arange(k), np.diff(indptr))
    mag = np.abs(values)
    order = np.lexsort((-mag, rows))
    cols, mag = cols[order], mag[order]
    place = np.arange(rows.size) - indptr[rows]  # rank in its row
    lead = place < 3
    top = np.zeros((k, 3))  # each row's three largest magnitudes, 0 if missing
    top[rows[lead], place[lead]] = mag[lead]
    top_cols = np.zeros((k, 3), dtype=np.int64)
    top_cols[rows[lead], place[lead]] = cols[lead]
    neurons = np.flatnonzero((top[:, 1] > 0.0) & (top[:, 2] < top[:, 1]))
    i, j = np.sort(top_cols[neurons, :2], axis=1).T
    removed: dict[tuple[int, int], list[int]] = {}
    for m, edge in zip(neurons.tolist(), zip(i.tolist(), j.tolist())):
        removed.setdefault(edge, []).append(m)
    return WeightGraph(d=d, removed_by={edge: tuple(ms) for edge, ms in removed.items()})


def find_triangle(g: WeightGraph) -> tuple[int, int, int] | None:
    """Lexicographically smallest triangle (i, j, k), or None.

    Reads :meth:`WeightGraph.neighbours` rows; guaranteed to return a
    triangle whenever the edge count exceeds d^2/4.
    """
    for i in range(g.d - 2):
        row_i = g.neighbours(i)
        for j in (np.flatnonzero(row_i[i + 1:]) + i + 1).tolist():
            common = row_i & g.neighbours(j)
            common[: j + 1] = False
            ks = np.flatnonzero(common)
            if ks.size:
                return (i, j, int(ks[0]))
    return None


def mantel_edge_threshold(d: int) -> float:
    """Edge count above which a triangle must exist."""
    return d * d / 4.0


@dataclass(frozen=True)
class KernelDirection:
    """Unit kernel vector of a first layer, with the coordinate
    canonicalization that puts its largest entry first and positive.

    ``v`` lives in the network's input coordinates; ``perm[0]`` is the
    index attaining ||v||_inf after the sign flip, so v1 >= d^(-1/2).
    """

    v: np.ndarray
    perm: tuple[int, ...]
    v1: float


def _eliminate_null_vector(W: np.ndarray, tol: float) -> np.ndarray:
    """Gauss-Jordan elimination with full pivoting; returns a null vector.

    Deterministic: pivots maximize |entry| with first-index tie-breaks, and
    the returned vector corresponds to the smallest-index free column. A
    pivot clears its column in one step; rows holding +-0.0 there are skipped.
    """
    A = W.astype(np.float64)
    k, d = A.shape
    free_rows, free_cols = np.ones(k, dtype=bool), np.ones(d, dtype=bool)
    pivots: list[tuple[int, int]] = []
    for _ in range(min(k, d)):
        sub = np.abs(A[np.ix_(free_rows, free_cols)])
        if sub.size == 0 or sub.max() <= tol:
            break
        ri, ci = divmod(int(np.argmax(sub)), sub.shape[1])
        row, col = np.flatnonzero(free_rows)[ri], np.flatnonzero(free_cols)[ci]
        A[row] /= A[row, col]
        others = A[:, col] != 0.0
        others[row] = False
        A[others] -= A[others, col, None] * A[row]
        pivots.append((row, col))
        free_rows[row] = free_cols[col] = False
    f = np.flatnonzero(free_cols)[0]
    v = np.zeros(d)
    v[f] = 1.0
    for row, col in pivots:
        v[col] = -A[row, f]
    return v


def kernel_direction(W: AffineLayer | np.ndarray) -> KernelDirection:
    """Unit vector annihilated by a first layer with at most d-1 rows.

    Rank decisions use the tolerance RANK_TOL * max|W|. The zero matrix
    canonicalizes to e_1. Raises ``ArithmeticError`` if the vector that
    elimination finds leaves a residual |W v| above 1e-9 * max|W|.
    """
    W = W.weights if isinstance(W, AffineLayer) else np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError("expected a weight matrix")
    k, d = W.shape
    if k > d - 1:
        raise ValueError(f"first layer must have at most d-1={d - 1} rows, got {k}")
    scale = float(np.abs(W).max(initial=0.0))
    if scale == 0.0:
        v = np.zeros(d)
        v[0] = 1.0
    else:
        tol = RANK_TOL * scale
        v = _eliminate_null_vector(W, tol)
        v = v / np.linalg.norm(v)
        if float(np.abs(W @ v).max()) > 1e-9 * scale:
            raise ArithmeticError(
                "elimination found no kernel vector of the first layer "
                f"within 1e-9 * max|W| = {1e-9 * scale!r}"
            )
    m = int(np.argmax(np.abs(v)))
    sign = 1.0 if v[m] >= 0 else -1.0
    v = sign * v / np.linalg.norm(v)
    perm = (m, *[i for i in range(d) if i != m])
    return KernelDirection(v=v, perm=perm, v1=float(v[m]))


@dataclass(frozen=True)
class Parallelotope:
    """Image of the unit cube under x -> P x + b in canonicalized
    coordinates, aligned so the cube's first axis moves along the kernel.

    P is lower triangular: first column v_perm / d, then diagonal 1 - 2/d.
    |det P| = (1/d) (1 - 2/d)^(d-1) v1, and the image stays in [0,1]^d,
    where the maximum coordinate is always the first (permuted) one.
    """

    P: np.ndarray
    b: np.ndarray
    v: np.ndarray
    perm: tuple[int, ...]
    v1: float

    @property
    def d(self) -> int:
        return self.P.shape[0]

    def det_abs(self) -> float:
        return abs(float(np.prod(np.diag(self.P))))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Map cube points (n, d) to input-coordinate points (n, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = X @ self.P.T + self.b
        out = np.empty_like(Y)
        out[:, list(self.perm)] = Y
        return out


def build_parallelotope(kd: KernelDirection) -> Parallelotope:
    d = kd.v.size
    if d < 2:
        raise ValueError("parallelotope needs d >= 2")
    w_perm = kd.v[list(kd.perm)]
    P = np.diag(np.full(d, 1.0 - 2.0 / d))
    P[:, 0] = w_perm / d
    b = np.full(d, 1.0 / d)
    b[0] = 1.0 - 1.0 / d
    return Parallelotope(P=P, b=b, v=kd.v, perm=kd.perm, v1=kd.v1)


def error_floor(d: int) -> float:
    """Analytic mean squared error floor for first layers of width <= d-1."""
    return 1.0 / (FLOOR_COEFF * d**4.5)


@dataclass(frozen=True)
class FloorReport:
    """Outcome of the narrow-first-layer analysis for one network."""

    parallelotope: Parallelotope
    floor: float
    empirical: ErrorEstimate
    constancy_deviation: float
    floor_respected: bool


def kernel_constancy_deviation(
    net: FeedForwardNet,
    para: Parallelotope,
    seed: int = 0,
) -> float:
    """Largest output variation along the kernel axis of the parallelotope.

    Exact constancy holds when the first layer annihilates v; float
    residuals keep the observed variation near machine precision.
    """
    rng = np.random.default_rng(seed)
    rest = rng.random((CONSTANCY_LINES, para.d - 1))
    t = np.linspace(0.0, 1.0, CONSTANCY_GRID)
    dev = 0.0
    for row in rest:
        X = np.column_stack([t, np.repeat(row[None, :], CONSTANCY_GRID, axis=0)])
        vals = evaluate_batch(net, para.apply(X))
        dev = max(dev, float(vals.max() - vals.min()))
    return dev


def parallelotope_floors(
    nets: Sequence[FeedForwardNet],
    n: int = 10**6,
    seed: int = 0,
) -> list[FloorReport]:
    """Verify the kernel-direction error floor for narrow-first-layer nets
    of one input dimension d.

    For each net, builds the parallelotope from the first layer's kernel
    and checks the network is constant along the kernel axis. Then it
    estimates each net's true uniform cube error by Monte Carlo, all on one
    sample stream (:func:`mc_l2_errors`), and compares it against
    1/(120 d^4.5). Each report is that of :func:`parallelotope_floor` on the
    net alone.
    """
    if seed < 0:  # before kernel_constancy_deviation hands it to numpy
        raise ValueError("seed must be a non-negative integer")
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one net")
    checked = []
    for net in nets:
        d = net.input_dim
        first = net.layers[0]
        if first.out_width > d - 1:
            raise ValueError(
                f"first hidden layer must have at most d-1={d - 1} neurons, "
                f"got {first.out_width}"
            )
        para = build_parallelotope(kernel_direction(first))
        dev = kernel_constancy_deviation(net, para, seed=seed)
        if dev > CONSTANCY_TOL:
            raise ArithmeticError(
                f"network varies by {dev} along its kernel direction"
            )
        checked.append((para, dev))
    d = nets[0].input_dim
    dist = DistributionSpec.uniform_box(d)
    floor = error_floor(d)
    return [
        FloorReport(
            parallelotope=para,
            floor=floor,
            empirical=est,
            constancy_deviation=dev,
            floor_respected=est.mean_sq_error >= floor - 3.0 * est.std_error,
        )
        for (para, dev), est in zip(checked, mc_l2_errors(nets, row_max, dist, n, seed))
    ]


def parallelotope_floor(
    net: FeedForwardNet,
    n: int = 10**6,
    seed: int = 0,
) -> FloorReport:
    """Verify the kernel-direction error floor for a narrow-first-layer net:
    the one-net case of :func:`parallelotope_floors`.

    Builds the parallelotope from the first layer's kernel, checks the
    network is constant along the kernel axis, estimates the true uniform
    cube error by Monte Carlo, and compares it against 1/(120 d^4.5).
    """
    return parallelotope_floors([net], n=n, seed=seed)[0]
