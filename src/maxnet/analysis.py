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
from typing import Sequence

import numpy as np

from .network import AffineLayer, FeedForwardNet, evaluate_batch
from .sampling import DistributionSpec, ErrorEstimate, mc_l2_errors, row_max

FLOOR_COEFF = 120.0  # mse >= 1 / (FLOOR_COEFF * d^4.5)
RANK_TOL = 1e-10  # kernel_direction's rank tolerance, relative to max|W|
CONSTANCY_LINES = 8  # kernel-axis lines that kernel_constancy_deviation probes
CONSTANCY_GRID = 21  # points per line
CONSTANCY_TOL = 1e-9  # largest variation along the kernel parallelotope_floor accepts


@dataclass(frozen=True)
class WeightGraph:
    """Graph on input coordinates left after first-layer edge removal.

    ``removed_by`` maps each absent edge (i, j), i < j, 0-based, to the
    indices of every neuron that removed it.
    """

    d: int
    adjacency: np.ndarray
    removed_by: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.d, self.d):
            raise ValueError("adjacency must be d x d")
        if not np.array_equal(adj, adj.T) or adj.trace() != 0:
            raise ValueError("adjacency must be symmetric with no self-loops")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(i.tolist(), j.tolist()))


def _strict_top_pair(absw: np.ndarray) -> tuple[int, int] | None:
    """The two strictly largest-magnitude coordinates of a weight row.

    Returns None when strictness fails: the second-largest magnitude is
    matched by a third coordinate, or the pair magnitudes are zero.
    """
    order = np.argsort(-absw, kind="stable")
    j1, j2 = int(order[0]), int(order[1])
    if absw[j2] <= 0.0:
        return None
    if absw.size > 2 and absw[int(order[2])] >= absw[j2]:
        return None
    return (j1, j2) if j1 < j2 else (j2, j1)


def build_weight_graph(first_layer: AffineLayer | np.ndarray) -> WeightGraph:
    """Apply the edge-removal rule to a first hidden layer.

    Ties remove nothing (the rule is strict), so an all-zero layer leaves
    the complete graph. All removing neurons are recorded per edge.
    """
    W = first_layer.weights if isinstance(first_layer, AffineLayer) else np.asarray(first_layer, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError("first layer weights must be a matrix")
    d = W.shape[1]
    adj = ~np.eye(d, dtype=bool)
    removed: dict[tuple[int, int], list[int]] = {}
    for m, row in enumerate(np.abs(W)):
        if d < 2:
            break
        pair = _strict_top_pair(row)
        if pair is None:
            continue
        adj[pair] = adj[pair[::-1]] = False
        removed.setdefault(pair, []).append(m)
    return WeightGraph(
        d=d,
        adjacency=adj,
        removed_by={edge: tuple(ms) for edge, ms in removed.items()},
    )


def find_triangle(g: WeightGraph) -> tuple[int, int, int] | None:
    """Lexicographically smallest triangle (i, j, k), or None.

    Guaranteed to return a triangle whenever the edge count exceeds d^2/4.
    """
    adj = g.adjacency
    for i in range(g.d - 2):
        row_i = adj[i]
        for j in np.nonzero(row_i)[0]:
            if j <= i:
                continue
            common = row_i & adj[j]
            common[: j + 1] = False
            ks = np.nonzero(common)[0]
            if ks.size:
                return (i, int(j), int(ks[0]))
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
    residual: float


def _eliminate_null_vector(W: np.ndarray, tol: float) -> np.ndarray:
    """Gauss-Jordan elimination with full pivoting; returns a null vector.

    Deterministic: pivots maximize |entry| with first-index tie-breaks, and
    the returned vector corresponds to the smallest-index free column.
    """
    A = W.astype(np.float64).copy()
    k, d = A.shape
    pivot_cols: list[int] = []
    pivot_rows: list[int] = []
    free_rows = list(range(k))
    for _ in range(min(k, d)):
        sub = np.abs(A[free_rows][:, [c for c in range(d) if c not in pivot_cols]])
        if sub.size == 0 or sub.max() <= tol:
            break
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, sub.shape[1])
        row = free_rows[ri]
        col = [c for c in range(d) if c not in pivot_cols][ci]
        piv = A[row, col]
        A[row] /= piv
        for r in range(k):
            if r != row and A[r, col] != 0.0:
                A[r] -= A[r, col] * A[row]
        pivot_rows.append(row)
        pivot_cols.append(col)
        free_rows.remove(row)
    free_cols = [c for c in range(d) if c not in pivot_cols]
    f = free_cols[0]
    v = np.zeros(d)
    v[f] = 1.0
    for row, col in zip(pivot_rows, pivot_cols):
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
    residual = float(np.abs(W @ v).max()) if scale else 0.0
    return KernelDirection(v=v, perm=perm, v1=float(v[m]), residual=residual)


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
