"""Output checks of the benchmark.

Each check compares the program's answer with a computation made here,
apart from the program, or with a property the method must have. None of
them compares against a stored copy of earlier output. Every check returns
True when the answer is acceptable.
"""

from __future__ import annotations

import math

import numpy as np

Z95 = 1.959963984540054  # two-sided 95% normal quantile, as in the CLI's CI
EPS = np.finfo(np.float64).eps


# ----------------------------------------------------------------------
# depth 3
# ----------------------------------------------------------------------

def depth3_closed_form(X: np.ndarray, alpha: float, chunk: int = 4096) -> np.ndarray:
    """The depth-3 construction written out coordinate by coordinate:

    sum_i relu(relu(x_i) - P_i) - relu(relu(-x_i) - P_i),
    P_i = sum_{j != i} relu(alpha (x_j - x_i)).
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X))
    for s in range(0, len(X), chunk):
        x = X[s : s + chunk]
        # [row, i, j] = relu(alpha x_j - alpha x_i); the j == i term is 0
        pen = np.maximum(alpha * x[:, None, :] - alpha * x[:, :, None], 0.0).sum(axis=2)
        pos = np.maximum(np.maximum(x, 0.0) - pen, 0.0)
        neg = np.maximum(np.maximum(-x, 0.0) - pen, 0.0)
        out[s : s + chunk] = (pos - neg).sum(axis=1)
    return out


def depth3_tolerance(X: np.ndarray, alpha: float) -> float:
    """Float rounding allowed between two evaluation orders of depth 3.

    Each of the d - 1 penalty terms is formed from products of size up to
    alpha * max|x| and can carry a few ulps of that size.
    """
    d = X.shape[1]
    return 8.0 * d * EPS * (1.0 + alpha) * max(1.0, float(np.abs(X).max()))


def depth3_matches(net_out: np.ndarray, closed: np.ndarray, X: np.ndarray, alpha: float) -> bool:
    return bool(np.abs(net_out - closed).max() <= depth3_tolerance(X, alpha))


def mean_sq(err: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of err^2 and its standard error."""
    sq = np.asarray(err, dtype=np.float64) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(sq.size))


def estimates_agree(m1: float, se1: float, m2: float, se2: float, k: float = 4.0) -> bool:
    """Two independent estimates of one mean differ by at most k combined SEs."""
    return abs(m1 - m2) <= k * math.hypot(se1, se2)


def in_interval(x: float, lo: float, hi: float) -> bool:
    return lo <= x <= hi


# ----------------------------------------------------------------------
# depth 2k+1
# ----------------------------------------------------------------------

def separated_rows(rng: np.random.Generator, n: int, d: int, delta: float,
                   spread: float = 1e3) -> np.ndarray:
    """Rows in [1/spread, 1) whose coordinate ratios all stay away from 1 by
    more than delta.

    Sorted in decreasing order, neighbours differ by a factor
    (1 + 3 delta) e^w with w >= 0 random, which exceeds 1 / (1 - delta); the
    order is then shuffled. The spread keeps the top two coordinates of a
    row apart, so a net that misses the maximum misses it by a visible
    amount.
    """
    step = math.log1p(3.0 * delta)
    free = math.log(spread) - d * step
    if free <= 0:
        raise ValueError("spread too small for d separated coordinates")
    w = rng.exponential(size=(n, d))
    w *= free / w.sum(axis=1, keepdims=True)
    logs = -np.cumsum(step + w, axis=1)
    order = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
    return np.exp(np.take_along_axis(logs, order, axis=1))


def rows_separated(X: np.ndarray, delta: float) -> bool:
    """Every row positive, and every ratio of two of its coordinates outside
    [1 - delta, 1 + delta]; for positive rows the adjacent sorted pairs
    are the closest ones."""
    s = np.sort(np.asarray(X, dtype=np.float64), axis=1)
    if not np.all(s > 0):
        return False
    return bool((s[:, 1:] / s[:, :-1]).min() > 1.0 / (1.0 - delta))


def exact_on_separated(net_out: np.ndarray, X: np.ndarray, alpha: float) -> bool:
    """|net(x) - max(x)| <= 1e-9 alpha on 1/alpha-separated rows."""
    return bool(np.abs(net_out - np.asarray(X).max(axis=1)).max() <= 1e-9 * alpha)


def l1_bounded(net_out: np.ndarray, X: np.ndarray) -> bool:
    """|net(x)| <= ||x||_1, up to one part in 1e12 of rounding."""
    l1 = np.abs(np.asarray(X)).sum(axis=1)
    return bool(np.all(np.abs(net_out) <= l1 * (1.0 + 1e-12)))


def deep_structure_ok(hidden_widths: list[int], shape: list[int], d: int, k: int) -> bool:
    """Depth 2k+1 (2k hidden layers), widths equal to the predicted shape,
    and no wider than 20 d^(1 + 1/(2^k - 1))."""
    return (
        len(hidden_widths) == 2 * k
        and list(hidden_widths) == list(shape)
        and max(hidden_widths) <= 20.0 * d ** (1.0 + 1.0 / (2**k - 1))
    )


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


# ----------------------------------------------------------------------
# narrow first layers
# ----------------------------------------------------------------------

def error_floor(d: int) -> float:
    """1 / (120 d^4.5), the floor for first layers of width <= d - 1."""
    return 1.0 / (120.0 * d**4.5)


def floor_respected(mse: float, se: float, d: int) -> bool:
    return mse >= error_floor(d) - 3.0 * se


def kernel_residual_ok(W: np.ndarray, v: np.ndarray) -> bool:
    """||W v||_inf <= 1e-9 max|W| for a unit vector v."""
    W = np.asarray(W, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-9):
        return False
    return float(np.abs(W @ v).max()) <= 1e-9 * float(np.abs(W).max())


def constancy_ok(deviation: float) -> bool:
    return deviation <= 1e-9


# ----------------------------------------------------------------------
# separation
# ----------------------------------------------------------------------

def pairwise_separated(x, delta: float) -> bool:
    """Plain double loop: no x_i / x_j (x_j != 0, i != j) in [1-delta, 1+delta]."""
    x = [float(v) for v in x]
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            if i != j and xj != 0.0 and abs(xi - xj) <= delta * abs(xj):
                return False
    return True


def two_coordinate_exact(p: float, se: float, delta: float) -> bool:
    """For two iid uniform coordinates P[not delta-separated] is exactly delta."""
    return abs(p - delta) <= 4.0 * se


def union_bound_ok(p: float, se: float, d: int, delta: float) -> bool:
    """Each of the C(d, 2) pairs violates with probability delta."""
    return p <= math.comb(d, 2) * delta + 4.0 * se
