"""ReLU networks that compute or approximate the d-input maximum.

Three families:

* :func:`depth3_max` -- depth 3, width exactly d(d+1). The first hidden
  layer computes, per coordinate i, the pair relu(x_i), relu(-x_i) and the
  shared penalty neurons relu(alpha x_j - alpha x_i) for j != i. The second
  hidden layer clips each "polytope" piece at zero, and the output sums the
  positive and negative pieces. Output equals max(x) whenever no coordinate
  ratio falls within 1/alpha of 1, and is bounded by ||x||_1 everywhere.

* :func:`deep_max` -- depth 2k+1 recursion: split the input into
  ceil(d^(1-beta(k))) batches of size at most ceil(d^(beta(k))) with
  beta(k) = 1/(2^k - 1), take the depth-3 maximum of each batch, and feed
  the batch maxima to the depth 2(k-1)+1 construction. Each batch maximum
  is the +1/-1 alternating sum of its second-layer units, so it merges
  into the following hidden layer by column expansion (a column repeated
  per unit, negated on odd units) rather than a matrix product, and the
  result has exactly 2k hidden layers. Width stays below 20 d^(1+beta(k))
  for d >= 58 and 1 <= k <= ceil(log2(log2(d)+1)).

* :func:`exact_max_tree` -- pairwise-max binary tree using
  max(a, b) = relu(a-b) + relu(b) - relu(-b), exact on all of R^d with
  depth ceil(log2 d) + 1 and O(d) neurons.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .network import AffineLayer, FeedForwardNet, matrix_entries, matrix_from_csr


def beta(k: int) -> Fraction:
    """Width exponent 1/(2^k - 1) of the depth-(2k+1) construction, exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(1, 2**k - 1)


def alpha_for_accuracy(d: int, R: float, epsilon: float) -> float:
    """Weight scale guaranteeing mean squared error <= epsilon on uniform [0,R]^d.

    Uses the explicit constant 2 d^2 (d+1)^2 R^2 / epsilon obtained from the
    chain P[x not 1/alpha-separated] <= 2 d^2 / alpha and the requirement
    that this probability times the worst-case squared error (d+1)^2 R^2 be
    at most epsilon. This is an upper bound on the needed alpha and is
    typically loose by orders of magnitude.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not (0 < R < math.inf and 0 < epsilon < math.inf):
        raise ValueError("R and epsilon must be positive and finite")
    return 2.0 * d * d * (d + 1) * (d + 1) * R * R / epsilon


def _ceil_root_pow(d: int, num: int, den: int) -> int:
    """Smallest integer m >= 1 with m^den >= d^num, i.e. ceil(d^(num/den)).

    Exact integer arithmetic; avoids float pow landing on the wrong side of
    an integer for perfect powers.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    target = d**num
    m = max(1, int(round(d ** (num / den))))
    while m > 1 and (m - 1) ** den >= target:
        m -= 1
    while m**den < target:
        m += 1
    return m


def batch_split(d: int, k: int) -> list[int]:
    """Batch sizes used by the depth-(2k+1) recursion at its top level.

    Exactly ceil(d^(1-beta(k))) batches, as equal as possible, every batch
    of size at most ceil(d^(beta(k))) and at least 1.
    """
    q = 2**k - 1
    # past q = d log2 d, (d - 1)^q < d^(q-1): the root is d, and d^(q-1) is huge
    n_batches = d if q > d * d.bit_length() else _ceil_root_pow(d, q - 1, q)
    base, rem = divmod(d, n_batches)
    return [base + 1 if i < rem else base for i in range(n_batches)]


def depth3_shape(d: int) -> list[int]:
    """Hidden layer widths of depth3_max without building it."""
    return [d * (d + 1), 2 * d]


def deep_shape(d: int, k: int) -> list[int]:
    """Hidden layer widths of deep_max without building it.

    This is the neuron count of the recursion itself and is the cheap
    route for width assertions at dimensions where dense weight matrices
    would not fit in memory.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return depth3_shape(d)
    sizes = batch_split(d, k)
    head = [sum(s * (s + 1) for s in sizes), 2 * d]
    return head + deep_shape(len(sizes), k - 1)


def max_k_for_width_bound(d: int) -> int:
    """Largest k for which the 20 d^(1+beta(k)) width bound is asserted."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return math.ceil(math.log2(math.log2(d) + 1))


def _depth3_block(s: int, alpha: float):
    """Triplets (rows, cols, values) of the two hidden weight blocks of the
    depth-3 maximum of s inputs, each in row-major order: the first block
    is s(s+1) x s, the second 2s x s(s+1)."""
    i = np.arange(s)[:, None]
    t = np.arange(s - 1)[None, :]
    j = t + (t >= i)  # the other input of penalty t of coordinate i
    base = i * (s + 1)  # first unit of coordinate i

    def pair(lo, hi):  # (s, s-1) entries of the penalty units, two per unit
        return np.stack([lo, hi], axis=2).reshape(s, -1)

    # units base, base + 1: relu(x_i), relu(-x_i); unit base + 2 + t: the
    # shared penalty relu(alpha x_j - alpha x_i), its two entries by column
    rows1 = np.hstack([base, base + 1, np.repeat(base + 2 + t, 2, axis=1)])
    cols1 = np.hstack([i, i, pair(np.minimum(i, j), np.maximum(i, j))])
    vals1 = np.hstack([
        np.full((s, 1), 1.0), np.full((s, 1), -1.0),
        pair(np.where(j < i, alpha, -alpha), np.where(j < i, -alpha, alpha)),
    ])
    # units 2i, 2i + 1 clip relu(+-x_i) by the penalties of coordinate i
    half = np.arange(2)[None, :, None]
    base, t = base[:, :, None], t.reshape(1, 1, -1)
    rows2 = np.broadcast_to(2 * i[:, :, None] + half, (s, 2, s))
    cols2 = np.concatenate([base + half, np.broadcast_to(base + 2 + t, (s, 2, s - 1))], axis=2)
    vals2 = np.concatenate([np.ones((s, 2, 1)), np.full((s, 2, s - 1), -1.0)], axis=2)
    return ((rows1.ravel(), cols1.ravel(), vals1.ravel()),
            (rows2.ravel(), cols2.ravel(), vals2.ravel()))


def _depth3_hidden(sizes: list[int], alpha: float):
    """The two hidden layers of the depth-3 maxima of consecutive batches
    of ``sizes`` inputs, as (shape, rows, cols, values) with the batches'
    blocks on the diagonal, in row-major order."""
    parts1, parts2 = [], []
    r = c = 0  # first unit and first input of the next batch
    for s, run in itertools.groupby(sizes):
        n, h = len(list(run)), s * (s + 1)
        b = np.arange(n)[:, None]
        (rows1, cols1, vals1), (rows2, cols2, vals2) = _depth3_block(s, alpha)
        parts1.append(((r + h * b + rows1).ravel(), (c + s * b + cols1).ravel(),
                       np.tile(vals1, n)))
        parts2.append(((2 * c + 2 * s * b + rows2).ravel(), (r + h * b + cols2).ravel(),
                       np.tile(vals2, n)))
        r += n * h
        c += n * s
    return [((r, c), *map(np.concatenate, zip(*parts1))),
            ((2 * c, r), *map(np.concatenate, zip(*parts2)))]


def _deep_triplets(d: int, alpha: float, k: int):
    """Weights of the depth-(2k+1) maximum of d inputs, layer by layer, as
    (shape, rows, cols, values) in row-major order."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = batch_split(d, k)  # [d] when k == 1
    hidden = _depth3_hidden(sizes, alpha)
    if k == 1:
        # the output sums the clipped relu(x_i) pieces minus the relu(-x_i) ones
        return hidden + [((1, 2 * d), np.zeros(2 * d, dtype=np.int64), np.arange(2 * d),
                          np.tile([1.0, -1.0], d))]
    n = len(sizes)
    # Batch b's maximum is the +1/-1 alternating sum of its 2 s_b units, so
    # each nonzero of the inner first layer in column b is repeated once per
    # unit and negated on odd units; every batch starts at an even unit.
    inner = _deep_triplets(n, alpha, k - 1)
    (m, _), rows, cols, vals = inner[0]
    units = 2 * np.asarray(sizes)
    reps = units[cols]
    unit = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    merged_vals = np.repeat(vals, reps)
    np.negative(merged_vals, out=merged_vals, where=unit % 2 == 1)
    merged = ((m, 2 * d), np.repeat(rows, reps),
              np.repeat(np.cumsum(units)[cols] - reps, reps) + unit, merged_vals)
    return hidden + [merged] + inner[1:]


def _net(d: int, specs, metadata: str) -> FeedForwardNet:
    """The net whose layers are the (shape, rows, cols, values) ``specs``,
    each turned into its CSR arrays and stored by the storage rule; all
    biases are zero and only the last layer is affine."""
    layers = tuple(
        AffineLayer(matrix_from_csr(shape, np.searchsorted(rows, np.arange(shape[0] + 1)),
                                    cols, values),
                    np.zeros(shape[0]), apply_activation=i < len(specs) - 1)
        for i, (shape, rows, cols, values) in enumerate(specs))
    return FeedForwardNet(input_dim=d, layers=layers, metadata=metadata)


def depth3_max(d: int, alpha: float) -> FeedForwardNet:
    """Depth-3, width-d(d+1) approximation of max(x_1..x_d).

    Exact on 1/alpha-separated inputs; |output| <= ||x||_1 everywhere.
    max |weight| is max(alpha, 1) and all biases are zero.
    """
    return _net(d, _deep_triplets(d, alpha, 1), f"depth3_max d={d} alpha={alpha!r}")


def deep_max(d: int, alpha: float, k: int) -> FeedForwardNet:
    """Depth-(2k+1) recursive approximation of max(x_1..x_d).

    k = 1 coincides with depth3_max. For k > 1 the input is split into
    ceil(d^(1-beta(k))) batches whose depth-3 maxima feed the k-1
    construction. Every layer is emitted as index/value triplets and
    stored by the storage rule of :class:`AffineLayer`, so no large layer
    ever exists as a dense matrix. Each batch maximum is the +1/-1
    alternating sum of its second-layer units, so it is merged into the
    inner first layer by column expansion: column b repeats once per unit
    of batch b, negated on odd units. That leaves exactly 2k hidden layers
    and every merged weight is +- an inner weight, so max |weight| stays
    max(alpha, 1). Exact on 1/alpha-separated inputs and bounded by
    ||x||_1 everywhere.
    """
    return _net(d, _deep_triplets(d, alpha, k), f"deep_max d={d} alpha={alpha!r} k={k}")


def _tree_triplets(d: int):
    """Weights of the pairwise-max tree of d inputs, layer by layer, as
    (shape, rows, cols, values) in row-major order."""
    specs = []
    value, sign = np.arange(d), np.ones(d)  # unit u enters value[u] as sign[u]
    while (n := value[-1] + 1) > 1:
        n_pairs, odd = divmod(n, 2)
        # units 3p..3p + 2 of pair (a, b) = (2p, 2p + 1) are relu(a - b),
        # relu(b), relu(-b), so a unit of a enters 3p and one of b 3p..3p + 2
        # as -, +, -; an odd last value enters 3p, 3p + 1 as +, -
        p, b = np.divmod(value, 2)
        reps = 1 + 2 * b + (value == 2 * n_pairs)
        j = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows, cols = 3 * np.repeat(p, reps) + j, np.repeat(np.arange(len(value)), reps)
        vals = np.repeat(sign, reps)
        np.negative(vals, out=vals, where=(j + np.repeat(b, reps)) % 2 == 1)
        order = np.lexsort((cols, rows))
        width = 3 * n_pairs + 2 * odd
        specs.append(((width, len(value)), rows[order], cols[order], vals[order]))
        value, sign = np.arange(width) // 3, np.ones(width)
        sign[2::3] = sign[3 * n_pairs + 1 :] = -1.0
    return specs + [((1, len(value)), value, np.arange(len(value)), sign)]  # every value is 0


def exact_max_tree(d: int) -> FeedForwardNet:
    """Exact pairwise-max tree: depth ceil(log2 d) + 1, O(d) neurons.

    Computes max(x) for every x in R^d up to float rounding, via
    max(a, b) = relu(a-b) + relu(b) - relu(-b) applied along a binary tree.
    Every layer is built from +-1 index/value triplets and stored by the
    storage rule, in O(d) memory; all biases are zero. d = 1 yields the
    affine identity network.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return _net(d, _tree_triplets(d), f"exact_max_tree d={d}")


def rescale_to_box(net: FeedForwardNet, a: float, R: float) -> FeedForwardNet:
    """Conjugate a unit-box max approximator to the box [a, a+R]^d.

    Returns N' with N'(x) = R * N((x - a 1)/R) + a exactly, for any net N.
    If N approximates max on [0,1]^d with mean squared error e, N'
    approximates max on uniform [a, a+R]^d with error exactly R^2 e, since
    max(R y + a 1) = R max(y) + a.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    # The stored values are mapped, so a sparse layer is never built dense;
    # numpy divides them by R, where scipy's own csr / R multiplies by 1/R,
    # which rounds differently. A value that underflows to +0.0 is dropped
    # by AffineLayer.
    layers = list(net.layers)
    first = layers[0]
    indptr, indices, values = matrix_entries(first.matrix)
    layers[0] = AffineLayer(matrix_from_csr(first.matrix.shape, indptr, indices, values / R),
                            first.biases - (a / R) * first.matrix.sum(axis=1),
                            first.apply_activation)
    # for a one-layer net this is the layer just made, which takes both maps
    last = layers[-1]
    indptr, indices, values = matrix_entries(last.matrix)
    layers[-1] = AffineLayer(matrix_from_csr(last.matrix.shape, indptr, indices, R * values),
                             R * last.biases + a, apply_activation=False)
    return FeedForwardNet(
        input_dim=net.input_dim,
        layers=tuple(layers),
        metadata=f"{net.metadata} | rescaled to [{a!r}, {a + R!r}]^d",
    )
