"""Distributions, ratio-separation tests, and Monte Carlo error estimation.

Sampling is sharded: shard i of a run with root seed s draws from
``default_rng([s, i])``, so estimates are reproducible bit-for-bit. Shards
run one after another and their sums are reduced in shard order.

The Monte Carlo loop (``sample``, ``row_max``, ``mc_l2_errors``) builds
each result in the array it has just drawn or computed, skips the steps of
``sample`` that cannot change a bit (scaling by 1, adding 0), and
``row_max`` folds narrow rows column by column over cache-sized row tiles,
so a shard costs little beyond its arithmetic even when the net is tiny.
``mc_l2_errors`` scores several nets on one stream, drawing each shard and
its target once. The shard size fixes where the sample stream is cut, and
with it the bits of every estimate. ``evaluate_batch`` splits a shard into
cache-sized row tiles of its own when the net narrows after its widest
layer, as the constructions do, so such a net's widest activation is never
held for the whole shard.

The separation estimators never hold a whole shard either.
``DistributionSpec.tiles`` fills one caller-owned tile after another with
the rows ``sample`` would return, bit for bit, and each tile is sorted and
tested in the buffers of one ``_TileTest`` while it is in cache. So
``estimate_violation_prob`` needs O(tile) memory whatever n and d are, and
``sample_separated`` O(kept rows + tile); ``iid_plus_noise`` adds its
shard's corners, which its stream holds ahead of the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .network import FeedForwardNet, evaluate_batch

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling law for inputs. Deterministic given (spec, seed).

    kinds:
      * ``uniform_box``: iid coordinates uniform on [a, a+R]
      * ``gaussian_std``: iid standard normal coordinates
      * ``iid_plus_noise``: rademacher corners (iid +-1 coordinates) plus iid
        continuous noise (uniform on [-scale/2, scale/2] or centered
        gaussian with standard deviation scale)
    """

    kind: str
    d: int
    a: float = 0.0
    R: float = 1.0
    noise: str = "uniform"
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform_box", "gaussian_std", "iid_plus_noise"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not math.isfinite(self.a):
            raise ValueError("a must be finite")
        if not 0 < self.R < math.inf:
            raise ValueError("R must be positive and finite")
        if not math.isfinite(self.a + self.R):
            raise ValueError("a + R must be finite")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.kind == "iid_plus_noise":
            if self.noise not in ("uniform", "gaussian"):
                raise ValueError("noise must be 'uniform' or 'gaussian'")
            if not 0 < self.noise_scale < math.inf:
                raise ValueError("noise_scale must be positive and finite")

    @classmethod
    def uniform_box(cls, d: int, a: float = 0.0, R: float = 1.0, seed: int = 0):
        return cls(kind="uniform_box", d=d, a=a, R=R, seed=seed)

    @classmethod
    def gaussian_std(cls, d: int, seed: int = 0):
        return cls(kind="gaussian_std", d=d, seed=seed)

    @classmethod
    def iid_plus_noise(
        cls,
        d: int,
        noise: str = "uniform",
        noise_scale: float = 0.1,
        seed: int = 0,
    ):
        return cls(
            kind="iid_plus_noise", d=d, noise=noise, noise_scale=noise_scale, seed=seed
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n fresh rows: :meth:`tiles` with one tile, drawn as a new array."""
        return self._rows(rng, (n, self.d), None, self._corners(n, rng))

    def tiles(
        self, n: int, rng: np.random.Generator, out: np.ndarray
    ) -> Iterator[np.ndarray]:
        """The n rows of ``sample(n, rng)``, bit for bit and in order, built
        tile by tile in ``out``, a caller-owned C-contiguous float64 buffer of
        shape (rows, d) with rows >= 1. Each tile is a leading slice of
        ``out``, overwritten by the next one.

        ``Generator.random(out=)`` and ``standard_normal(out=)`` fill a tile
        in stream order, so the tiles hold the stream that one whole draw
        holds. ``iid_plus_noise`` draws the +-1 corners of all n rows first,
        as its stream holds them ahead of the noise, so that law keeps
        8 n d bytes of corners beside ``out``.
        """
        base = self._corners(n, rng)
        rows = len(out)
        for start in range(0, n, rows):
            X = out[: min(rows, n - start)]
            corners = None if base is None else base[start:start + len(X)]
            yield self._rows(rng, None, X, corners)

    def _corners(self, n: int, rng: np.random.Generator) -> np.ndarray | None:
        """The +-1 corners of n rows of ``iid_plus_noise``, None for the
        other laws."""
        if self.kind != "iid_plus_noise":
            return None
        base = rng.integers(0, 2, size=(n, self.d)) * 2.0
        base -= 1.0
        return base

    def _rows(
        self,
        rng: np.random.Generator,
        shape: tuple[int, int] | None,
        out: np.ndarray | None,
        base: np.ndarray | None,
    ) -> np.ndarray:
        """Rows drawn into ``out``, or into a new array of ``shape`` when
        ``out`` is None, and built there; ``base`` holds their corners. The
        steps follow a + R u, base + scale (u - 1/2) and base + scale g
        operation by operation, so the bits are those of the plain
        expressions."""
        if self.kind == "uniform_box":
            X = rng.random(shape, out=out)
            if self.R != 1:  # x * 1 == x
                X *= self.R
            if self.a != 0:  # x + 0 == x + -0 == x, as u is never -0.0
                X += self.a
            return X
        if self.kind == "gaussian_std":
            return rng.standard_normal(shape, out=out)
        if self.noise == "uniform":
            X = rng.random(shape, out=out)
            X -= 0.5
        else:
            X = rng.standard_normal(shape, out=out)
        X *= self.noise_scale
        X += base
        return X


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo mean squared error with a normal-approximation 95% CI."""

    mean_sq_error: float
    std_error: float
    n_samples: int
    ci95: tuple[float, float]


@dataclass(frozen=True)
class ProportionEstimate:
    """Monte Carlo proportion with binomial std error and Wilson 95% CI."""

    proportion: float
    std_error: float
    n_samples: int
    ci95: tuple[float, float]


# widest row that row_max folds column by column, and the values of one
# of its row tiles (512 KiB, inside a 2 MiB L2)
_ROW_MAX_D = 32
_ROW_TILE_VALUES = 65536


def row_max(X: np.ndarray) -> np.ndarray:
    """Row maxima of an (n, d) batch: ``np.max(X, axis=1)``, bit for bit.

    ``np.max`` runs its inner loop once per row, so at small d it pays per
    row rather than per value. Up to d = 32 the maxima are folded column by
    column instead, over row tiles of about 65536 values: one
    ``np.maximum`` per column per tile, on strides that stay in cache. At
    131072 rows (one thread, Xeon) the fold took 0.47 ms against 7.0 ms
    for ``np.max`` at d = 3, 1.4 against 10.6 ms at d = 8 and 10.3 against
    12.7 ms at d = 32; folding the whole batch per column took 3.5 ms at
    d = 8 and 28.5 ms at d = 32, as each pass then strides out of the
    cache. A batch of fewer rows than one tile, such as a 64-row training
    minibatch, pays the fold's calls per column without the rows to spread
    them over (9.7 us against 5.4 us at 64 x 10), so it takes ``np.max``.

    The fold finds the same maxima. Only the sign of a zero maximum and the
    payload of a NaN depend on the order in which the SIMD code of
    ``np.max`` compares, so rows whose maximum is zero or NaN are taken
    from ``np.max`` itself. An empty batch gives an empty vector, d = 0
    raises ``ValueError`` and NaN propagates, as with ``np.max``.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.size == 0 or X.shape[1] > _ROW_MAX_D:
        return np.max(X, axis=1)
    n, d = X.shape
    rows = _ROW_TILE_VALUES // d
    if n < rows:
        return np.max(X, axis=1)
    m = np.empty(n, dtype=X.dtype)
    for start in range(0, n, rows):
        T, t = X[start:start + rows], m[start:start + rows]
        np.copyto(t, T[:, 0])
        for j in range(1, d):
            np.maximum(t, T[:, j], out=t)
    if not m.all() or np.isnan(m.max()):
        odd = ~(np.abs(m) > 0)
        m[odd] = np.max(X[odd], axis=1)
    return m


# values per row tile of _violation_mask: 256 KiB per float64 buffer, so
# a tile's buffers stay in a 2 MiB L2. Median CPU ms per 65536 uniform rows
# at delta = 1e-2 (one thread, Xeon, 80 interleaved runs) for tiles of
# 16Ki / 32Ki / 64Ki / 128Ki values and for one tile per 65536-row shard:
#   d = 2:  0.37 / 0.46 / 0.53 / 0.95 / 1.23
#   d = 8:  3.77 / 3.73 / 4.37 / 5.55 / 8.81
#   d = 32: 16.2 / 16.3 / 17.8 / 20.3 / 38.5
_TILE_VALUES = 32768
# widest row whose pair flags _violation_mask ORs column by column
_FOLD_MAX_D = 12


def _violation_mask(X: np.ndarray, delta: float) -> np.ndarray:
    """Rows of X that are NOT delta-separated.

    x_i / x_j lies in [1-delta, 1+delta] iff |x_i - x_j| <= delta |x_j|;
    pairs with x_j == 0 impose no constraint (literal reading of the
    quantifier "for all i != j, and x_j != 0"). Taking both orders of a
    pair {a, b} at once, it violates iff |b - a| <= delta * m and m > 0,
    where m = max(|a|, |b|); the m > 0 guard keeps two zeros apart.

    Only adjacent values of each sorted row need testing, which is exact
    for every delta > 0, in floating point too:

      * Same-sign pairs nest. For a <= c <= b on one side of zero (zero
        included), fl(b - c) <= fl(b - a) and fl(c - a) <= fl(b - a)
        because rounding is monotone, while the inner pair next to the
        larger magnitude keeps the same m. So if an outer pair violates,
        an adjacent pair between them does too.
      * Mixed-sign pairs a < 0 < b never violate when delta < 1:
        fl(b - a) >= m, while fl(delta * m) < m for normal m, and b - a is
        exact when m is subnormal.
      * When delta >= 1, any two same-sign nonzeros violate, and so does a
        zero next to a nonzero. A row with neither holds at most one
        negative and one positive value, and those two are adjacent.

    The test takes |fl(b - a)|, which is fl(b - a) on a sorted row. Both it
    and m are the same for (a, b) and (b, a), as rounding is symmetric, so
    a row of two values is tested as it stands; only wider rows are sorted.

    Rows are copied, a tile of ``_TILE_VALUES`` values at a time, into the
    buffer of one :class:`_TileTest`, so X is left unwritten. The sort costs
    O(n d log d) time; memory beyond the mask is a few tile-sized buffers,
    whatever n is.
    """
    n, d = X.shape
    mask = np.zeros(n, dtype=bool)
    if d < 2 or n == 0:
        return mask
    test = _TileTest(d, n)
    for start in range(0, n, len(test.tile)):
        T = X[start:start + len(test.tile)]
        test.flag_copy(T, delta, mask[start:start + len(T)])
    return mask


class _TileTest:
    """The separation test of row tiles of width d, in buffers allocated
    once and reused by every tile. ``tile`` is the test's own buffer of
    ``_TILE_VALUES`` values (one row, if a row is wider; at most n rows): a
    caller may draw rows into it and test them there. Allocating the
    buffers per tile, through ``_violation_mask``, took 0.44 s of CPU
    against 0.25 s for the six estimates of the benchmark's ``separation``
    workload (fresh processes, one thread, median of 6)."""

    def __init__(self, d: int, n: int):
        rows = min(max(1, _TILE_VALUES // d), n)
        size = rows * d
        self.tile = np.empty((rows, d))
        self.a, self.m = np.empty(size), np.empty(size - 1)
        self.pos = np.empty(size - 1, dtype=bool)
        self.close = np.empty(size, dtype=bool)

    def flag(self, S: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
        """Set ``out[r]`` to whether row r of S is NOT delta-separated, and
        return ``out``. S is a C-contiguous tile that the test may reorder:
        rows wider than two are sorted in place, and a row of two values is
        tested as it stands.

        The tile is flattened, so its neighbour pairs are two contiguous
        vectors; the pair that joins the last value of one row to the first
        of the next is left out of the per-row OR. m > 0 is tested before m
        is scaled, as delta m can underflow to zero.
        """
        r, d = S.shape
        if d < 2:  # no pair to test
            out.fill(False)
            return out
        if d > 2:
            S.sort(axis=1)
        k = r * d
        f = S.reshape(-1)
        a, mk, pk, ck = self.a, self.m[: k - 1], self.pos[: k - 1], self.close[: k - 1]
        np.abs(f, out=a[:k])
        np.maximum(a[: k - 1], a[1:k], out=mk)
        np.greater(mk, 0, out=pk)
        t = np.subtract(f[1:], f[:-1], out=a[: k - 1])
        np.abs(t, out=t)
        mk *= delta
        np.less_equal(t, mk, out=ck)
        ck &= pk
        C = self.close[:k].reshape(r, d)  # column d - 1 pairs a row with the next
        # A per-row any pays per row, as np.max does: per 32Ki-value tile
        # it took 286 us against 6 for the column fold at d = 2, 71 against
        # 27 at d = 12 and 46 against 62 at d = 32.
        if d <= _FOLD_MAX_D:
            np.copyto(out, C[:, 0])
            for j in range(1, d - 1):
                out |= C[:, j]
        else:
            C[:, :-1].any(axis=1, out=out)
        return out

    def flag_copy(self, T: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
        """:meth:`flag` on a copy of T made in ``tile``; T is left unwritten."""
        S = self.tile[: len(T)]
        np.copyto(S, T)
        return self.flag(S, delta, out)


def is_delta_separated(x, delta: float) -> bool:
    """True iff no coordinate ratio x_i/x_j (x_j != 0, i != j) is within
    delta of 1."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return not bool(_violation_mask(x[None, :], delta)[0])


def _shards(
    dist: DistributionSpec,
    n: int,
    chunk: int,
    root: int,
    tile: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield n samples in shards of ``chunk`` rows; shard i draws from
    ``default_rng([root, i])``. The last shard holds the remainder. Given a
    ``tile`` buffer, each shard comes as the tiles that
    :meth:`DistributionSpec.tiles` builds in it, so the rows and their order
    are the same and only the tile is held."""
    for i, start in enumerate(range(0, n, chunk)):
        m, rng = min(chunk, n - start), np.random.default_rng([root, i])
        if tile is None:
            yield dist.sample(m, rng)
        else:
            yield from dist.tiles(m, rng, tile)


def _default_chunk(width_hint: int) -> int:
    # 8 Mi values of the widest layer per shard. The chunk fixes where the
    # sample stream is cut, so every estimate's bits depend on it;
    # evaluate_batch tiles the rows of a wide net itself.
    return max(256, min(131072, 8_388_608 // max(1, width_hint)))


def _net_width_hint(net: FeedForwardNet) -> int:
    return max(net.input_dim, max(layer.out_width for layer in net.layers))


VIOLATION_CHUNK = 65536  # rows per shard of estimate_violation_prob
SEPARATED_MAX_ROUNDS = 200  # rounds of sample_separated before it gives up


def mc_l2_errors(
    nets: Sequence[FeedForwardNet],
    target: Callable[[np.ndarray], np.ndarray],
    dist: DistributionSpec,
    n: int,
    seed: int | None = None,
) -> list[ErrorEstimate]:
    """Unbiased Monte Carlo estimates of E[(net(x) - target(x))^2], one per
    net, all on the same sample stream.

    ``target`` maps an (n, d) batch to an (n,) vector. Each shard and its
    target values are made once and scored by every net in turn, and each
    net's sums are reduced in shard order, so every estimate is bit for bit
    that of :func:`mc_l2_error` on the net alone. Deterministic given
    (dist, seed); the chunk size is a fixed function of the network shape
    so results do not depend on memory pressure. Nets whose default chunks
    differ would cut the stream at different places, so they raise
    ``ValueError``.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one net")
    for net in nets:
        if net.input_dim != dist.d:
            raise ValueError(f"net expects d={net.input_dim}, distribution has d={dist.d}")
    if n < 2:
        raise ValueError("n must be >= 2")
    root = dist.seed if seed is None else seed
    chunks = {_default_chunk(_net_width_hint(net)) for net in nets}
    if len(chunks) > 1:
        raise ValueError(
            f"the nets' default chunks differ ({sorted(chunks)}); "
            "score them in separate calls"
        )
    (chunk,) = chunks
    s1, s2 = [0.0] * len(nets), [0.0] * len(nets)
    for X in _shards(dist, n, chunk, root):
        y = None
        for k, net in enumerate(nets):
            sq = evaluate_batch(net, X)  # a fresh array: the error, then its powers
            if y is None:  # once evaluate_batch has freed its buffers
                y = target(X)
            sq -= y
            sq *= sq
            s1[k] += float(sq.sum())
            sq *= sq
            s2[k] += float(sq.sum())
    return [_error_estimate(a, b, n) for a, b in zip(s1, s2)]


def _error_estimate(s1: float, s2: float, n: int) -> ErrorEstimate:
    """Mean, standard error and 95% CI from the sums of e^2 and e^4."""
    mean = s1 / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    se = (var / n) ** 0.5
    return ErrorEstimate(
        mean_sq_error=mean,
        std_error=se,
        n_samples=n,
        ci95=(mean - Z95 * se, mean + Z95 * se),
    )


def mc_l2_error(
    net: FeedForwardNet,
    target: Callable[[np.ndarray], np.ndarray],
    dist: DistributionSpec,
    n: int,
    seed: int | None = None,
) -> ErrorEstimate:
    """Unbiased Monte Carlo estimate of E[(net(x) - target(x))^2]: the
    one-net case of :func:`mc_l2_errors`."""
    return mc_l2_errors([net], target, dist, n, seed=seed)[0]


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_violation_prob(
    dist: DistributionSpec,
    delta: float,
    n: int,
    seed: int | None = None,
) -> ProportionEstimate:
    """Monte Carlo estimate of P[X not delta-separated] with a Wilson CI.

    Each shard is drawn and tested one tile at a time in the buffers of one
    :class:`_TileTest`, sorted in place while the tile is in cache, so only
    the count leaves a tile and memory stays O(tile) whatever n and d are
    (``iid_plus_noise`` adds its shard's corners, see
    :meth:`DistributionSpec.tiles`). The count equals that of
    ``_violation_mask`` on each whole shard."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = dist.seed if seed is None else seed
    test = _TileTest(dist.d, n)
    flags = np.empty(len(test.tile), dtype=bool)
    hits = 0
    for T in _shards(dist, n, VIOLATION_CHUNK, root, test.tile):
        hits += int(np.count_nonzero(test.flag(T, delta, flags[: len(T)])))
    p = hits / n
    se = (p * (1 - p) / n) ** 0.5
    return ProportionEstimate(
        proportion=p, std_error=se, n_samples=n, ci95=wilson_interval(hits, n)
    )


def sample_separated(
    dist: DistributionSpec,
    delta: float,
    n: int,
    seed: int | None = None,
) -> np.ndarray:
    """Rejection-sample n points conditioned on delta-separation: the first
    n separated rows of rounds of max(n, 1024) draws, unsorted, as drawn.

    Rows are drawn and tested a tile at a time and the kept ones copied
    into the result, so memory is O(n d + tile)."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    root = dist.seed if seed is None else seed
    m = max(n, 1024)
    test = _TileTest(dist.d, m)
    drawn, flags = np.empty_like(test.tile), np.empty(len(test.tile), dtype=bool)
    X = np.empty((n, dist.d))
    total = 0
    for T in _shards(dist, SEPARATED_MAX_ROUNDS * m, m, root, drawn):
        kept = T[~test.flag_copy(T, delta, flags[: len(T)])][: n - total]
        X[total:total + len(kept)] = kept
        total += len(kept)
        if total == n:
            return X
    raise RuntimeError(
        f"rejection sampling did not reach {n} separated points "
        f"in {SEPARATED_MAX_ROUNDS} rounds; delta={delta} may be too large"
    )
