"""Feedforward network representation, evaluation, and serialization.

A network is an immutable stack of affine layers. Every layer except the
last applies ReLU elementwise; the last layer is purely affine with a
single output neuron. Depth is the number of hidden layers plus one, width
is the size of the largest hidden layer, and size is the total neuron count
across all layers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FORMAT_TAG = "maxnet-ffn/1"
"""Tag of a network file whose layers all hold dense ``weights`` rows; it
is read, no longer written."""
CSR_FORMAT_TAG = "maxnet-ffn/2"
"""Tag of a network file whose layers are written as CSR arrays
(``shape``, ``indptr``, ``indices``, ``values``) or, in files written
before every layer was, as dense ``weights`` rows."""
_SEPARATORS = (",", ":")
"""json's separators for a file without whitespace."""


class ParseError(ValueError):
    """Malformed serialized network document.

    Carries a human-readable ``location`` (line/column for JSON syntax
    errors, a field path for structural problems).
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))
        self.location = location


class NumericOverflowError(ArithmeticError):
    """A non-finite value appeared while evaluating a network.

    ``sample`` holds the offending input when available.
    """

    def __init__(self, message: str, sample=None):
        super().__init__(message)
        self.sample = sample


SPARSE_MIN_WEIGHTS = 2**18
"""Fewest weights (rows times columns) of a layer stored sparse."""
SPARSE_MAX_DENSITY = 1 / 16
"""Largest share of nonzero weights in a layer stored sparse."""


def _stored_sparse(shape: tuple[int, int], nnz: int) -> bool:
    """The storage rule: sparse iff the layer is large and mostly zero."""
    size = shape[0] * shape[1]
    return size >= SPARSE_MIN_WEIGHTS and nnz <= SPARSE_MAX_DENSITY * size


def _csr(shape, indptr, indices, data):
    # deferred: importing scipy.sparse costs 0.2 s, which only a layer that
    # meets the storage rule should pay
    from scipy import sparse

    m = sparse.csr_array((data, indices, indptr), shape=shape)
    for a in (m.data, m.indices, m.indptr):
        a.setflags(write=False)
    return m


def matrix_from_csr(shape: tuple[int, int], indptr, indices, values):
    """The matrix of ``shape`` whose CSR arrays are ``indptr``, ``indices``
    and ``values``, stored as :class:`AffineLayer` stores it.

    The indices of each row must strictly increase. A value whose bits
    are zero is stored as given; :class:`AffineLayer`, which stores any
    matrix by the rule again, drops it. A layer stored sparse keeps the
    arrays themselves, so no dense matrix is built for it.
    """
    if _stored_sparse(shape, len(values)):
        return _csr(shape, indptr, indices, values)
    return _dense(shape, indptr, indices, values)


def _dense(shape, indptr, indices, values) -> np.ndarray:
    """A read-only dense matrix of the CSR arrays. Entries are assigned,
    not added as scipy's ``toarray`` does, so a stored -0.0 stays -0.0."""
    w = np.zeros(shape)
    w[np.repeat(np.arange(shape[0]), np.diff(indptr)), indices] = values
    w.setflags(write=False)
    return w


def matrix_entries(matrix):
    """The canonical CSR arrays (indptr, indices, values) that
    :func:`matrix_from_csr` takes, of a dense ndarray or a canonical CSR
    matrix: the entries whose bits are nonzero, so -0.0 is an entry and
    +0.0 is not. A CSR matrix that stores no +0.0 gives its own arrays."""
    if isinstance(matrix, np.ndarray):
        w = np.ascontiguousarray(matrix, dtype=np.float64)
        rows, cols = np.nonzero(w.view(np.uint64))
        return np.searchsorted(rows, np.arange(w.shape[0] + 1)), cols, w[rows, cols]
    bits = matrix.data.view(np.uint64)
    if bits.all():  # reduced in buffers, with no mask of every entry
        return matrix.indptr, matrix.indices, matrix.data
    keep = bits != 0
    kept = np.concatenate(([0], np.cumsum(keep)))  # entries kept before each one
    return kept[matrix.indptr], matrix.indices[keep], matrix.data[keep]


def _stored(weights):
    """A weight matrix, dense or scipy sparse, as a layer stores it: a
    canonical read-only CSR array holding exactly the entries whose bits
    are nonzero if it meets the storage rule, and a C-contiguous read-only
    float64 array otherwise."""
    sparse = sys.modules.get("scipy.sparse")  # unloaded: no sparse input exists
    if sparse is not None and sparse.issparse(weights):
        m = sparse.csr_array(weights, dtype=np.float64)
        if not m.has_canonical_format:
            m = m.copy()
            m.sum_duplicates()
        return matrix_from_csr(m.shape, *matrix_entries(m))
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if w.ndim != 2:
        raise ValueError(f"weights must be a matrix, got ndim={w.ndim}")
    w = np.ascontiguousarray(w)
    if w.size >= SPARSE_MIN_WEIGHTS:
        bits = w.view(np.uint64)
        if _stored_sparse(w.shape, np.count_nonzero(bits)):
            return matrix_from_csr(w.shape, *matrix_entries(w))
    w.setflags(write=False)
    return w


def _values(matrix) -> np.ndarray:
    """The stored values of a layer's matrix: all of a dense one, the
    nonzero entries of a sparse one."""
    return matrix if isinstance(matrix, np.ndarray) else matrix.data


@dataclass(frozen=True, init=False)
class AffineLayer:
    """One affine map ``z = W x + b``, optionally followed by the activation.

    W has shape (out_width, in_width) and ``biases`` shape (out_width,).
    ``apply_activation`` is False only for the final layer. One fixed rule
    decides how W is stored in ``matrix``: a layer with at least
    ``SPARSE_MIN_WEIGHTS`` weights, at most ``SPARSE_MAX_DENSITY`` of them
    nonzero, holds a canonical ``scipy.sparse.csr_array`` (sorted indices,
    no duplicates, exactly the entries whose bits are nonzero, so -0.0 is
    kept); every other layer holds a dense float64 ndarray. The rule is
    applied to whatever W is given, dense or sparse. ``weights`` is W as a
    read-only dense array; for a sparse layer it is built on each access.
    """

    matrix: object
    biases: np.ndarray
    apply_activation: bool = True

    def __init__(self, weights, biases, apply_activation: bool = True):
        m = _stored(weights)
        b = np.atleast_1d(np.asarray(biases, dtype=np.float64))
        if b.shape != (m.shape[0],):
            raise ValueError(
                f"bias shape {b.shape} does not match {m.shape[0]} output rows"
            )
        if not (_all_finite(_values(m)) and _all_finite(b)):
            raise ValueError("layer parameters must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "apply_activation", apply_activation)

    @functools.cached_property
    def _gains(self) -> tuple[float, float]:
        """The largest row l1 norm of W and max |b|, so that
        ``max |W x + b| <= norm * max |x| + max |b|``. Computed on first
        use, so building or loading a net pays nothing for them."""
        m = self.matrix
        if isinstance(m, np.ndarray):
            norm = float(np.abs(m).sum(axis=1).max(initial=0.0))
        elif m.nnz:
            # a row's l1 norm is the sum of its stored values; reduceat
            # takes each nonempty row's start, and an empty row adds 0
            starts = m.indptr[:-1][np.diff(m.indptr) > 0]
            norm = float(np.add.reduceat(np.abs(m.data), starts).max())
        else:
            norm = 0.0
        return norm, _peak(self.biases)

    @property
    def weights(self) -> np.ndarray:
        """W as a read-only dense array, built anew for a sparse layer."""
        m = self.matrix
        return m if isinstance(m, np.ndarray) else _dense(m.shape, *matrix_entries(m))

    @property
    def out_width(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_width(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class FeedForwardNet:
    """Immutable fully connected network from R^input_dim to R.

    Invariants enforced at construction time:
      * consecutive layer dimensions chain,
      * the final layer is affine-only (no activation) with one output,
      * every earlier layer applies the activation,
      * all parameters are finite.

    Safe for concurrent read-only evaluation; nothing here mutates.
    """

    input_dim: int
    layers: tuple[AffineLayer, ...]
    metadata: str = ""

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.layers:
            raise ValueError("a network needs at least the output layer")
        expect = self.input_dim
        for idx, layer in enumerate(self.layers):
            if layer.in_width != expect:
                raise ValueError(
                    f"layer {idx} expects {layer.in_width} inputs, "
                    f"previous width is {expect}"
                )
            expect = layer.out_width
        last = self.layers[-1]
        if last.out_width != 1:
            raise ValueError("final layer must have a single output neuron")
        if last.apply_activation:
            raise ValueError("final layer must be affine-only")
        for idx, layer in enumerate(self.layers[:-1]):
            if not layer.apply_activation:
                raise ValueError(f"hidden layer {idx} must apply the activation")

    @property
    def hidden_layers(self) -> tuple[AffineLayer, ...]:
        return self.layers[:-1]


@dataclass(frozen=True)
class NetStats:
    """Depth / width / size / largest parameter magnitude of a network."""

    depth: int
    width: int
    size: int
    max_abs_weight: float


def _peak(h: np.ndarray, nonnegative: bool = False) -> float:
    """max |h| (0.0 for an empty h), found by reductions that allocate
    nothing; inf or NaN iff h holds an inf or a NaN: NaN propagates through
    max and min, and a ReLU output has no -inf, so its max alone decides."""
    if h.size == 0:
        return 0.0
    top = float(h.max())
    return top if nonnegative else max(top, -float(h.min()))


def _all_finite(h: np.ndarray, nonnegative: bool = False) -> bool:
    """True iff h holds no inf or NaN."""
    return bool(np.isfinite(_peak(h, nonnegative)))


SCAN_LIMIT = np.finfo(np.float64).max / 16
"""The largest bound on a layer's |values| at which :func:`evaluate_batch`
skips the layer's finiteness scan. The bound starts at max |x| and at each
layer becomes ``norm * bound + max |b|``, with ``norm`` the layer's largest
row l1 norm (:attr:`AffineLayer._gains`). Rounding can put a computed
value past the exact bound by a factor of at most (1 + gamma_k)(1 + u) per
layer of k inputs, with u = 2^-53 and gamma_k = k u / (1 - k u), since
``|fl(sum w_i x_i)| <= (1 + gamma_k) sum |w_i| |x_i|`` in any summation
order, with or without fused multiply-adds (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 3); the bound's own rounding can
put it as far below. Over all layers both stay within a factor of 1.001
while the layers sum to fewer than 2^40 inputs, far inside the 16 of this
limit, so below it no value can overflow. A bound past it, inf or NaN
scans the layer as before."""


TILE_BYTES = 2**20
"""Bytes of the widest hidden activation of one row tile in
:func:`evaluate_batch`: half the 2 MiB L2 cache of one core, which leaves
room for the layer's weights and the next activation. On the shards that
``mc_l2_error`` feeds ``depth3_max`` at d = 8, 32 and 64 and
``deep_max(256, 1e6, 2)`` (one thread, Xeon with 2 MiB L2), budgets from
256 KiB to 4 MiB ran within 5% of each other, in 34-49% less CPU time
than one pass over all rows."""
TILE_ROW_MULTIPLE = 96
"""A tile's rows are a multiple of this. BLAS gemm kernels work on blocks
of rows (24 in OpenBLAS 0.3.31's SkylakeX dgemm) and give the rows of a
last, partial block their bits through edge kernels, so a tile that ended
inside a block would round its last rows differently from one pass."""
TILE_MIN_MACS = 2**21
"""Fewest multiply-adds of a dense product on one tile. OpenBLAS computes
products of at most 100^3 multiply-adds with small-matrix kernels, whose
bits differ from those of its blocked kernels."""


def _tiling(net: FeedForwardNet) -> tuple[int, int]:
    """The row tiles of :func:`evaluate_batch`: how many leading layers run
    tile by tile, and the rows of one tile; (0, 0) for a net not tiled.

    The tiled layers are the hidden layers before the first one with a
    single output. numpy hands an (n, k) @ (k, 1) product to BLAS gemv,
    whose bits for a row depend on the row's place in the batch, so that
    layer and every later one run once over all n rows. A net is not tiled
    when that is its first layer, or when the last tiled layer is the
    widest, since its n-row buffer would then be the largest array anyway.
    """
    stop = next(i for i, layer in enumerate(net.layers) if layer.out_width == 1)
    widths = [layer.out_width for layer in net.layers[:stop]]
    if not widths or widths[-1] == max(widths):
        return 0, 0
    rows = max(1, TILE_BYTES // (8 * max(widths)))
    for layer in net.layers[:stop]:
        if isinstance(layer.matrix, np.ndarray):
            rows = max(rows, -(-TILE_MIN_MACS // layer.matrix.size))
    return stop, -(-rows // TILE_ROW_MULTIPLE) * TILE_ROW_MULTIPLE


BIAS_BLOCK_VALUES = 8192
"""Values of one block of rows in :func:`_add_bias`. numpy adds a bias to
an (n, w) array with one call of its inner loop per row, so a narrow layer
pays per row; a block of rows viewed as one long row is added in one call.
Per 65536 rows (one thread, Xeon) the add took 0.04 ms against 0.39 ms at
w = 2, 0.54 against 1.09 ms at w = 19 and 1.95 against 3.25 ms at w = 72.
Blocks of 512 to 32768 values were within 2x of each other, 8192 the
fastest."""


def _add_bias(h: np.ndarray, b: np.ndarray) -> None:
    """``h += b`` in place, bit for bit: a C-ordered h of at least one
    block takes the bias through whole blocks of rows, each viewed as one
    long row against the bias repeated along it, and the remainder rows as
    they are. One column already runs as one long row."""
    n, w = h.shape
    rows = BIAS_BLOCK_VALUES // w
    if w > 1 and rows > 1 and n >= rows and h.flags.c_contiguous:
        whole = n - n % rows
        blocks = h[:whole].reshape(-1, rows * w)  # a view: h is C-ordered
        blocks += np.tile(b, rows)
        h = h[whole:]
    h += b


def _passes(net: FeedForwardNet, peak: float) -> list[tuple[bool, bool]]:
    """For each layer of ``net``, on inputs with max |x| = ``peak``: whether
    :func:`_forward` must add its bias, and whether it must scan its
    output for inf and NaN.

    A ReLU layer whose biases are all zero skips the add. That is exact:
    ``x + 0.0`` and ``x + -0.0`` differ from x only where x is -0.0 and the
    bias +0.0, which gives +0.0, and ``np.maximum(-0.0, 0.0)`` is +0.0
    too. The affine output layer has no ReLU to clear a -0.0, so it always
    adds. A layer skips its scan while the bound that :data:`SCAN_LIMIT`
    describes stays at most that limit.
    """
    passes = []
    bound = peak
    for layer in net.layers:
        norm, bias_peak = layer._gains
        bound = norm * bound + bias_peak
        passes.append((bias_peak != 0.0 or not layer.apply_activation,
                       not bound <= SCAN_LIMIT))  # inf or NaN scans
    return passes


def _forward(layers, h: np.ndarray, X: np.ndarray, first_row: int,
             passes=None) -> np.ndarray:
    """Run ``layers`` on the activations h of the rows of X that start at
    ``first_row``, adding each layer's bias and scanning its output where
    ``passes`` (from :func:`_passes`; by default every layer does both)
    says so; raise :class:`NumericOverflowError` with the input row of the
    first non-finite value at the first scanned layer that holds one."""
    if passes is None:
        passes = itertools.repeat((True, True))
    for layer, (add_bias, scan) in zip(layers, passes):
        h = h @ layer.matrix.T
        if add_bias:
            _add_bias(h, layer.biases)
        if layer.apply_activation:
            np.maximum(h, 0.0, out=h)
        if scan and not _all_finite(h, nonnegative=layer.apply_activation):
            bad = first_row + int(np.argwhere(~np.isfinite(h))[0, 0])
            raise NumericOverflowError(
                "non-finite intermediate during evaluation", sample=X[bad].copy()
            )
    return h


def evaluate_batch(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of inputs, shape (n, input_dim) -> (n,).

    Each layer's bias and ReLU are applied in place to its fresh product,
    so the caller's X is never written. A sparse layer multiplies through
    scipy, which returns an ndarray, so the loop is the same for both.

    Two passes are skipped where they cannot change a bit (:func:`_passes`):
    the bias add of a ReLU layer whose biases are all zero, and the scan
    for inf and NaN of a layer whose values are bounded below
    :data:`SCAN_LIMIT` by max |x| (kept from the input check) and the row
    l1 norms and biases of the layers up to it. The output layer always
    adds its bias, and a layer whose bound reaches the limit is scanned as
    before.

    The hidden layers before the first single-output layer run over row
    tiles (:func:`_tiling`), so that a wide layer's product, bias, ReLU and
    finiteness scan stay in cache instead of streaming an n-row array; the
    last of them writes each tile into one n-row buffer, laid out as its
    product is, and the remaining layers run once over all n rows. Tiles
    are whole blocks of the gemm kernels' rows, large enough to skip the
    small-matrix kernels, and CSR products sum each row on its own, so
    with a single-threaded BLAS the result is bit for bit that of one
    pass. On two threads OpenBLAS's bits can change with the thread count
    and the row count, in gemm and gemv products alike (README, "Notes on
    numerics"); the constructions' outputs were found unchanged.

    On overflow, ``NumericOverflowError.sample`` is the input row of the
    first non-finite value of the first tile that makes one, at the first
    layer where it appears in that tile; without tiles the whole batch is
    that tile. A layer whose scan is skipped holds no such value, so this
    is the row that scanning every layer reports. The row really
    overflows, but an earlier row of the batch may overflow at a later
    layer.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"expected inputs of shape (n, {net.input_dim}), got {X.shape}"
        )
    peak = _peak(X)
    if not np.isfinite(peak):
        raise ValueError("inputs must be finite")
    passes = _passes(net, peak)
    n = X.shape[0]
    # a tile holds a positive multiple of TILE_ROW_MULTIPLE rows, so fewer
    # than two such multiples make a single tile whatever the net
    stop, rows = _tiling(net) if n >= 2 * TILE_ROW_MULTIPLE else (0, 0)
    if n < 2 * rows:  # a single tile: nothing to gain
        stop = 0
    h = X
    if stop:
        # the last tile takes the remainder, so no tile is shorter than rows
        edges = [*range(0, n - rows + 1, rows), n]
        for start, end in zip(edges, edges[1:]):
            tile = _forward(net.layers[:stop], X[start:end], X, start, passes[:stop])
            if start == 0:
                h = np.empty_like(tile, shape=(n, tile.shape[1]))
            h[start:end] = tile
    return _forward(net.layers[stop:], h, X, 0, passes[stop:])[:, 0]


def evaluate(net: FeedForwardNet, x: Sequence[float]) -> float:
    """Evaluate the network at a single point. Pure and deterministic."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected a vector of length {net.input_dim}, got {x.shape}")
    return float(evaluate_batch(net, x[None, :])[0])


def stats(net: FeedForwardNet) -> NetStats:
    """Compute depth, width, size, and max |parameter| of a network."""
    hidden = net.hidden_layers
    depth = len(hidden) + 1
    width = max((layer.out_width for layer in hidden), default=0)
    size = sum(layer.out_width for layer in net.layers)
    max_abs = 0.0
    for layer in net.layers:
        for p in (_values(layer.matrix), layer.biases):
            # max |p| without an |p|-sized temporary
            max_abs = max(max_abs, float(p.max(initial=0.0)), float(-p.min(initial=0.0)))
    return NetStats(depth=depth, width=width, size=size, max_abs_weight=max_abs)


JSON_CHUNK = 256
"""Numbers of an array that :func:`serialize` hands json in one call.
Until it returns, json's C encoder holds about 12 times the text it
writes (Python 3.11), on top of the array's list, about 40 B a number.
Whole layers at once made serialize's peak 15-24 times their text; in
chunks of 256 numbers it was 2.9-3.2 times the whole text of
``deep_max(64, 1e6, 2)``, ``depth3_max(32, 1e3)`` and
``deep_max(1024, 1e6, 2)``, with the time within noise of larger chunks."""


def _json_numbers(a: np.ndarray) -> list[str]:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` for a 1-D array,
    in pieces that json encodes one chunk at a time."""
    chunks = (
        json.dumps(a[i:i + JSON_CHUNK].tolist(), separators=_SEPARATORS)[1:-1]
        for i in range(0, len(a), JSON_CHUNK)
    )
    return ["[", ",".join(chunks), "]"]


def serialize(net: FeedForwardNet) -> str:
    """Serialize to a self-describing JSON document, ``maxnet-ffn/2``.

    Every layer's entry holds the ``shape`` of its matrix and the
    ``indptr``, ``indices`` and ``values`` arrays of its canonical CSR
    form, whether the layer is stored dense or sparse: the entries whose
    bits are nonzero, so -0.0 is written and +0.0 is not. Then come its
    ``biases`` and ``apply_activation``.

    The text is ``json.dumps(doc, separators=(",", ":"))`` byte for byte,
    but json encodes the header and each array apart, an array in chunks of
    :data:`JSON_CHUNK` numbers, so the lists of one chunk exist at a time.
    Floats are written with Python's shortest round-trip repr, so
    deserialize(serialize(net)) reproduces weights bit-exactly.
    """
    head = json.dumps(
        {
            "format": CSR_FORMAT_TAG,
            "input_dim": net.input_dim,
            "activation": "relu",
            "metadata": net.metadata,
        },
        separators=_SEPARATORS,
    )
    parts = [head[:-1], ',"layers":[']
    for i, layer in enumerate(net.layers):
        m = layer.matrix
        indptr, indices, values = matrix_entries(m)
        fields = {"shape": np.array(m.shape), "indptr": indptr, "indices": indices,
                  "values": values, "biases": layer.biases}
        parts.append(",{" if i else "{")
        for key, a in fields.items():
            parts += [f'"{key}":', *_json_numbers(a), ","]
        parts += ['"apply_activation":', json.dumps(layer.apply_activation), "}"]
    parts.append("]}")
    return "".join(parts)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", where)
    return doc[key]


def _require_numbers(entry: dict, key: str, where: str, rows: bool = False,
                     types=frozenset({float, int})):
    """The field ``key`` of a layer entry, if it is a list of JSON numbers
    of ``types`` or, with ``rows``, a list of such lists. Element types are
    compared exactly: ``true`` would pass ``isinstance(x, int)``, and numpy
    would read it, or a string like ``"1e3"``, as a number."""
    value = _require(entry, key, where)
    elements = value if type(value) is list else None
    if rows and elements is not None:
        nested = set(map(type, value)) <= {list}
        elements = itertools.chain.from_iterable(value) if nested else None
    if elements is None or not set(map(type, elements)) <= types:
        kind = "numbers" if float in types else "integers"
        kind = f"a list of lists of {kind}" if rows else f"a list of {kind}"
        raise ParseError(f"{key!r} must be {kind}", f"{where}.{key}")
    return value


def _int64(value: list, key: str, where: str, message: str) -> np.ndarray:
    """A list of ints as an int64 array; one that does not fit breaks the
    rule that ``message`` states."""
    try:
        return np.array(value, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{key!r} {message}", f"{where}.{key}") from None


def _csr_fields(entry: dict, where: str):
    """The shape, indptr, indices and values of the CSR entry of a layer
    in a ``maxnet-ffn/2`` document, as :func:`matrix_from_csr` takes
    them, once the entry is checked to be canonical: indptr runs from 0 to
    the number of entries without decreasing, the indices of each row lie
    in range and strictly increase, and every value is finite with nonzero
    bits (-0.0 is kept, +0.0 is never stored)."""
    shape = _require(entry, "shape", where)
    if not (type(shape) is list and len(shape) == 2
            and all(type(s) is int and s >= 0 for s in shape)):
        raise ParseError("'shape' must be two non-negative integers", f"{where}.shape")
    n_rows, n_cols = shape
    indptr = _require_numbers(entry, "indptr", where, types={int})
    indices = _require_numbers(entry, "indices", where, types={int})
    values = _require_numbers(entry, "values", where)
    nnz = len(indices)
    if len(values) != nnz:
        raise ParseError(f"'values' must have one entry per index, {nnz}", f"{where}.values")
    rule = f"must have {n_rows + 1} entries running from 0 to {nnz} without decreasing"
    if len(indptr) != n_rows + 1:
        raise ParseError(f"'indptr' {rule}", f"{where}.indptr")
    indptr = _int64(indptr, "indptr", where, rule)
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise ParseError(f"'indptr' {rule}", f"{where}.indptr")
    rule = f"must lie in [0, {n_cols})"
    indices = _int64(indices, "indices", where, rule)
    if nnz and (int(indices.min()) < 0 or int(indices.max()) >= n_cols):
        raise ParseError(f"'indices' {rule}", f"{where}.indices")
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < nnz)] - 1] = True  # a row may start lower
    if not rising.all():
        raise ParseError("'indices' must strictly increase within each row",
                         f"{where}.indices")
    try:
        values = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float64 range
        values = None
    if values is None or not _all_finite(values):
        raise ParseError("'values' must be finite", f"{where}.values")
    if not values.view(np.uint64).all():
        raise ParseError("'values' must not hold +0.0, which is never stored",
                         f"{where}.values")
    return (n_rows, n_cols), indptr, indices, values


def deserialize(text: str) -> FeedForwardNet:
    """Parse a network document: a ``maxnet-ffn/2`` one as
    :func:`serialize` writes it, or a ``maxnet-ffn/1`` one, whose layers
    hold dense ``weights`` rows; a ``/2`` layer may hold such rows too.

    Raises :class:`ParseError` with a location for malformed documents and
    ``ValueError`` for structurally valid documents that describe an
    inconsistent network (e.g. mismatched layer widths). A CSR entry is
    built straight into its stored form, so a layer the storage rule keeps
    dense never loads ``scipy.sparse``, and every layer goes through
    :class:`AffineLayer`, so a loaded net holds the arrays of the net that
    was saved.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", "root")
    tag = _require(doc, "format", "root")
    if tag not in (FORMAT_TAG, CSR_FORMAT_TAG):
        raise ParseError(
            f"unknown format {tag!r}, expected {FORMAT_TAG!r} or {CSR_FORMAT_TAG!r}", "format"
        )
    input_dim = _require(doc, "input_dim", "root")
    if not isinstance(input_dim, int) or isinstance(input_dim, bool):
        raise ParseError(f"'input_dim' must be an integer, got {input_dim!r}", "input_dim")
    layers_doc = _require(doc, "layers", "root")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise ParseError("'layers' must be a non-empty list", "layers")
    layers = []
    for idx, entry in enumerate(layers_doc):
        where = f"layers[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError("layer entry must be an object", where)
        if tag == CSR_FORMAT_TAG and "weights" not in entry:
            csr, weights = _csr_fields(entry, where), None
        else:
            csr, weights = None, _require_numbers(entry, "weights", where, rows=True)
        biases = _require_numbers(entry, "biases", where)
        apply_activation = _require(entry, "apply_activation", where)
        if not isinstance(apply_activation, bool):
            raise ParseError(
                f"'apply_activation' must be true or false, got {apply_activation!r}",
                f"{where}.apply_activation",
            )
        try:
            layer = AffineLayer(
                weights=matrix_from_csr(*csr) if csr else weights,
                biases=np.asarray(biases, dtype=np.float64),
                apply_activation=apply_activation,
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid layer at {where}: {exc}") from exc
        layers.append(layer)
    metadata = doc.get("metadata", "")
    if not isinstance(metadata, str):
        raise ParseError(f"'metadata' must be a string, got {metadata!r}", "metadata")
    activation = _require(doc, "activation", "root")
    if activation != "relu":
        raise ParseError(f"'activation' must be \"relu\", got {activation!r}", "activation")
    return FeedForwardNet(input_dim=input_dim, layers=tuple(layers), metadata=metadata)


def save(net: FeedForwardNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path) -> FeedForwardNet:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
