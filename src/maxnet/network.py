"""Feedforward network representation, evaluation, and serialization.

A network is an immutable stack of affine layers. Every layer except the
last applies ReLU elementwise; the last layer is purely affine with a
single output neuron. Depth is the number of hidden layers plus one, width
is the size of the largest hidden layer, and size is the total neuron count
across all layers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FORMAT_TAG = "maxnet-ffn/1"


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


@dataclass(frozen=True)
class AffineLayer:
    """One affine map ``z = W x + b``, optionally followed by the activation.

    ``weights`` has shape (out_width, in_width); ``biases`` has shape
    (out_width,). ``apply_activation`` is False only for the final layer.
    """

    weights: np.ndarray
    biases: np.ndarray
    apply_activation: bool = True

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weights, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.biases, dtype=np.float64))
        if w.ndim != 2:
            raise ValueError(f"weights must be a matrix, got ndim={w.ndim}")
        if b.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {b.shape} does not match {w.shape[0]} output rows"
            )
        if not (_all_finite(w) and _all_finite(b)):
            raise ValueError("layer parameters must be finite")
        w = np.ascontiguousarray(w)
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


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
    activation: str = "relu"
    metadata: str = ""

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.layers:
            raise ValueError("a network needs at least the output layer")
        if self.activation != "relu":
            raise ValueError(
                f"unknown activation {self.activation!r}; only 'relu' is supported"
            )
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


def _all_finite(h: np.ndarray, nonnegative: bool = False) -> bool:
    """True iff h holds no inf or NaN, found by reductions that allocate
    nothing: NaN propagates through max and min, and a ReLU output has no
    -inf, so its max alone decides."""
    if h.size == 0:
        return True
    return bool(np.isfinite(h.max()) and (nonnegative or np.isfinite(h.min())))


def evaluate_batch(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of inputs, shape (n, input_dim) -> (n,).

    Each layer's bias and ReLU are applied in place to its fresh product,
    so the caller's X is never written.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"expected inputs of shape (n, {net.input_dim}), got {X.shape}"
        )
    if not _all_finite(X):
        raise ValueError("inputs must be finite")
    h = X
    for layer in net.layers:
        h = h @ layer.weights.T
        h += layer.biases
        if layer.apply_activation:
            np.maximum(h, 0.0, out=h)
        if not _all_finite(h, nonnegative=layer.apply_activation):
            bad = int(np.argwhere(~np.isfinite(h))[0, 0])
            raise NumericOverflowError(
                "non-finite intermediate during evaluation", sample=X[bad].copy()
            )
    return h[:, 0]


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
        for p in (layer.weights, layer.biases):
            # max |p| without an |p|-sized temporary
            max_abs = max(max_abs, float(p.max(initial=0.0)), float(-p.min(initial=0.0)))
    return NetStats(depth=depth, width=width, size=size, max_abs_weight=max_abs)


def _json_array(a: np.ndarray, pad: str) -> str:
    """A 1-D or 2-D float64 array laid out as ``json.dumps(..., indent=1)``
    lays out ``a.tolist()`` where its closing bracket is indented by ``pad``.

    json writes every finite float with ``float.__repr__``; ``AffineLayer``
    admits no other values, so json's NaN and Infinity cases never arise.
    """
    if not len(a):
        return "[]"
    inner = pad + " "
    if a.ndim == 1:
        items = map(float.__repr__, a.tolist())
    else:
        items = (_json_array(row, inner) for row in a)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def serialize(net: FeedForwardNet) -> str:
    """Serialize to a self-describing JSON document.

    The text is byte for byte what ``json.dumps(doc, indent=1)`` writes for
    the whole document, but only the scalar header goes through json, which
    also escapes ``metadata``. With ``indent`` set, json falls back to its
    pure-Python encoder and walks every weight one value at a time, so the
    weight and bias arrays are written by :func:`_json_array`, which hands
    each row to ``float.__repr__`` and ``str.join`` in one call.

    Floats are emitted with Python's shortest round-trip repr, so
    deserialize(serialize(net)) reproduces weights bit-exactly.
    """
    head = json.dumps(
        {
            "format": FORMAT_TAG,
            "input_dim": net.input_dim,
            "activation": net.activation,
            "metadata": net.metadata,
        },
        indent=1,
    )
    parts = [head[: -len("\n}")], ',\n "layers": [']
    for layer in net.layers:
        parts += [
            '\n  {\n   "weights": ', _json_array(layer.weights, "   "),
            ',\n   "biases": ', _json_array(layer.biases, "   "),
            ',\n   "apply_activation": ', json.dumps(layer.apply_activation),
            "\n  },",
        ]
    parts[-1] = "\n  }"  # no comma after the last layer
    parts.append("\n ]\n}")
    return "".join(parts)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", where)
    return doc[key]


def _require_numbers(entry: dict, key: str, where: str, rows: bool):
    """The field ``key`` of a layer entry, if it is a list of JSON numbers
    or, with ``rows``, a list of such lists. Element types are compared
    exactly: ``true`` would pass ``isinstance(x, int)``, and numpy would
    read it, or a string like ``"1e3"``, as a number."""
    value = _require(entry, key, where)
    elements = value if type(value) is list else None
    if rows and elements is not None:
        nested = set(map(type, value)) <= {list}
        elements = itertools.chain.from_iterable(value) if nested else None
    if elements is None or not set(map(type, elements)) <= {float, int}:
        kind = "a list of lists of numbers" if rows else "a list of numbers"
        raise ParseError(f"{key!r} must be {kind}", f"{where}.{key}")
    return value


def deserialize(text: str) -> FeedForwardNet:
    """Parse a document produced by :func:`serialize`.

    Raises :class:`ParseError` with a location for malformed documents and
    ``ValueError`` for structurally valid documents that describe an
    inconsistent network (e.g. mismatched layer widths).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", "root")
    tag = _require(doc, "format", "root")
    if tag != FORMAT_TAG:
        raise ParseError(f"unknown format {tag!r}, expected {FORMAT_TAG!r}", "format")
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
        weights = _require_numbers(entry, "weights", where, rows=True)
        biases = _require_numbers(entry, "biases", where, rows=False)
        apply_activation = _require(entry, "apply_activation", where)
        if not isinstance(apply_activation, bool):
            raise ParseError(
                f"'apply_activation' must be true or false, got {apply_activation!r}",
                f"{where}.apply_activation",
            )
        try:
            layer = AffineLayer(
                weights=np.asarray(weights, dtype=np.float64),
                biases=np.asarray(biases, dtype=np.float64),
                apply_activation=apply_activation,
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid layer at {where}: {exc}") from exc
        layers.append(layer)
    metadata = doc.get("metadata", "")
    if not isinstance(metadata, str):
        raise ParseError(f"'metadata' must be a string, got {metadata!r}", "metadata")
    return FeedForwardNet(
        input_dim=input_dim,
        layers=tuple(layers),
        activation=str(_require(doc, "activation", "root")),
        metadata=metadata,
    )


def save(net: FeedForwardNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path) -> FeedForwardNet:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
