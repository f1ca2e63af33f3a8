"""Spans around calls into maxnet's public functions, taken from outside.

The modules bind each other's functions by name (``sampling`` and
``analysis`` hold ``evaluate_batch``; ``analysis`` holds ``mc_l2_error``
and ``row_max``; ``cli`` holds ``load``, ``serialize``, the constructors
and the estimators), so a wrapper replaces the original under every name,
in every ``maxnet`` module, that refers to it. Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

import maxnet
from maxnet import analysis, constructions, network, sampling, training


class Tracer:
    """Nested spans (name, start, end, parent) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        parent = stack[-1] if stack else -1
        self.record = [self.name, time.process_time(), None, parent]
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[2] = time.process_time()
        self.tracer._stack().pop()
        return False


# nonzero counts of weight matrices by id, held through a weak reference so
# that tracing neither recounts a large layer nor keeps it alive
_nnz_cache: dict[int, tuple[weakref.ref, int]] = {}


def _nnz(w: np.ndarray) -> int:
    hit = _nnz_cache.get(id(w))
    if hit is not None and hit[0]() is w:
        return hit[1]
    n = int(np.count_nonzero(w))
    _nnz_cache[id(w)] = (weakref.ref(w), n)
    return n


def _count_evaluate(counts, args, kwargs, result):
    net, X = args[0], args[1]
    rows = len(X)
    counts["network.rows"] += rows
    counts["network.dense_macs"] += rows * sum(l.weights.size for l in net.layers)
    counts["network.useful_macs"] += rows * sum(_nnz(l.weights) for l in net.layers)


def _count_build(counts, args, kwargs, net):
    for layer in net.layers:
        counts["constructions.weight_bytes"] += layer.weights.nbytes + layer.biases.nbytes
        counts["constructions.nonzeros"] += _nnz(layer.weights) + int(np.count_nonzero(layer.biases))


def _count_serialize(counts, args, kwargs, text):
    counts["network.json_bytes"] += len(text)


def _count_deserialize(counts, args, kwargs, net):
    counts["network.json_bytes"] += len(args[0])


def _count_sample(counts, args, kwargs, X):
    counts["sampling.samples"] += len(X)


def _count_violation(counts, args, kwargs, mask):
    n, d = args[0].shape
    counts["sampling.violation_bytes"] = max(counts["sampling.violation_bytes"], n * d * d * 8)


def _count_train(counts, args, kwargs, result):
    counts["training.steps"] += args[0].steps


# (module, attribute, span name, counter)
TARGETS = (
    (constructions, "depth3_max", "constructions.build", _count_build),
    (constructions, "deep_max", "constructions.build", _count_build),
    (constructions, "exact_max_tree", "constructions.build", _count_build),
    (network, "evaluate_batch", "network.evaluate_batch", _count_evaluate),
    (network, "serialize", "network.serialize", _count_serialize),
    (network, "deserialize", "network.deserialize", _count_deserialize),
    (sampling, "row_max", "sampling.row_max", None),
    (sampling, "mc_l2_error", "sampling.mc_l2_error", None),
    (sampling, "_violation_mask", "sampling.violation", _count_violation),
    (analysis, "kernel_direction", "analysis.kernel_direction", None),
    (analysis, "kernel_constancy_deviation", "analysis.constancy", None),
    (analysis, "parallelotope_floor", "analysis.parallelotope_floor", None),
    (training, "train", "training.train", _count_train),
)


def install(tracer: Tracer) -> None:
    """Replace every traced function under each of its names in maxnet."""
    modules = [m for name, m in sys.modules.items() if name == "maxnet" or name.startswith("maxnet.")]
    for module, attr, name, count in TARGETS:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    spec = maxnet.DistributionSpec
    spec.sample = tracer.wrap("sampling.sample", spec.sample, _count_sample)


# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "cli.construct": "cli.construct_s",
    "cli.error": "cli.error_s",
    "constructions.build": "constructions.build_s",
    "network.evaluate_batch": "network.evaluate_batch_s",
    "network.serialize": "network.serialize_s",
    "network.deserialize": "network.deserialize_s",
    "sampling.sample": "sampling.sample_s",
    "sampling.row_max": "sampling.row_max_s",
    "sampling.mc_l2_error": "sampling.mc_l2_error_self_s",
    "sampling.violation": "sampling.violation_s",
    "analysis.kernel_direction": "analysis.kernel_direction_s",
    "analysis.constancy": "analysis.constancy_s",
    "analysis.parallelotope_floor": "analysis.parallelotope_floor_self_s",
    "training.train": "training.train_s",
}

COUNT_METRICS = (
    "cli.bytes_written",
    "constructions.weight_bytes",
    "constructions.nonzeros",
    "network.rows",
    "network.dense_macs",
    "network.useful_macs",
    "network.json_bytes",
    "sampling.samples",
    "sampling.violation_bytes",
    "training.steps",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times and counts of one traced round, by per-layer metric name."""
    self_times = tracer.self_times()
    out = {metric: self_times.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out.update({name: float(tracer.counts.get(name, 0.0)) for name in COUNT_METRICS})
    out["network.evaluate_batch_calls"] = float(tracer.calls("network.evaluate_batch"))
    dense = out["network.dense_macs"]
    out["network.mac_density"] = out["network.useful_macs"] / dense if dense else 0.0
    return out
