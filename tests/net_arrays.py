"""Bitwise comparison of two nets, for the tests of saved files. A helper
module, not a test module: pytest does not collect it."""

import numpy as np

from maxnet import FeedForwardNet
from maxnet.network import _values


def assert_same_arrays(net: FeedForwardNet, clone: FeedForwardNet) -> None:
    """The two nets hold the same arrays, bit for bit, stored the same way."""
    assert (clone.input_dim, clone.metadata) == (net.input_dim, net.metadata)
    for a, b in zip(net.layers, clone.layers, strict=True):
        assert type(a.matrix) is type(b.matrix) and a.matrix.shape == b.matrix.shape
        if not isinstance(a.matrix, np.ndarray):
            for x, y in ((a.matrix.indptr, b.matrix.indptr),
                         (a.matrix.indices, b.matrix.indices)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        values_a, values_b = _values(a.matrix), _values(b.matrix)
        assert np.array_equal(values_a.view(np.uint64), values_b.view(np.uint64))
        assert np.array_equal(a.biases.view(np.uint64), b.biases.view(np.uint64))
        assert a.apply_activation == b.apply_activation
