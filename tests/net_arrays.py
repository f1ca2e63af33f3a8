"""Bitwise comparison of two nets or two stored weight matrices, for the
tests of saved files and stored entries. A helper module, not a test
module: pytest does not collect it."""

import numpy as np

from maxnet import FeedForwardNet
from maxnet.network import _values


def assert_same_matrix(a, b) -> None:
    """Two stored weight matrices hold the same arrays, bit for bit, stored
    the same way."""
    assert type(a) is type(b) and a.shape == b.shape
    if not isinstance(a, np.ndarray):
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert np.array_equal(_values(a).view(np.uint64), _values(b).view(np.uint64))


def assert_same_arrays(net: FeedForwardNet, clone: FeedForwardNet) -> None:
    """The two nets hold the same arrays, bit for bit, stored the same way."""
    assert (clone.input_dim, clone.metadata) == (net.input_dim, net.metadata)
    for a, b in zip(net.layers, clone.layers, strict=True):
        assert_same_matrix(a.matrix, b.matrix)
        assert np.array_equal(a.biases.view(np.uint64), b.biases.view(np.uint64))
        assert a.apply_activation == b.apply_activation
