"""Weight graphs given by an adjacency matrix, for the triangle tests.

A :class:`maxnet.WeightGraph` holds only its removed edges. These helpers
turn a hand-built adjacency into that form and back. A helper module, not
a test module: pytest does not collect it.
"""

import numpy as np

from maxnet import WeightGraph


def graph_of(adj: np.ndarray) -> WeightGraph:
    """The graph of a symmetric boolean adjacency with no self-loops: every
    absent pair (i, j), i < j, is a removed edge that no neuron removed."""
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    i, j = np.nonzero(np.triu(~adj, 1))
    return WeightGraph(d=len(adj), removed_by={e: () for e in zip(i.tolist(), j.tolist())})


def adjacency_of(g: WeightGraph) -> np.ndarray:
    """The d x d adjacency of ``g``, one :meth:`WeightGraph.neighbours` row
    per vertex."""
    return np.array([g.neighbours(v) for v in range(g.d)], dtype=bool).reshape(g.d, g.d)
