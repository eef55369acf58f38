"""Hand-built snapshot edge tables for the fluid-plane tests."""

import numpy as np

from repro.core.network import SnapshotEdges
from repro.routing.csr import CsrAdjacency


def edge_table(nodes, rows):
    """The route CSR and edge arrays of ``(u, v, delay_s, capacity_bps)``
    rows over ``nodes``, as the fluid engine reads a snapshot.

    The CSR costs each edge its delay, the demand sweep's route cost.
    """
    index = {node: i for i, node in enumerate(nodes)}
    u = np.array([index[row[0]] for row in rows])
    v = np.array([index[row[1]] for row in rows])
    zeros = np.zeros(len(rows))
    edges = SnapshotEdges(u, v, np.array([row[2] for row in rows]),
                          np.array([row[3] for row in rows]), zeros, zeros)
    return CsrAdjacency.from_edges(list(nodes), u, v, edges.delay_s), edges
