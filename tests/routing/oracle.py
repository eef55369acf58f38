"""Reference shortest paths the routing tests referee against.

The stack has one shortest-path implementation: the CSR compile plus
``scipy.sparse.csgraph.dijkstra`` in :mod:`repro.routing.csr`.  This
module holds the independent references it is checked against:

* networkx's pure-Python Dijkstra (distances and paths) under the same
  edge-weight rules as :meth:`CsrAdjacency.from_graph`;
* the per-epoch Figure 2(b) relay measurement, built as a networkx graph
  one epoch at a time from dense pairwise range and line-of-sight
  matrices;
* an eager all-pairs ``{(src, dst): path}`` table.

They are slow and obviously right, which is all a referee needs to be.
"""

import math

import networkx as nx
import numpy as np

from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.visibility import (
    GRAZING_ALTITUDE_KM,
    elevation_angles,
    line_of_sight_mask,
)
from repro.routing.metrics import PROPAGATION_ONLY, EdgeCostModel


def oracle_weight(weight=None):
    """A networkx weight callable with the CSR compile's edge rules.

    ``weight`` is a cost model, a ``(u, v, data)`` callable, or ``None``
    (:data:`PROPAGATION_ONLY`).  A ``None`` or non-finite cost hides the
    edge, exactly as it drops the edge from the CSR arrays.  The CSR
    compile prices an undirected edge once, so callables used on
    undirected graphs must be symmetric in ``u`` and ``v``.
    """
    if weight is None:
        weight = PROPAGATION_ONLY
    if isinstance(weight, EdgeCostModel):
        model = weight

        def weight(_u, _v, data):
            return model.edge_cost(data)

    def admissible(u, v, data):
        cost = weight(u, v, data)
        if cost is None or not math.isfinite(cost):
            return None
        return float(cost)

    return admissible


def dijkstra(graph, source, weight=None, exclude=()):
    """networkx single-source Dijkstra: ``({node: dist}, {node: path})``.

    Nodes in ``exclude`` are removed from the graph first, as
    ``CsrAdjacency.from_graph(..., exclude=...)`` leaves them out.
    Unreachable nodes are absent from both dicts.
    """
    excluded = frozenset(exclude)
    if excluded:
        graph = nx.subgraph_view(graph,
                                 filter_node=lambda n: n not in excluded)
    return nx.single_source_dijkstra(graph, source,
                                     weight=oracle_weight(weight))


def path(graph, source, target, weight=None):
    """One shortest path, or ``None`` when unreachable or unknown."""
    if source not in graph or target not in graph:
        return None
    _dist, paths = dijkstra(graph, source, weight)
    return paths.get(target)


def path_cost(graph, nodes, weight=None):
    """The cost of a path, summed from the source outward.

    That is the order Dijkstra accumulates a distance in, so the sum is
    bit-equal to the distance the search reports for the path's end.
    """
    weight_fn = oracle_weight(weight)
    total = 0.0
    for u, v in zip(nodes[:-1], nodes[1:]):
        total += weight_fn(u, v, graph[u][v])
    return total


def all_pairs_paths(graph, weight=None):
    """Eager ``{(src, dst): path}`` over every reachable ordered pair."""
    table = {}
    for source in graph.nodes:
        _dist, paths = dijkstra(graph, source, weight)
        for target, nodes in paths.items():
            if target != source:
                table[(source, target)] = nodes
    return table


def pairwise_slant_ranges(positions_km: np.ndarray) -> np.ndarray:
    """All pairwise distances for ``(N, 3)`` positions; shape ``(N, N)``.

    One broadcast pass replacing the O(N^2) scalar :func:`slant_range`
    loop in topology construction and relay-graph building.
    """
    pos = np.atleast_2d(np.asarray(positions_km, dtype=float))
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def pairwise_line_of_sight(positions_km: np.ndarray,
                           grazing_altitude_km: float = GRAZING_ALTITUDE_KM) -> np.ndarray:
    """Line-of-sight matrix for ``(N, 3)`` positions; shape ``(N, N)``."""
    pos = np.atleast_2d(np.asarray(positions_km, dtype=float))
    return line_of_sight_mask(pos[:, None, :], pos[None, :, :],
                              grazing_altitude_km)


def relay_latency_s(positions, user_eci, gateway_eci,
                    min_elevation_deg=10.0, max_isl_range_km=6000.0):
    """The paper's Figure 2(b) measurement for one constellation state.

    Shortest propagation path: user -> pickup satellite -> (ISLs) ->
    relay satellite -> ground station.  Every line-of-sight pair within
    ISL range is a usable relay hop, matching the paper's "simplified
    simulation".  The graph is built per epoch from the pairwise range
    and line-of-sight matrices and searched with networkx.

    Returns None when the user or gateway sees no satellite, or the relay
    graph does not connect them.
    """
    count = positions.shape[0]
    mask_rad = math.radians(min_elevation_deg)
    graph = nx.Graph()
    graph.add_node("user")
    graph.add_node("gateway")
    graph.add_nodes_from(range(count))
    for endpoint, ground_eci in (("user", user_eci), ("gateway", gateway_eci)):
        elevations = elevation_angles(ground_eci, positions)
        deltas = positions - np.asarray(ground_eci, dtype=float)
        ranges = np.sqrt((deltas * deltas).sum(axis=-1))
        for i in np.nonzero(elevations >= mask_rad)[0]:
            graph.add_edge(endpoint, int(i),
                           delay_s=float(ranges[i]) / SPEED_OF_LIGHT_KM_S)
    if count >= 2:
        distances = pairwise_slant_ranges(positions)
        feasible = (
            (distances <= max_isl_range_km)
            & pairwise_line_of_sight(positions)
        )
        rows_idx, cols_idx = np.triu_indices(count, k=1)
        keep = feasible[rows_idx, cols_idx]
        for i, j in zip(rows_idx[keep], cols_idx[keep]):
            graph.add_edge(int(i), int(j),
                           delay_s=float(distances[i, j]) / SPEED_OF_LIGHT_KM_S)
    try:
        return nx.dijkstra_path_length(graph, "user", "gateway",
                                       weight="delay_s")
    except nx.NetworkXNoPath:
        return None
