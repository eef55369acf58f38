"""Reference shortest paths the routing tests referee against.

The stack has one shortest-path implementation: the CSR compile plus
``scipy.sparse.csgraph.dijkstra`` in :mod:`repro.routing.csr`.  This
module holds the independent references it is checked against:

* networkx's pure-Python Dijkstra (distances and paths) under the same
  edge-weight rules as :meth:`CsrAdjacency.from_graph`;
* the graph form of :func:`~repro.routing.metrics.path_metrics`, which
  prices a path from each hop's attribute dict, and the raw ``delay_s``
  weight :data:`~repro.routing.metrics.DELAY_ONLY` compiles to;
* :class:`GraphSnapshot`, a hand-built graph in the array form every
  router reads of a :class:`~repro.core.network.NetworkSnapshot`;
* the per-epoch Figure 2(b) relay measurement, built as a networkx graph
  one epoch at a time from dense pairwise range and line-of-sight
  matrices;
* an eager all-pairs ``{(src, dst): path}`` table;
* the forward nearest-target rule, one full search per source.

They are slow and obviously right, which is all a referee needs to be.
"""

import math
from typing import Dict, List, Optional

import networkx as nx
import numpy as np

from repro.core.network import SnapshotEdges
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.visibility import GRAZING_ALTITUDE_KM
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import PROPAGATION_ONLY, EdgeCostModel, RouteMetrics
from tests.orbits.oracle import elevation_angles, line_of_sight_mask


def delay_weight(_u, _v, data) -> float:
    """Raw ``delay_s`` edge weight (networkx's ``weight="delay_s"``)."""
    return float(data.get("delay_s", 1.0))


def path_metrics(graph, path) -> RouteMetrics:
    """:class:`RouteMetrics` of a node path over a graph's edge dicts.

    Raises:
        ValueError: When the path is shorter than one edge or uses an edge
            absent from the graph.
    """
    if len(path) < 2:
        raise ValueError(f"path needs at least two nodes, got {list(path)}")
    propagation = 0.0
    queueing = 0.0
    tariff = 0.0
    bottleneck = float("inf")
    operators: List[str] = []
    for u, v in zip(path[:-1], path[1:]):
        data = graph.get_edge_data(u, v)
        if data is None:
            raise ValueError(f"edge {u!r}-{v!r} not present in graph")
        propagation += float(data.get("delay_s", 0.0))
        queueing += float(data.get("queue_delay_s", 0.0))
        tariff += float(data.get("tariff_per_gb", 0.0))
        bottleneck = min(bottleneck,
                         float(data.get("capacity_bps", float("inf"))))
        owner = data.get("owner")
        if owner is not None and (not operators or operators[-1] != owner):
            operators.append(owner)
    return RouteMetrics(
        path=list(path),
        propagation_delay_s=propagation,
        queue_delay_s=queueing,
        bottleneck_capacity_bps=bottleneck,
        total_tariff_per_gb=tariff,
        hop_count=len(path) - 1,
        operators=operators,
    )


#: Node kinds in :class:`~repro.core.network.NetworkSnapshot` order;
#: nodes of any other kind (or none) come last.
_KIND_ORDER = ("satellite", "ground_station", "user")


class GraphSnapshot:
    """A hand-built undirected graph as the arrays a router reads.

    The stand-in for a :class:`~repro.core.network.NetworkSnapshot` in
    tests whose topology is drawn by hand: nodes in snapshot order
    (satellites, stations, users, then any other node, each kind in
    graph order), one :class:`~repro.core.network.SnapshotEdges` row per
    edge in graph order with the snapshot's defaults (0.0 for a missing
    delay, tariff or queue delay, ``inf`` for a missing capacity), and
    each edge's ``owner`` attribute as its owner.
    """

    def __init__(self, graph, time_s: float = 0.0):
        #: The graph this stands for, for the referees.
        self.graph = graph
        self.time_s = time_s
        kinds = dict(graph.nodes(data="kind"))
        self.nodes = sorted(graph.nodes, key=lambda node: (
            _KIND_ORDER.index(kinds[node]) if kinds[node] in _KIND_ORDER
            else len(_KIND_ORDER)))
        self._kinds = kinds
        self.owners = [graph.nodes[node].get("owner") for node in self.nodes]
        self.index: Dict = {node: i for i, node in enumerate(self.nodes)}
        rows = list(graph.edges(data=True))
        self.edges = SnapshotEdges(
            np.array([self.index[u] for u, _, _ in rows], dtype=np.int32),
            np.array([self.index[v] for _, v, _ in rows], dtype=np.int32),
            np.array([float(d.get("delay_s", 0.0)) for _, _, d in rows]),
            np.array([float(d.get("capacity_bps", math.inf))
                      for _, _, d in rows]),
            np.array([float(d.get("tariff_per_gb", 0.0)) for _, _, d in rows]),
            np.array([float(d.get("queue_delay_s", 0.0)) for _, _, d in rows]),
        )
        self._edge_owners = [d.get("owner") for _, _, d in rows]
        self._rows = {frozenset((u, v)): row
                      for row, (u, v, _) in enumerate(rows)}
        self._csr: Dict[EdgeCostModel, CsrAdjacency] = {}

    def nodes_of_kind(self, kind: str) -> List:
        return [node for node in self.nodes if self._kinds[node] == kind]

    def edge_row(self, node_a, node_b) -> Optional[int]:
        return self._rows.get(frozenset((node_a, node_b)))

    def edge_owner(self, row: int):
        return self._edge_owners[row]

    def csr_adjacency(self, cost_model=None) -> CsrAdjacency:
        model = cost_model or PROPAGATION_ONLY
        if model not in self._csr:
            edges = self.edges
            self._csr[model] = CsrAdjacency.from_edges(
                self.nodes, edges.u, edges.v, edges.costs(model))
        return self._csr[model]


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


def nearest_paths(adjacency, sources, targets):
    """Each source's path to its nearest target, one search per source.

    ``adjacency.shortest_paths(sources)``, then per source the
    first-listed target at the least distance and that target's
    ``.path`` (``None`` when no target is reachable): the rule
    ``CsrAdjacency.nearest_target_paths`` and
    ``ShortestPaths.nearest_paths`` must reproduce.
    """
    sources = list(sources)
    targets = list(targets)
    shortest = adjacency.shortest_paths(sources)
    columns = [adjacency.index[target] for target in targets]
    paths = []
    for row, source in enumerate(sources):
        distances = shortest.dist[row, columns]
        best = int(np.argmin(distances))
        paths.append(shortest.path(source, targets[best])
                     if math.isfinite(distances[best]) else None)
    return paths


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


def time_expanded_graph(router) -> nx.DiGraph:
    """A :class:`~repro.routing.timeexpanded.TimeExpandedRouter`'s plan as
    the networkx graph it stands for, built from each snapshot's
    ``.graph``: node ``(entity, k)`` per entity (first-seen order) and
    epoch, a contact edge each way per link, and a storage edge from
    each epoch to the next."""
    graph = nx.DiGraph()
    snapshots = router.snapshots
    entities = list(dict.fromkeys(
        node for snap in snapshots for node in snap.graph.nodes))
    for k, snap in enumerate(snapshots):
        for entity in entities:
            graph.add_node((entity, k))
        for u, v, data in snap.graph.edges(data=True):
            delay = float(data.get("delay_s", 0.0))
            graph.add_edge((u, k), (v, k), delay_s=delay, kind="contact")
            graph.add_edge((v, k), (u, k), delay_s=delay, kind="contact")
        if k + 1 < len(snapshots):
            wait = router.epoch_times[k + 1] - router.epoch_times[k]
            for entity in entities:
                graph.add_edge((entity, k), (entity, k + 1), delay_s=wait,
                               kind="storage")
    return graph
