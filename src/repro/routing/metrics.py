"""Edge cost models and end-to-end route metrics.

Routing operates over a snapshot's edge arrays
(:class:`~repro.core.network.SnapshotEdges`): every edge carries
``delay_s`` and ``capacity_bps``, and a station link also a
``queue_delay_s`` and a ``tariff_per_gb`` (0.0 on the other edges).  The
cost model turns those attributes into a single additive edge weight;
:func:`path_metrics` prices one concrete path from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class EdgeCostModel:
    """Additive edge-cost weights.

    ``cost = delay_s + queue_delay_s * queue_weight
           + tariff_per_gb * tariff_weight
           + congestion_penalty(capacity)``

    Attributes:
        queue_weight: Scales reported queueing delay into cost seconds.
        tariff_weight: Seconds of cost per $/GB of tariff — expresses how
            much latency an operator will trade to avoid visitor fees.
        min_capacity_bps: Edges below this capacity get the bottleneck
            penalty (proxy for serialization/congestion on thin RF ISLs).
        bottleneck_penalty_s: Cost added to sub-threshold edges.
    """

    queue_weight: float = 1.0
    tariff_weight: float = 0.0
    min_capacity_bps: float = 0.0
    bottleneck_penalty_s: float = 0.0

    def edge_cost(self, data: dict) -> float:
        """Cost of one edge from its attribute dict (the graph views'
        form, which :meth:`~repro.routing.csr.CsrAdjacency.from_graph`
        compiles)."""
        cost = float(data.get("delay_s", 0.0))
        cost += self.queue_weight * float(data.get("queue_delay_s", 0.0))
        cost += self.tariff_weight * float(data.get("tariff_per_gb", 0.0))
        capacity = float(data.get("capacity_bps", float("inf")))
        if capacity < self.min_capacity_bps:
            cost += self.bottleneck_penalty_s
        return cost

    def edge_costs(self, delay_s: np.ndarray, queue_delay_s: np.ndarray,
                   tariff_per_gb: np.ndarray,
                   capacity_bps: np.ndarray) -> np.ndarray:
        """:meth:`edge_cost` over parallel attribute arrays.

        The same float operations in the same order, so every entry
        equals the scalar cost bit for bit; pass zeros for attributes an
        edge lacks, as :meth:`edge_cost` defaults them.
        """
        cost = delay_s + self.queue_weight * queue_delay_s
        cost = cost + self.tariff_weight * tariff_per_gb
        return np.where(capacity_bps < self.min_capacity_bps,
                        cost + self.bottleneck_penalty_s, cost)


#: The default route cost: summed propagation and queueing delay
#: (``queue_weight=1``), no tariff or bottleneck term.  Despite the name,
#: a route into a gateway pays the station's queueing proxy
#: (:data:`~repro.ground.station.GATEWAY_QUEUE_DELAY_S`, 2 ms) on top of
#: the speed-of-light delay.
PROPAGATION_ONLY = EdgeCostModel()

#: Raw propagation delay per edge (no queueing term): the cost of the
#: scale sweep's gateway probe, the demand route map, the static-nearest
#: flow router and the data-sovereignty example.
DELAY_ONLY = EdgeCostModel(queue_weight=0.0)


@dataclass(frozen=True)
class RouteMetrics:
    """End-to-end metrics of one concrete path.

    Attributes:
        path: Node sequence, source first.
        propagation_delay_s: Sum of per-hop propagation delays.
        queue_delay_s: Sum of per-hop queueing delays.
        bottleneck_capacity_bps: Minimum edge capacity along the path.
        total_tariff_per_gb: Sum of per-hop visitor tariffs.
        hop_count: Number of edges.
        operators: Distinct edge owners traversed, in path order.
    """

    path: List[str]
    propagation_delay_s: float
    queue_delay_s: float
    bottleneck_capacity_bps: float
    total_tariff_per_gb: float
    hop_count: int
    operators: List[str]

    @property
    def total_delay_s(self) -> float:
        return self.propagation_delay_s + self.queue_delay_s

    @property
    def total_delay_ms(self) -> float:
        return self.total_delay_s * 1000.0


def path_metrics(snap, path: Sequence[str]) -> RouteMetrics:
    """:class:`RouteMetrics` of a node path over a snapshot's edge arrays.

    Each hop reads its edge's row of ``snap.edges``
    (:meth:`~repro.core.network.NetworkSnapshot.edge_row`): delays and
    tariffs add up in path order, the capacity is the least one, and
    each hop's owner (:meth:`~repro.core.network.NetworkSnapshot
    .edge_owner`; an ISL has none) joins the operator list when it
    differs from the last one listed.

    Raises:
        ValueError: When the path is shorter than one edge or uses an edge
            absent from the snapshot.
    """
    if len(path) < 2:
        raise ValueError(f"path needs at least two nodes, got {list(path)}")
    edges = snap.edges
    propagation = 0.0
    queueing = 0.0
    tariff = 0.0
    bottleneck = float("inf")
    operators: List[str] = []
    for u, v in zip(path[:-1], path[1:]):
        row = snap.edge_row(u, v)
        if row is None:
            raise ValueError(f"edge {u!r}-{v!r} not present in snapshot")
        propagation += float(edges.delay_s[row])
        queueing += float(edges.queue_delay_s[row])
        tariff += float(edges.tariff_per_gb[row])
        bottleneck = min(bottleneck, float(edges.capacity_bps[row]))
        owner = snap.edge_owner(row)
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
