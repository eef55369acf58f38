"""Edge cost models and end-to-end route metrics.

Routing operates over :class:`networkx.Graph` snapshots whose edges carry
``delay_s`` and ``capacity_bps`` (set by the ISL topology builder and the
ground-segment attachment code) and optionally ``queue_delay_s``,
``tariff_per_gb``, and ``owner``.  The cost model turns those attributes
into a single additive edge weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import networkx as nx
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
        """Cost of one edge from its attribute dict."""
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

    def weight_fn(self):
        """A networkx-compatible ``weight(u, v, data)`` callable."""
        def weight(_u, _v, data):
            return self.edge_cost(data)
        return weight


#: The default route cost: summed propagation and queueing delay
#: (``queue_weight=1``), no tariff or bottleneck term.  Despite the name,
#: a route into a gateway pays the station's queueing proxy
#: (:attr:`~repro.ground.station.GroundStation.queue_delay_s`, 2 ms when
#: idle) on top of the speed-of-light delay.
PROPAGATION_ONLY = EdgeCostModel()


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


def path_metrics(graph: nx.Graph, path: Sequence[str]) -> RouteMetrics:
    """Compute :class:`RouteMetrics` for a node sequence.

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
        bottleneck = min(bottleneck, float(data.get("capacity_bps", float("inf"))))
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

