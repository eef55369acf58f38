"""Heterogeneity- and QoS-aware routing.

The paper: packets "can traverse satellites owned by different firms
several times prior to being received on the ground.  These links may
differ based on physical layer specifications (RF or optical links),
predefined agreements between providers, and ground station conditions.
Given these complexities, satellites need to make quality-of-service-aware
routing decisions that take into account the nature of the network,
including available bandwidths of the ISLs."

The :class:`QosRouter` filters the snapshot graph down to edges satisfying
a flow's requirements (minimum bandwidth, maximum tariff, allowed
technologies/operators) and then runs cheapest-path over a cost model that
prices queueing and visitor tariffs alongside propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.routing.csr import shortest_path_csr
from repro.routing.metrics import EdgeCostModel, RouteMetrics, path_metrics


@dataclass(frozen=True)
class QosRequirement:
    """A flow's requirements on every link of its path.

    Attributes:
        min_bandwidth_bps: Bottleneck bandwidth the flow needs; RF-only
            paths fail stringent values, steering traffic onto laser ISLs
            exactly as the paper describes for high-QoS users.
        max_end_to_end_delay_s: Reject routes whose metric exceeds this.
        max_tariff_per_gb: Reject edges charging more than this.
        forbidden_operators: Operators the flow must not traverse (policy /
            data-sovereignty constraint from the paper's discussion).
        require_optical_only: Restrict to laser ISLs (the strictest QoS
            class an operator can advertise).
    """

    min_bandwidth_bps: float = 0.0
    max_end_to_end_delay_s: float = float("inf")
    max_tariff_per_gb: float = float("inf")
    forbidden_operators: frozenset = frozenset()
    require_optical_only: bool = False

    def admits_edge(self, data: dict) -> bool:
        """Whether one edge satisfies the per-link constraints."""
        if float(data.get("capacity_bps", float("inf"))) < self.min_bandwidth_bps:
            return False
        if float(data.get("tariff_per_gb", 0.0)) > self.max_tariff_per_gb:
            return False
        owner = data.get("owner")
        if owner is not None and owner in self.forbidden_operators:
            return False
        if self.require_optical_only:
            link = data.get("link")
            technology = getattr(link, "technology", None)
            if technology is None or getattr(technology, "is_rf", True):
                return False
        return True


#: Ready-made service classes an OpenSpace provider might advertise.
BEST_EFFORT = QosRequirement()
STANDARD = QosRequirement(min_bandwidth_bps=2e6)
PREMIUM = QosRequirement(min_bandwidth_bps=50e6, max_end_to_end_delay_s=0.120)


@dataclass
class QosRouteResult:
    """Outcome of a QoS route computation.

    Attributes:
        metrics: Metrics of the selected path (None when no path admits).
        admitted: True when a path satisfying the requirement exists.
        rejection_reason: Human-readable reason when not admitted.
    """

    metrics: Optional[RouteMetrics]
    admitted: bool
    rejection_reason: str = ""


class QosRouter:
    """Cheapest admissible path under per-flow QoS requirements.

    Args:
        cost_model: Cost model for ranking admissible paths.  The default
            prices queueing delay at par and visitor tariffs lightly, so
            cheap-but-congested RF detours lose to clean paths.  The
            admission filter folds into the weight function, so
            inadmissible edges never enter the CSR arrays.
        link_utilization: Standing per-link utilization from the fluid
            demand plane (canonical sorted ``(u, v)`` keys,
            ``load / capacity``).  When set, each edge's cost gains an
            M/M/1 queueing-inflation term ``delay * u / (1 - u)``
            (utilization clamped below 1), so congested links price
            higher without mutating the snapshot.
    """

    #: Utilization clamp for the congestion term (saturated links stay
    #: finite but effectively unroutable).
    MAX_UTILIZATION = 0.99

    def __init__(self, cost_model: Optional[EdgeCostModel] = None,
                 link_utilization: Optional[Dict[Tuple[str, str],
                                                 float]] = None):
        self.cost_model = cost_model or EdgeCostModel(
            queue_weight=1.0, tariff_weight=0.002
        )
        self.link_utilization = link_utilization

    def _congestion_cost(self, u: str, v: str, data: dict) -> float:
        """The M/M/1 queueing-inflation cost of one edge, seconds."""
        if not self.link_utilization:
            return 0.0
        key = (u, v) if u <= v else (v, u)
        utilization = min(self.link_utilization.get(key, 0.0),
                          self.MAX_UTILIZATION)
        if utilization <= 0.0:
            return 0.0
        delay = float(data.get("delay_s", 0.0))
        return delay * utilization / (1.0 - utilization)

    def _admissible_weight(self, requirement: QosRequirement):
        """Weight callable that drops edges the requirement rejects."""
        model = self.cost_model

        def weight(u, v, data):
            if not requirement.admits_edge(data):
                return None
            return model.edge_cost(data) + self._congestion_cost(u, v, data)

        return weight

    def route(self, graph: nx.Graph, source: str, target: str,
              requirement: QosRequirement) -> QosRouteResult:
        """Find the cheapest path meeting the requirement.

        Args:
            graph: Snapshot graph with routing edge attributes.
            source: Source node id.
            target: Target node id.
            requirement: The flow's QoS class.
        """
        if source not in graph or target not in graph:
            return QosRouteResult(None, False, "endpoint not in topology")
        path = shortest_path_csr(
            graph, source, target,
            weight=self._admissible_weight(requirement),
        )
        if path is None:
            return QosRouteResult(
                None, False,
                "no path satisfies per-link constraints "
                f"(min bw {requirement.min_bandwidth_bps:.0f} bps)",
            )
        metrics = path_metrics(graph, path)
        if metrics.total_delay_s > requirement.max_end_to_end_delay_s:
            return QosRouteResult(
                metrics, False,
                f"best path delay {metrics.total_delay_ms:.1f} ms exceeds "
                f"limit {requirement.max_end_to_end_delay_s * 1000:.1f} ms",
            )
        return QosRouteResult(metrics, True)
