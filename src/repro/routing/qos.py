"""Heterogeneity- and QoS-aware routing.

The paper: packets "can traverse satellites owned by different firms
several times prior to being received on the ground.  These links may
differ based on physical layer specifications (RF or optical links),
predefined agreements between providers, and ground station conditions.
Given these complexities, satellites need to make quality-of-service-aware
routing decisions that take into account the nature of the network,
including available bandwidths of the ISLs."

The :class:`QosRouter` prices every snapshot edge under a cost model
that weighs queueing and visitor tariffs alongside propagation delay,
prices the edges below a flow's bandwidth floor ``inf`` (so they never
enter the CSR arrays), and runs cheapest-path over what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import EdgeCostModel, RouteMetrics, path_metrics


@dataclass(frozen=True)
class QosRequirement:
    """A flow's requirements on its path.

    Attributes:
        min_bandwidth_bps: Bandwidth every link of the path must offer;
            RF-only paths fail stringent values, steering traffic onto
            laser ISLs exactly as the paper describes for high-QoS users.
        max_end_to_end_delay_s: Reject routes whose metric exceeds this.
    """

    min_bandwidth_bps: float = 0.0
    max_end_to_end_delay_s: float = float("inf")


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
            cheap-but-congested RF detours lose to clean paths.
    """

    def __init__(self, cost_model: Optional[EdgeCostModel] = None):
        self.cost_model = cost_model or EdgeCostModel(
            queue_weight=1.0, tariff_weight=0.002
        )

    def route(self, snap, source: str, target: str,
              requirement: QosRequirement) -> QosRouteResult:
        """Find the cheapest path meeting the requirement.

        Args:
            snap: The :class:`~repro.core.network.NetworkSnapshot` to
                route over.
            source: Source node id.
            target: Target node id.
            requirement: The flow's QoS class.
        """
        if source not in snap.index or target not in snap.index:
            return QosRouteResult(None, False, "endpoint not in topology")
        edges = snap.edges
        costs = edges.costs(self.cost_model)
        costs[edges.capacity_bps < requirement.min_bandwidth_bps] = np.inf
        path = CsrAdjacency.from_edges(
            snap.nodes, edges.u, edges.v, costs,
        ).shortest_path(source, target)
        if path is None:
            return QosRouteResult(
                None, False,
                "no path satisfies per-link constraints "
                f"(min bw {requirement.min_bandwidth_bps:.0f} bps)",
            )
        metrics = path_metrics(snap, path)
        if metrics.total_delay_s > requirement.max_end_to_end_delay_s:
            return QosRouteResult(
                metrics, False,
                f"best path delay {metrics.total_delay_ms:.1f} ms exceeds "
                f"limit {requirement.max_end_to_end_delay_s * 1000:.1f} ms",
            )
        return QosRouteResult(metrics, True)
