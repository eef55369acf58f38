"""Routing over the time-varying OpenSpace network.

Two routing regimes from the paper:

* **Proactive** (:mod:`repro.routing.proactive`) — because orbital paths
  are public and predictable, "the topology of the satellite network is
  both known and public, allowing for pre-computation of static routes
  between any set of satellites and fixed ground infrastructure."
* **Heterogeneity/QoS-aware** (:mod:`repro.routing.qos`) — "satellites need
  to make quality-of-service-aware routing decisions that take into account
  the nature of the network, including available bandwidths of the ISLs",
  plus queueing delays and visitor tariffs.

Every router here reads a snapshot's edge arrays and shares one
shortest-path implementation (:mod:`repro.routing.csr`, batched
multi-source Dijkstra over CSR arrays via scipy).
"""

from repro.routing.csr import CsrAdjacency, ShortestPaths
from repro.routing.metrics import EdgeCostModel, RouteMetrics, path_metrics
from repro.routing.proactive import ProactiveRouter, RoutingTable, StaticRoute
from repro.routing.qos import QosRequirement, QosRouter
from repro.routing.adaptive import (
    LoadAdaptiveRouter,
    StaticNearestRouter,
    gateway_load_profile,
)
from repro.routing.timeexpanded import StoreAndForwardRoute, TimeExpandedRouter
from repro.routing.stability import EpochChurn, StabilityReport, route_churn

__all__ = [
    "CsrAdjacency",
    "ShortestPaths",
    "EdgeCostModel",
    "RouteMetrics",
    "path_metrics",
    "ProactiveRouter",
    "RoutingTable",
    "StaticRoute",
    "QosRequirement",
    "QosRouter",
    "LoadAdaptiveRouter",
    "StaticNearestRouter",
    "gateway_load_profile",
    "StoreAndForwardRoute",
    "TimeExpandedRouter",
    "EpochChurn",
    "StabilityReport",
    "route_churn",
]
