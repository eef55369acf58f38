"""Load-adaptive routing (paper Discussion, Q2).

"Peak loads at certain ground stations may necessitate re-routing of
traffic to a ground station that is further away but is idle; in this
case, a computation of the trade-off between longer routing distance vs
queuing and job completion times is necessary at runtime."

The :class:`LoadAdaptiveRouter` implements that runtime trade-off: it
tracks per-edge committed load (from the flows currently routed), prices
each edge by propagation delay plus a congestion term that grows with
utilization, and picks the cheapest gateway-bound path — sending new flows
to farther-but-idle gateways exactly when the paper says it should.

The :class:`StaticNearestRouter` is the proactive comparator: always the
propagation-shortest path, blind to load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.routing.csr import CsrAdjacency, delay_weight
from repro.simulation.flowsim import ActiveFlow
from repro.simulation.traffic import FlowSpec


def _edge_key(u: str, v: str) -> Tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _gateway_nodes(graph: nx.Graph) -> List[str]:
    return [
        node for node, data in graph.nodes(data=True)
        if data.get("kind") == "ground_station"
    ]


def _committed_load(active_flows: Sequence[ActiveFlow],
                    demand_bps: float = None) -> Dict[Tuple[str, str], float]:
    """Current committed rate per edge from the active flow set."""
    load: Dict[Tuple[str, str], float] = {}
    for flow in active_flows:
        rate = flow.rate_bps if flow.rate_bps > 0.0 else (demand_bps or 0.0)
        for edge in flow.edges:
            load[edge] = load.get(edge, 0.0) + rate
    return load


def _best_gateway_path(graph: nx.Graph, source: str,
                       gateways: Sequence[str],
                       weight) -> Optional[List[str]]:
    """Cheapest source→gateway path, or None when no gateway is reachable.

    One single-source Dijkstra covers every candidate gateway; the
    first-listed gateway at the least cost wins
    (:meth:`~repro.routing.csr.ShortestPaths.nearest_paths`).
    """
    adjacency = CsrAdjacency.from_graph(graph, weight=weight)
    (path,) = adjacency.single_source(source).nearest_paths(gateways)
    return path


@dataclass
class StaticNearestRouter:
    """Proactive baseline: propagation-shortest path to the nearest gateway.

    This is what precomputation from public orbital knowledge gives you —
    correct geometry, no view of runtime load.
    """

    def __call__(self, graph: nx.Graph, flow: FlowSpec,
                 active_flows: List[ActiveFlow]) -> Optional[List[str]]:
        gateways = _gateway_nodes(graph)
        if flow.user_id not in graph or not gateways:
            return None
        return _best_gateway_path(graph, flow.user_id, gateways,
                                  delay_weight)


@dataclass
class LoadAdaptiveRouter:
    """Runtime congestion-aware gateway selection.

    Edge cost = ``delay_s + congestion_weight * delay_s * u / (1 - u)``
    where ``u`` is the edge's committed utilization — the M/M/1-shaped
    penalty makes nearly-full edges effectively infinite, diverting new
    flows to idle detours.

    Attributes:
        congestion_weight: Scales the congestion term against propagation
            delay (1.0 = a fully-loaded edge is much worse than any detour).
        assumed_flow_rate_bps: Rate assumed for flows whose fair share is
            not yet known (fresh arrivals).
        background_load_bps: Standing per-edge load (canonical sorted
            keys) added under the committed flows — the fluid demand
            plane's allocation (``CongestionState.background_load_bps``),
            so per-flow admissions route around links aggregate demand
            already filled.
    """

    congestion_weight: float = 1.0
    assumed_flow_rate_bps: float = 10e6
    background_load_bps: Optional[Dict[Tuple[str, str], float]] = None
    #: Diagnostic: how many admissions diverted from the nearest gateway.
    diversions: int = field(default=0)

    def __call__(self, graph: nx.Graph, flow: FlowSpec,
                 active_flows: List[ActiveFlow]) -> Optional[List[str]]:
        gateways = _gateway_nodes(graph)
        if flow.user_id not in graph or not gateways:
            return None
        load = _committed_load(active_flows, self.assumed_flow_rate_bps)
        if self.background_load_bps:
            for edge, rate in self.background_load_bps.items():
                load[edge] = load.get(edge, 0.0) + rate

        def weight(u, v, data):
            delay = float(data.get("delay_s", 0.0))
            capacity = float(data.get("capacity_bps", float("inf")))
            if capacity <= 0.0:
                return None  # unusable edge
            utilization = min(0.999, load.get(_edge_key(u, v), 0.0) / capacity)
            congestion = (
                self.congestion_weight * delay * utilization
                / (1.0 - utilization)
            )
            return delay + congestion

        best_path = _best_gateway_path(graph, flow.user_id, gateways,
                                       weight)
        if best_path is None:
            return None
        nearest = StaticNearestRouter()(graph, flow, [])
        if nearest is not None and best_path[-1] != nearest[-1]:
            self.diversions += 1
        return best_path


def gateway_load_profile(result_flows: Sequence,
                         graph: nx.Graph) -> Dict[str, int]:
    """Completed flows terminated per gateway (ablation diagnostic)."""
    gateways = set(_gateway_nodes(graph))
    profile: Dict[str, int] = {}
    for record in result_flows:
        if not record.completed or not record.path:
            continue
        gateway = record.path[-1]
        if gateway in gateways:
            profile[gateway] = profile.get(gateway, 0) + 1
    return profile
