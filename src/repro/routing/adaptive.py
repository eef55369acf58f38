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

import numpy as np

from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import DELAY_ONLY
from repro.simulation.flowsim import ActiveFlow
from repro.simulation.traffic import FlowSpec


def _committed_load(active_flows: Sequence[ActiveFlow],
                    demand_bps: float = None) -> Dict[Tuple[str, str], float]:
    """Current committed rate per edge from the active flow set."""
    load: Dict[Tuple[str, str], float] = {}
    for flow in active_flows:
        rate = flow.rate_bps if flow.rate_bps > 0.0 else (demand_bps or 0.0)
        for edge in flow.edges:
            load[edge] = load.get(edge, 0.0) + rate
    return load


def _best_gateway_path(snap, adjacency: CsrAdjacency,
                       source: str) -> Optional[List[str]]:
    """Cheapest source→gateway path, or None when no gateway is reachable.

    One single-source Dijkstra covers every gateway of ``snap``; the
    first-listed gateway at the least cost wins
    (:meth:`~repro.routing.csr.ShortestPaths.nearest_paths`).
    """
    gateways = snap.nodes_of_kind("ground_station")
    if source not in snap.index or not gateways:
        return None
    (path,) = adjacency.single_source(source).nearest_paths(gateways)
    return path


@dataclass
class StaticNearestRouter:
    """Proactive baseline: propagation-shortest path to the nearest gateway.

    This is what precomputation from public orbital knowledge gives you —
    correct geometry, no view of runtime load.

    Attributes:
        snap: The :class:`~repro.core.network.NetworkSnapshot` routed
            over, priced by raw propagation delay
            (:data:`~repro.routing.metrics.DELAY_ONLY`).
    """

    snap: object

    def __call__(self, flow: FlowSpec,
                 active_flows: List[ActiveFlow]) -> Optional[List[str]]:
        return _best_gateway_path(self.snap,
                                  self.snap.csr_adjacency(DELAY_ONLY),
                                  flow.user_id)


@dataclass
class LoadAdaptiveRouter:
    """Runtime congestion-aware gateway selection.

    Edge cost = ``delay_s + congestion_weight * delay_s * u / (1 - u)``
    where ``u`` is the edge's committed utilization — the M/M/1-shaped
    penalty makes nearly-full edges effectively infinite, diverting new
    flows to idle detours.  An edge without capacity is priced ``inf``.

    Attributes:
        snap: The :class:`~repro.core.network.NetworkSnapshot` routed
            over; its edge arrays give each edge's delay and capacity.
        congestion_weight: Scales the congestion term against propagation
            delay (1.0 = a fully-loaded edge is much worse than any detour).
        assumed_flow_rate_bps: Rate assumed for flows whose fair share is
            not yet known (fresh arrivals).
    """

    snap: object
    congestion_weight: float = 1.0
    assumed_flow_rate_bps: float = 10e6
    #: Diagnostic: how many admissions diverted from the nearest gateway.
    diversions: int = field(default=0)

    def __call__(self, flow: FlowSpec,
                 active_flows: List[ActiveFlow]) -> Optional[List[str]]:
        snap = self.snap
        edges = snap.edges
        load = np.zeros(edges.u.shape[0])
        for (u, v), rate in _committed_load(
                active_flows, self.assumed_flow_rate_bps).items():
            load[snap.edge_row(u, v)] = rate
        usable = edges.capacity_bps > 0.0
        utilization = np.zeros(load.shape[0])
        utilization[usable] = np.minimum(
            0.999, load[usable] / edges.capacity_bps[usable])
        congestion = (self.congestion_weight * edges.delay_s * utilization
                      / (1.0 - utilization))
        costs = np.where(usable, edges.delay_s + congestion, np.inf)
        best_path = _best_gateway_path(
            snap, CsrAdjacency.from_edges(snap.nodes, edges.u, edges.v, costs),
            flow.user_id,
        )
        if best_path is None:
            return None
        nearest = StaticNearestRouter(snap)(flow, [])
        if nearest is not None and best_path[-1] != nearest[-1]:
            self.diversions += 1
        return best_path


def gateway_load_profile(result_flows: Sequence, snap) -> Dict[str, int]:
    """Completed flows terminated per gateway of ``snap`` (ablation
    diagnostic)."""
    gateways = set(snap.nodes_of_kind("ground_station"))
    profile: Dict[str, int] = {}
    for record in result_flows:
        if not record.completed or not record.path:
            continue
        gateway = record.path[-1]
        if gateway in gateways:
            profile[gateway] = profile.get(gateway, 0) + 1
    return profile
