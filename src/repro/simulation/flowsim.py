"""Flow-level network simulation with capacity sharing.

The paper's discussion (Q2) asks for routing that handles "the more
unpredictable components of user traffic, which cannot be accounted for by
proactive routing protocols" — e.g. peak loads at ground stations forcing
runtime re-routing.  Answering that needs a congestion model: this module
simulates flows sharing link capacities under progressive-filling
(max-min fair) allocation, advancing in discrete epochs on flow arrival /
completion events.

The simulator is routing-agnostic: it holds link capacities only, and a
``route_fn`` callback maps each arriving flow to a node path (the router
holds the snapshot it routes over), so proactive, QoS-aware, and
load-adaptive routers can be compared under the identical workload (see
``benchmarks/test_ablation_adaptive_routing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.simulation.traffic import FlowSpec


@dataclass
class ActiveFlow:
    """One in-flight flow.

    Attributes:
        spec: The originating flow spec.
        path: Node path assigned at admission.
        edges: Edge keys (sorted node pairs) along the path.
        remaining_bytes: Bytes left to transfer.
        admitted_at_s: When transfer started.
        rate_bps: Current max-min fair rate (recomputed each epoch).
    """

    spec: FlowSpec
    path: List[str]
    edges: List[Tuple[str, str]]
    remaining_bytes: float
    admitted_at_s: float
    rate_bps: float = 0.0


@dataclass(frozen=True)
class CompletedFlow:
    """Record of one finished (or failed) flow.

    Attributes:
        spec: The originating flow spec.
        completed: False when no route existed at arrival.
        start_s: Admission time (arrival time for rejected flows).
        finish_s: Completion time (equal to start for rejected flows).
        mean_rate_bps: Average throughput over the flow's lifetime.
        hop_count: Path length (0 for rejected flows).
        path: Assigned node path (empty for rejected flows).
    """

    spec: FlowSpec
    completed: bool
    start_s: float
    finish_s: float
    mean_rate_bps: float
    hop_count: int
    path: Tuple[str, ...] = ()

    @property
    def completion_time_s(self) -> float:
        return self.finish_s - self.start_s


@dataclass
class FlowSimResult:
    """Aggregate outcome of one flow simulation run."""

    completed: List[CompletedFlow] = field(default_factory=list)
    rejected: List[CompletedFlow] = field(default_factory=list)
    peak_concurrent_flows: int = 0

    @property
    def acceptance_ratio(self) -> float:
        total = len(self.completed) + len(self.rejected)
        if total == 0:
            return 0.0
        return len(self.completed) / total

    def mean_completion_time_s(self) -> float:
        if not self.completed:
            return 0.0
        return sum(f.completion_time_s for f in self.completed) / len(
            self.completed
        )

    def mean_throughput_bps(self) -> float:
        if not self.completed:
            return 0.0
        return sum(f.mean_rate_bps for f in self.completed) / len(
            self.completed
        )


def max_min_fair_rates(flows: Sequence[ActiveFlow],
                       capacities: Dict[Tuple[str, str], float]) -> None:
    """Assign progressive-filling max-min fair rates in place.

    Classic water-filling: repeatedly find the most constrained link
    (capacity / unfrozen flows), freeze its flows at that fair share, and
    continue with residual capacities.  A flow that crosses no
    finite-capacity link is never constrained and gets an infinite
    rate, as in :func:`repro.demand.fluid.waterfill_rates`.

    Args:
        flows: Active flows; ``rate_bps`` is overwritten.
        capacities: Edge key -> capacity in bps.
    """
    residual = dict(capacities)
    users: Dict[Tuple[str, str], List[ActiveFlow]] = {}
    for flow in flows:
        flow.rate_bps = 0.0
        for edge in flow.edges:
            users.setdefault(edge, []).append(flow)
    unfrozen = set(id(flow) for flow in flows)

    while unfrozen:
        # Fair share on each still-loaded edge.
        best_edge = None
        best_share = float("inf")
        for edge, edge_flows in users.items():
            active = [f for f in edge_flows if id(f) in unfrozen]
            if not active:
                continue
            share = residual[edge] / len(active)
            if share < best_share:
                best_share = share
                best_edge = edge
        if best_edge is None:
            for flow in flows:
                if id(flow) in unfrozen:
                    flow.rate_bps = float("inf")
            break
        # Freeze every unfrozen flow on the bottleneck edge.
        for flow in users[best_edge]:
            if id(flow) not in unfrozen:
                continue
            flow.rate_bps = best_share
            unfrozen.discard(id(flow))
            for edge in flow.edges:
                residual[edge] = max(0.0, residual[edge] - best_share)


def _key(u: str, v: str) -> Tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def link_capacities(snap) -> Dict[Tuple[str, str], float]:
    """Each edge's ``capacity_bps`` of a
    :class:`~repro.core.network.NetworkSnapshot`, keyed by its sorted
    endpoint pair: the links a :class:`FlowSimulator` shares."""
    nodes = snap.nodes
    edges = snap.edges
    return {
        _key(nodes[u], nodes[v]): capacity
        for u, v, capacity in zip(edges.u.tolist(), edges.v.tolist(),
                                  edges.capacity_bps.tolist())
    }


class FlowSimulator:
    """Event-driven flow-level simulator.

    Args:
        capacities: Link capacity in bits/s, keyed by endpoint pair in
            either order (:func:`link_capacities` of a snapshot).
        route_fn: ``(flow, active_flows) -> path or None``.  Called once
            per arriving flow; None rejects the flow (no route).  Every
            hop of a path must be a listed link.
    """

    def __init__(self, capacities: Dict[Tuple[str, str], float],
                 route_fn: Callable[[FlowSpec, List[ActiveFlow]],
                                    Optional[List[str]]]):
        self.route_fn = route_fn
        self._capacities = {_key(u, v): capacity
                            for (u, v), capacity in capacities.items()}

    def run(self, flows: Sequence[FlowSpec]) -> FlowSimResult:
        """Simulate the full workload to completion.

        Flows arrive at their ``start_s``; between consecutive events all
        active flows progress at their max-min fair rates.  The simulation
        runs until every admitted flow completes.
        """
        recorder = _obs.active()
        with recorder.span("simulation.flowsim.run", flows=len(flows)):
            result = self._simulate(flows)
        if recorder.enabled:
            recorder.count("flowsim.flows", len(result.completed),
                           label="completed")
            recorder.count("flowsim.flows", len(result.rejected),
                           label="rejected")
            recorder.gauge("flowsim.peak_concurrent",
                           result.peak_concurrent_flows)
            for flow in result.completed:
                recorder.observe("flowsim.completion_s",
                                 flow.completion_time_s)
        return result

    def _simulate(self, flows: Sequence[FlowSpec]) -> FlowSimResult:
        recorder = _obs.active()
        result = FlowSimResult()
        pending = sorted(flows, key=lambda f: f.start_s)
        active: List[ActiveFlow] = []
        now = 0.0
        index = 0

        def recompute():
            max_min_fair_rates(active, self._capacities)

        while index < len(pending) or active:
            next_arrival = (
                pending[index].start_s if index < len(pending) else float("inf")
            )
            # Earliest completion among active flows at current rates.
            next_completion = float("inf")
            completing: Optional[ActiveFlow] = None
            for flow in active:
                if flow.rate_bps <= 0.0:
                    continue
                eta = now + flow.remaining_bytes * 8.0 / flow.rate_bps
                if eta < next_completion:
                    next_completion = eta
                    completing = flow
            if active and completing is None and next_arrival == float("inf"):
                # Starved flows with no future arrivals: capacity vanished.
                for flow in active:
                    result.rejected.append(CompletedFlow(
                        spec=flow.spec, completed=False,
                        start_s=flow.admitted_at_s, finish_s=now,
                        mean_rate_bps=0.0, hop_count=len(flow.path) - 1,
                        path=tuple(flow.path),
                    ))
                active.clear()
                break

            event_time = min(next_arrival, next_completion)
            dt = event_time - now
            if dt > 0.0:
                for flow in active:
                    transferred = flow.rate_bps * dt / 8.0
                    flow.remaining_bytes = max(
                        0.0, flow.remaining_bytes - transferred
                    )
                now = event_time

            if next_completion <= next_arrival and completing is not None:
                active.remove(completing)
                duration = max(1e-9, now - completing.admitted_at_s)
                result.completed.append(CompletedFlow(
                    spec=completing.spec, completed=True,
                    start_s=completing.admitted_at_s, finish_s=now,
                    mean_rate_bps=completing.spec.size_bytes * 8.0 / duration,
                    hop_count=len(completing.path) - 1,
                    path=tuple(completing.path),
                ))
                recompute()
            else:
                spec = pending[index]
                index += 1
                path = self.route_fn(spec, active)
                if path is None or len(path) < 2:
                    result.rejected.append(CompletedFlow(
                        spec=spec, completed=False, start_s=spec.start_s,
                        finish_s=spec.start_s, mean_rate_bps=0.0, hop_count=0,
                    ))
                    if recorder.enabled:
                        recorder.event("session.drop", spec.start_s,
                                       subject=spec.flow_id,
                                       user=spec.user_id, reason="no-route",
                                       qos=spec.qos_class)
                    continue
                edges = [_key(u, v) for u, v in zip(path[:-1], path[1:])]
                missing = [e for e in edges if e not in self._capacities]
                if missing:
                    raise ValueError(
                        f"route_fn returned links without a capacity: "
                        f"{missing}"
                    )
                active.append(ActiveFlow(
                    spec=spec, path=list(path), edges=edges,
                    remaining_bytes=spec.size_bytes, admitted_at_s=now,
                ))
                if recorder.enabled:
                    recorder.event("session.admit", now,
                                   subject=spec.flow_id, user=spec.user_id,
                                   hops=len(path) - 1, qos=spec.qos_class)
                result.peak_concurrent_flows = max(
                    result.peak_concurrent_flows, len(active)
                )
                recompute()
        return result
