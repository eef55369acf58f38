"""Flow-level network simulation with capacity sharing.

The paper's discussion (Q2) asks for routing that handles "the more
unpredictable components of user traffic, which cannot be accounted for by
proactive routing protocols" — e.g. peak loads at ground stations forcing
runtime re-routing.  Answering that needs a congestion model: this module
simulates flows sharing link capacities under progressive-filling
(max-min fair) allocation, advancing in discrete epochs on flow arrival /
completion events.

The simulator is routing-agnostic: it holds the snapshot it simulates
over, each admitted flow as the rows of ``snap.edges`` along its path,
and a ``route_fn`` callback that maps each arriving flow to a node path,
so proactive, QoS-aware, and load-adaptive routers can be compared under
the identical workload (see
``benchmarks/test_ablation_adaptive_routing.py``).  Rates come from
:func:`repro.demand.fluid.waterfill_rates` at infinite demand, the
allocator the million-user demand plane uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.demand.fluid import waterfill_rates
from repro.simulation.traffic import FlowSpec


@dataclass
class ActiveFlow:
    """One in-flight flow.

    Attributes:
        spec: The originating flow spec.
        path: Node path assigned at admission.
        rows: The rows of the snapshot's edge arrays along the path.
        remaining_bytes: Bytes left to transfer.
        admitted_at_s: When transfer started.
        rate_bps: Current max-min fair rate (recomputed each epoch).
    """

    spec: FlowSpec
    path: List[str]
    rows: List[int]
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


class FlowSimulator:
    """Event-driven flow-level simulator.

    Args:
        snap: The :class:`~repro.core.network.NetworkSnapshot` simulated
            over; flows share the ``capacity_bps`` of its edge rows.
        route_fn: ``(flow, active_flows) -> path or None``.  Called once
            per arriving flow; None rejects the flow (no route).  Every
            hop of a path must be an edge of ``snap``.
    """

    def __init__(self, snap,
                 route_fn: Callable[[FlowSpec, List[ActiveFlow]],
                                    Optional[List[str]]]):
        self.snap = snap
        self.route_fn = route_fn

    def _rows(self, path: List[str]) -> List[int]:
        """The edge row of every hop of ``path`` (either direction)."""
        hops = list(zip(path[:-1], path[1:]))
        rows = [self.snap.edge_row(u, v) for u, v in hops]
        missing = [hop for hop, row in zip(hops, rows) if row is None]
        if missing:
            raise ValueError(
                f"route_fn returned hops that are no links of the "
                f"snapshot: {missing}"
            )
        return rows

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
        capacity = self.snap.edges.capacity_bps

        def recompute():
            if not active:
                return
            rows = [flow.rows for flow in active]
            rates, _, _ = waterfill_rates(
                np.full(len(active), np.inf),
                np.repeat(np.arange(len(active)), [len(r) for r in rows]),
                np.concatenate(rows), capacity,
            )
            for flow, rate in zip(active, rates.tolist()):
                flow.rate_bps = rate

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
                active.append(ActiveFlow(
                    spec=spec, path=list(path), rows=self._rows(path),
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
