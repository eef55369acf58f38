"""Graceful-degradation policies over the reliability primitives.

Three control protocols learn to limp instead of crash here:

* **Routing** — :class:`ResilientRouter` serves proactive precomputed
  routes while the contact plan is fresh, and falls back to the
  on-demand distributed scheme (:mod:`repro.routing.distributed`) for
  any satellite whose plan dissemination timed out or whose precomputed
  route was invalidated by faults.
* **Handover** — :func:`reselect_timeline` re-runs successor selection
  against the fault-masked contact schedule instead of letting a dead
  successor raise or strand the user.
* Association's fallback (alternate auth anchors, secondary beacon
  candidates) lives with the protocol itself in
  :class:`repro.core.association.ReliableAssociationProtocol`; it shares
  the degraded-mode counter defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import ExchangeResult, ReliableExchange
from repro.routing.distributed import OnDemandRouter
from repro.routing.metrics import RouteMetrics

#: Counter every degraded-mode activation increments, labeled by mode.
DEGRADED_COUNTER = "reliability.degraded"


def note_degraded(mode: str, amount: float = 1.0) -> None:
    """Record one degraded-mode activation in the active recorder."""
    recorder = _obs.active()
    if recorder.enabled:
        recorder.count(DEGRADED_COUNTER, amount, label=mode)


@dataclass(frozen=True)
class RouteResolution:
    """How a route request was ultimately served.

    Attributes:
        metrics: The route (None when both schemes failed).
        mode: ``"proactive"``, ``"on_demand_fallback"``, or
            ``"unreachable"``.
        extra_delay_s: Control-plane latency charged beyond a table
            lookup (the on-demand discovery delay when degraded).
    """

    metrics: Optional[RouteMetrics]
    mode: str
    extra_delay_s: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.mode == "on_demand_fallback"


class ResilientRouter:
    """Proactive routing with on-demand fallback and lossy dissemination.

    The proactive table is only as good as its delivery: each satellite
    must *receive* its slice of the contact plan over control links.
    :meth:`disseminate` pushes the plan from an anchor node through a
    :class:`ReliableExchange`; sources whose push failed (timeout,
    breaker open, no path) never got a table and route on demand until a
    later dissemination succeeds.

    Args:
        proactive: The precomputed router (table already built, or built
            later by the caller).
        fallback: On-demand router used when the table cannot answer;
            a default-configured one is created when omitted.
        exchange: Exchange driving dissemination attempts; ``None`` makes
            dissemination instantaneous and lossless (the baseline).
        channel: Lossy channel the dissemination messages traverse.
    """

    def __init__(self, proactive, fallback: Optional[OnDemandRouter] = None,
                 exchange: Optional[ReliableExchange] = None,
                 channel: Optional[LossyControlChannel] = None):
        self.proactive = proactive
        self.fallback = fallback or OnDemandRouter()
        self.exchange = exchange
        self.channel = channel
        #: Sources whose latest contact-plan push failed.
        self.undisseminated: set = set()
        self.fallback_count = 0

    # -- dissemination ---------------------------------------------------

    def disseminate(self, graph, anchor: str, sources: Sequence[str],
                    now_s: float = 0.0) -> Dict[str, ExchangeResult]:
        """Push the contact plan from ``anchor`` to each source node.

        With no exchange/channel configured every push trivially succeeds
        (perfect-delivery baseline).  Otherwise each push is one reliable
        exchange over the anchor→source shortest path; failures put the
        source into degraded on-demand mode.

        Returns:
            Per-source exchange results (an artificial failed result with
            reason ``"unreachable"`` when no path existed).
        """
        from repro.routing.csr import CsrAdjacency
        from repro.routing.metrics import PROPAGATION_ONLY

        # One single-source Dijkstra from the anchor covers every push
        # (dissemination is anchor-rooted).
        anchor_paths = None
        if (self.exchange is not None and self.channel is not None
                and anchor in graph):
            adjacency = CsrAdjacency.from_graph(graph,
                                                weight=PROPAGATION_ONLY)
            anchor_paths = adjacency.single_source(anchor)

        results: Dict[str, ExchangeResult] = {}
        for source in sources:
            if self.exchange is None or self.channel is None:
                self.undisseminated.discard(source)
                results[source] = ExchangeResult(ok=True, attempts=1,
                                                 elapsed_s=0.0)
                continue
            path = (anchor_paths.path(anchor, source)
                    if anchor_paths is not None else None)
            if path is None:
                result = ExchangeResult(ok=False, attempts=0, elapsed_s=0.0,
                                        reason="unreachable")
            else:
                result = self.exchange.run(
                    f"plan:{anchor}->{source}",
                    lambda _attempt, p=path: self._push_attempt(graph, p),
                    now_s=now_s,
                )
            results[source] = result
            if result.ok:
                self.undisseminated.discard(source)
            else:
                self.undisseminated.add(source)
                note_degraded("plan_dissemination")
        return results

    def _push_attempt(self, graph, path) -> Tuple[bool, float]:
        attempt = self.channel.attempt_round_trip(graph, path)
        return attempt.delivered, attempt.round_trip_s

    # -- routing ---------------------------------------------------------

    def route(self, source: str, target: str, time_s: float,
              graph=None) -> RouteResolution:
        """Serve a route: proactive when possible, on-demand when not.

        Args:
            source: Source node id.
            target: Target node id.
            time_s: Lookup time (selects the proactive epoch).
            graph: Live snapshot graph for the fallback discovery; with
                no graph the fallback cannot run and a miss is terminal.
        """
        if source not in self.undisseminated:
            try:
                static = self.proactive.route(source, target, time_s)
            except LookupError:
                static = None
            if static is not None:
                return RouteResolution(metrics=static.metrics,
                                       mode="proactive")
        if graph is None:
            return RouteResolution(metrics=None, mode="unreachable")
        discovery = self.fallback.route(graph, source, target)
        if discovery.metrics is None:
            return RouteResolution(
                metrics=None, mode="unreachable",
                extra_delay_s=discovery.discovery_delay_s,
            )
        self.fallback_count += 1
        note_degraded("routing_fallback")
        return RouteResolution(
            metrics=discovery.metrics,
            mode="on_demand_fallback",
            extra_delay_s=discovery.discovery_delay_s,
        )


def reselect_timeline(simulator, windows, outages, scheme,
                      start_s: float, end_s: float):
    """Handover re-selection against the fault-masked schedule.

    Masks the planned contact schedule with the known outages and re-runs
    the handover simulation over the survivors.  A schedule whose every
    window was consumed by outages degrades to an all-gap timeline (the
    user simply waits) rather than raising.

    Args:
        simulator: A :class:`~repro.core.handover.HandoverSimulator`.
        windows: The originally planned contact windows.
        outages: ``(satellite_index, start_s, end_s)`` outage intervals.
        scheme: Handover scheme to charge.
        start_s: Period start.
        end_s: Period end.

    Returns:
        The re-selected :class:`~repro.core.handover.PassTimeline`.
    """
    return simulator.reselect(windows, outages, scheme, start_s, end_s)
