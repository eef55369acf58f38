"""User-session simulation over the time-varying network.

Ties the whole stack together for one user: at each epoch the network is
re-snapshotted, the best gateway route recomputed, serving-satellite
changes are charged as handovers (under both the predictive and the
re-authenticating scheme, from one walk), and the user-experienced
latency/capacity series is recorded — the trace a subscriber's QoE
dashboard would show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.core.handover import HandoverScheme
from repro.core.network import OpenSpaceNetwork
from repro.ground.user import UserTerminal


@dataclass(frozen=True)
class SessionSample:
    """One epoch of a session trace.

    Attributes:
        time_s: Sample time.
        serving_satellite: First-hop satellite (None when out of service).
        gateway: Exit gateway (None when unreachable).
        latency_ms: One-way route latency.
        bottleneck_mbps: Route bottleneck capacity.
        handover: True when the serving satellite changed at this epoch.
    """

    time_s: float
    serving_satellite: Optional[str]
    gateway: Optional[str]
    latency_ms: float
    bottleneck_mbps: float
    handover: bool


@dataclass
class SessionTrace:
    """A full session record.

    Attributes:
        samples: Per-epoch samples.
        scheme: Handover scheme charged.
        total_outage_s: Accumulated interruption from handovers and
            coverage gaps.
        epoch_s: Sampling interval.
    """

    samples: List[SessionSample] = field(default_factory=list)
    scheme: HandoverScheme = HandoverScheme.PREDICTIVE
    total_outage_s: float = 0.0
    epoch_s: float = 30.0

    @property
    def duration_s(self) -> float:
        return len(self.samples) * self.epoch_s

    @property
    def served_samples(self) -> List[SessionSample]:
        return [s for s in self.samples if s.serving_satellite is not None]

    @property
    def availability(self) -> float:
        """Fraction of the session with service, net of handover outage."""
        if not self.samples:
            return 0.0
        served_time = len(self.served_samples) * self.epoch_s
        return max(0.0, served_time - self.total_outage_s) / self.duration_s

    @property
    def handover_count(self) -> int:
        return sum(1 for s in self.samples if s.handover)

    def latency_stats_ms(self) -> dict:
        """Mean/median/p95 latency over served samples."""
        latencies = [s.latency_ms for s in self.served_samples]
        if not latencies:
            return {"mean": float("nan"), "p50": float("nan"),
                    "p95": float("nan")}
        return {
            "mean": float(np.mean(latencies)),
            "p50": float(np.percentile(latencies, 50)),
            "p95": float(np.percentile(latencies, 95)),
        }


class SessionSimulator:
    """Replays one user's session against a live network.

    Args:
        network: The federated network.
        link_setup_s: Interruption for a predictive handover.
        auth_round_trip_s: Extra interruption per handover when the scheme
            re-authenticates.
    """

    def __init__(self, network: OpenSpaceNetwork,
                 link_setup_s: float = 0.020,
                 auth_round_trip_s: float = 0.180):
        self.network = network
        self.link_setup_s = link_setup_s
        self.auth_round_trip_s = auth_round_trip_s

    def run(self, user: UserTerminal, start_s: float, end_s: float,
            epoch_s: float = 30.0) -> Dict[HandoverScheme, SessionTrace]:
        """Simulate the session over ``[start_s, end_s)`` under every
        handover scheme.

        The route walk does not depend on the scheme, so one walk (one
        snapshot per epoch) serves them all: each scheme's trace holds
        the walk's samples and the outage that scheme charges.

        Args:
            user: The subscriber terminal.
            start_s: Session start.
            end_s: Session end.
            epoch_s: Re-evaluation interval (30 s resolves LEO dynamics).

        Returns:
            One trace per :class:`HandoverScheme`, keyed by it.
        """
        if end_s <= start_s:
            raise ValueError(f"end {end_s} must be after start {start_s}")
        if epoch_s <= 0.0:
            raise ValueError(f"epoch must be positive, got {epoch_s}")
        recorder = _obs.active()
        with recorder.span("simulation.session.run", user=user.user_id,
                           start_s=start_s, end_s=end_s):
            traces = self._replay(user, start_s, end_s, epoch_s)
        if recorder.enabled:
            recorder.count("session.samples",
                           len(traces[HandoverScheme.PREDICTIVE].samples))
            for scheme, trace in traces.items():
                recorder.count("session.handovers", trace.handover_count,
                               label=scheme.value)
                recorder.count("session.outage_s", trace.total_outage_s,
                               label=scheme.value)
        return traces

    def _replay(self, user: UserTerminal, start_s: float, end_s: float,
                epoch_s: float) -> Dict[HandoverScheme, SessionTrace]:
        recorder = _obs.active()
        samples: List[SessionSample] = []
        outage_s = dict.fromkeys(HandoverScheme, 0.0)
        previous_satellite: Optional[str] = None
        for time_s in np.arange(start_s, end_s, epoch_s):
            snap = self.network.snapshot(float(time_s), users=[user])
            metrics = snap.nearest_ground_station_route(user.user_id)
            if metrics is None:
                samples.append(SessionSample(
                    time_s=float(time_s), serving_satellite=None,
                    gateway=None, latency_ms=float("nan"),
                    bottleneck_mbps=0.0, handover=False,
                ))
                if recorder.enabled and previous_satellite is not None:
                    recorder.event("session.drop", float(time_s),
                                   subject=user.user_id,
                                   satellite=previous_satellite,
                                   reason="no-route")
                previous_satellite = None
                continue
            serving = metrics.path[1]
            handover = (previous_satellite is not None
                        and serving != previous_satellite)
            if recorder.enabled:
                if previous_satellite is None:
                    recorder.event("session.admit", float(time_s),
                                   subject=user.user_id, satellite=serving)
                elif handover:
                    recorder.event("handover", float(time_s),
                                   subject=serving,
                                   from_satellite=previous_satellite,
                                   user=user.user_id)
            if handover or previous_satellite is None:
                for scheme in HandoverScheme:
                    outage = self.link_setup_s
                    if (scheme is HandoverScheme.REAUTHENTICATE
                            or previous_satellite is None):
                        outage += self.auth_round_trip_s
                    outage_s[scheme] += outage
            samples.append(SessionSample(
                time_s=float(time_s),
                serving_satellite=serving,
                gateway=metrics.path[-1],
                latency_ms=metrics.total_delay_ms,
                bottleneck_mbps=metrics.bottleneck_capacity_bps / 1e6,
                handover=handover,
            ))
            previous_satellite = serving
        return {
            scheme: SessionTrace(samples=list(samples), scheme=scheme,
                                 total_outage_s=outage_s[scheme],
                                 epoch_s=epoch_s)
            for scheme in HandoverScheme
        }
