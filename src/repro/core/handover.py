"""Satellite handover: predictive successor vs re-authentication baseline.

"In OpenSpace, the satellite uses advance knowledge of orbital trajectories
to pick a successor, i.e., the satellite that it will hand over its
connection to the ground user to, once the satellite is out of the ground
user's line-of-sight.  The satellite communicates specifics of its
successor to the user, who establishes a new session with the successor.
This eliminates the need [to] run authentication and association protocols
again, ensuring a smooth handoff."

Two schemes are simulated over a user's pass timeline:

* ``PREDICTIVE`` — the OpenSpace scheme: the serving satellite picks the
  successor from the public contact schedule ahead of time; at handover
  the user presents its roaming certificate and only a new link setup is
  paid.
* ``REAUTHENTICATE`` — the baseline: every handover behaves like a fresh
  association, paying the full RADIUS round trip to the home ISP.

The Starlink comparison point ("satellite handover occurring every 15
seconds") is exposed as :data:`STARLINK_HANDOVER_INTERVAL_S` and used by
the handover ablation benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.orbits.contact import ContactWindow

#: Starlink's observed handover cadence (Garcia et al., LEO-NET '23).
STARLINK_HANDOVER_INTERVAL_S = 15.0


class HandoverScheme(enum.Enum):
    """Which handover protocol a simulation run uses."""

    PREDICTIVE = "predictive"
    REAUTHENTICATE = "reauthenticate"


@dataclass(frozen=True)
class HandoverEvent:
    """One satellite-to-satellite handover in a timeline.

    Attributes:
        time_s: When the handover executed.
        from_satellite: Previous serving satellite (None for the initial
            association).
        to_satellite: New serving satellite.
        interruption_s: Time the user had no serving link.
        reauthenticated: Whether a full RADIUS exchange ran.
    """

    time_s: float
    from_satellite: Optional[int]
    to_satellite: int
    interruption_s: float
    reauthenticated: bool


@dataclass
class PassTimeline:
    """Result of simulating a user's connectivity over a period.

    Attributes:
        scheme: The handover scheme used.
        events: Every handover (including the initial association).
        total_interruption_s: Sum of per-event interruptions.
        coverage_gap_s: Time with no satellite overhead at all (not
            chargeable to the handover scheme).
        duration_s: Simulated period length.
    """

    scheme: HandoverScheme
    events: List[HandoverEvent] = field(default_factory=list)
    total_interruption_s: float = 0.0
    coverage_gap_s: float = 0.0
    duration_s: float = 0.0

    @property
    def handover_count(self) -> int:
        """Handovers excluding the initial association."""
        return max(0, len(self.events) - 1)

    @property
    def availability(self) -> float:
        """Fraction of covered time the user actually had service."""
        covered = self.duration_s - self.coverage_gap_s
        if covered <= 0.0:
            return 0.0
        return max(0.0, covered - self.total_interruption_s) / covered

    @property
    def mean_interruption_s(self) -> float:
        if not self.events:
            return 0.0
        return self.total_interruption_s / len(self.events)


def mask_contact_windows(
    windows: Sequence[ContactWindow],
    outages: Sequence[Tuple[int, float, float]],
) -> List[ContactWindow]:
    """Subtract satellite outage intervals from a contact schedule.

    Fault injection invalidates the proactive successor plan: a satellite
    that is down during (part of) its pass cannot serve, so its window is
    clipped or split around each outage. Re-running the
    :class:`HandoverSimulator` on the masked schedule is how handover
    re-selection reacts to faults — successors that disappeared force
    extra handovers or coverage gaps.

    Args:
        windows: The original contact schedule.
        outages: ``(satellite_index, start_s, end_s)`` outage intervals;
            an ``end_s`` of ``float("inf")`` models a permanent loss.

    Returns:
        The surviving (sub-)windows, sorted by start time. Peak elevation
        is inherited from the parent window (a conservative bound; the
        true peak of a clipped window may be lower).
    """
    by_satellite: Dict[int, List[Tuple[float, float]]] = {}
    for satellite_index, start_s, end_s in outages:
        if end_s < start_s:
            raise ValueError(
                f"outage ends at {end_s} before it starts at {start_s}"
            )
        if end_s == start_s:
            # A zero-length outage removes nothing; skipping it avoids
            # splitting a window into two abutting pieces (which would
            # charge a phantom handover at the split point).
            continue
        by_satellite.setdefault(satellite_index, []).append((start_s, end_s))

    masked: List[ContactWindow] = []
    for window in windows:
        pieces = [(window.start_s, window.end_s)]
        for outage_start, outage_end in by_satellite.get(
                window.satellite_index, ()):
            next_pieces: List[Tuple[float, float]] = []
            for piece_start, piece_end in pieces:
                if outage_end <= piece_start or outage_start >= piece_end:
                    next_pieces.append((piece_start, piece_end))
                    continue
                if outage_start > piece_start:
                    next_pieces.append((piece_start, outage_start))
                if outage_end < piece_end:
                    next_pieces.append((outage_end, piece_end))
            pieces = next_pieces
        for piece_start, piece_end in pieces:
            if piece_end - piece_start <= 0.0:
                continue
            masked.append(replace(window, start_s=piece_start,
                                  end_s=piece_end))
    masked.sort(key=lambda w: (w.start_s, w.satellite_index))
    return masked


class HandoverSimulator:
    """Replays a contact schedule under a handover scheme.

    Args:
        link_setup_s: New-session establishment time paid on every
            handover under both schemes.
        auth_round_trip_s: RADIUS round trip to the home ISP; paid per
            handover only under ``REAUTHENTICATE`` (and once at initial
            association under both).
        successor_notice_s: Predictive scheme: how far ahead the serving
            satellite announces the successor; when the overlap between
            consecutive windows is at least this, the user pre-establishes
            and the interruption is only the link switch.
        switch_s: Residual interruption for a pre-established switch.
    """

    def __init__(self, link_setup_s: float = 0.020,
                 auth_round_trip_s: float = 0.180,
                 successor_notice_s: float = 5.0,
                 switch_s: float = 0.002):
        self.link_setup_s = link_setup_s
        self.auth_round_trip_s = auth_round_trip_s
        self.successor_notice_s = successor_notice_s
        self.switch_s = switch_s

    def run(self, windows: Sequence[ContactWindow], scheme: HandoverScheme,
            start_s: float, end_s: float) -> PassTimeline:
        """Simulate service over ``[start_s, end_s]`` given contact windows.

        The serving satellite is always kept until it sets, then the next
        satellite whose window covers (or next begins after) the set time
        takes over — mirroring the paper's successor selection from the
        public schedule.

        Args:
            windows: Contact windows for the user's location (any fleet).
            scheme: Handover protocol to charge.
            start_s: Simulation period start.
            end_s: Simulation period end.
        """
        if end_s <= start_s:
            raise ValueError(f"end {end_s} must be after start {start_s}")
        timeline = PassTimeline(scheme=scheme, duration_s=end_s - start_s)
        ordered = sorted(windows, key=lambda w: w.start_s)

        now = start_s
        current: Optional[ContactWindow] = None
        previous_sat: Optional[int] = None
        while now < end_s:
            # Find the window serving `now`, preferring the one that lasts
            # longest (fewest handovers — what a successor planner does).
            active = [
                w for w in ordered if w.start_s <= now < w.end_s
            ]
            if not active:
                upcoming = [w for w in ordered if w.start_s >= now]
                if not upcoming:
                    timeline.coverage_gap_s += end_s - now
                    break
                next_window = min(upcoming, key=lambda w: w.start_s)
                timeline.coverage_gap_s += min(next_window.start_s, end_s) - now
                now = next_window.start_s
                continue
            current = max(active, key=lambda w: w.end_s)

            is_initial = previous_sat is None
            overlap_s = 0.0
            if not is_initial:
                # Overlap between the departing satellite's window (which
                # ends at `now`) and the successor's window start.
                overlap_s = now - current.start_s
            if is_initial:
                interruption = self.link_setup_s + self.auth_round_trip_s
                reauth = True
            elif scheme is HandoverScheme.REAUTHENTICATE:
                interruption = self.link_setup_s + self.auth_round_trip_s
                reauth = True
            else:
                if overlap_s >= self.successor_notice_s:
                    interruption = self.switch_s
                else:
                    interruption = self.link_setup_s
                reauth = False

            timeline.events.append(
                HandoverEvent(
                    time_s=now,
                    from_satellite=previous_sat,
                    to_satellite=current.satellite_index,
                    interruption_s=interruption,
                    reauthenticated=reauth,
                )
            )
            timeline.total_interruption_s += interruption
            previous_sat = current.satellite_index
            now = min(current.end_s, end_s)
            if now >= end_s:
                break
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("handover.events", len(timeline.events),
                           label=scheme.value)
            recorder.count("handover.coverage_gap_s",
                           timeline.coverage_gap_s, label=scheme.value)
            for event in timeline.events:
                recorder.observe("handover.interruption_s",
                                 event.interruption_s, label=scheme.value)
                recorder.event(
                    "handover", event.time_s,
                    subject=f"sat:{event.to_satellite}",
                    from_satellite=(-1 if event.from_satellite is None
                                    else event.from_satellite),
                    interruption_s=event.interruption_s,
                    reauthenticated=event.reauthenticated,
                    scheme=scheme.value,
                )
        return timeline

    def compare_schemes(self, windows: Sequence[ContactWindow],
                        start_s: float, end_s: float) -> Dict[str, PassTimeline]:
        """Run both schemes over the same schedule."""
        return {
            scheme.value: self.run(windows, scheme, start_s, end_s)
            for scheme in HandoverScheme
        }
