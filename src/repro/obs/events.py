"""The structured event bus and the flight recorder.

Where the metrics registry aggregates (a counter tells you *how many*
handovers happened), the event log keeps the *timeline*: every discrete
network-state change — link up/down, handover, fault inject/recover,
circuit-breaker transition, retransmission, session admit/drop — as one
typed, timestamped record in emission order.

Determinism is the design constraint.  Events carry **simulated** time
only (never wall clock) and a monotone sequence number assigned at
emission, so two same-seed runs produce byte-identical event streams —
the property the export layer, the parallel sweep runner, and the CI
determinism diff all rely on.

Two retention surfaces share one log:

* the **flight recorder** — a bounded ring buffer of the last
  ``capacity`` events, always on, dumped to stderr when a CLI run dies
  (and available on demand via :meth:`EventLog.tail`);
* the full stream — every event since the run started, retained when
  ``retain_all`` is set (the default for CLI-installed recorders) and
  exported by :func:`repro.obs.export.write_events_jsonl`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Canonical event kinds.  Emit sites may mint new kinds freely (the log
#: is schemaless past these four fields), but everything in-repo uses
#: these so downstream tooling can group reliably.
LINK_UP = "link.up"
LINK_DOWN = "link.down"
HANDOVER = "handover"
FAULT_INJECT = "fault.inject"
FAULT_RECOVER = "fault.recover"
BREAKER_TRANSITION = "breaker.transition"
RETRANSMISSION = "retransmission"
SESSION_ADMIT = "session.admit"
SESSION_DROP = "session.drop"
#: Bundle lifecycle (the disruption-tolerant data plane, repro.dtn):
#: creation at a sensor, hop-by-hop forwarding, terminal delivery, a
#: buffer-policy drop, and a TTL expiry.
BUNDLE_CREATE = "bundle.create"
BUNDLE_FORWARD = "bundle.forward"
BUNDLE_DELIVER = "bundle.deliver"
BUNDLE_DROP = "bundle.drop"
BUNDLE_EXPIRE = "bundle.expire"
#: Custody-transfer outcomes: the next hop acknowledged custody, or the
#: retry budget ran out and the sender re-queued the bundle.
CUSTODY_ACCEPT = "custody.accept"
CUSTODY_TIMEOUT = "custody.timeout"

KINDS: Tuple[str, ...] = (
    LINK_UP, LINK_DOWN, HANDOVER, FAULT_INJECT, FAULT_RECOVER,
    BREAKER_TRANSITION, RETRANSMISSION,
    SESSION_ADMIT, SESSION_DROP,
    BUNDLE_CREATE, BUNDLE_FORWARD, BUNDLE_DELIVER, BUNDLE_DROP,
    BUNDLE_EXPIRE, CUSTODY_ACCEPT, CUSTODY_TIMEOUT,
)

#: Default flight-recorder depth: enough to reconstruct the lead-up to a
#: crash without holding a long run's full history twice.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class Event:
    """One timeline record.

    Attributes:
        seq: Monotone emission index within the run (0-based).
        time_s: Simulated time of the state change.
        kind: Event type (see the module constants).
        subject: The element this happened to — a link key, satellite id,
            fault id, user id — used for "noisiest subject" rollups.
        attrs: Extra fields, sorted by key for stable serialization.
    """

    seq: int
    time_s: float
    kind: str
    subject: str = ""
    attrs: Tuple[Tuple[str, object], ...] = ()

    def as_row(self) -> Dict:
        """The event as a flat export record (``type: "event"``)."""
        return {
            "type": "event",
            "seq": self.seq,
            "t": self.time_s,
            "kind": self.kind,
            "subject": self.subject,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Owns a run's event timeline: full stream plus flight-recorder ring.

    Args:
        capacity: Flight-recorder depth (last N events kept regardless of
            ``retain_all``).
        retain_all: Keep the complete stream for export.  Off, only the
            ring survives — the mode for long-lived services that stream
            events out as they happen instead of dumping at exit.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 retain_all: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.retain_all = retain_all
        self._ring: "deque[Event]" = deque(maxlen=capacity)
        self._all: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return self._seq

    def emit(self, kind: str, time_s: float, subject: str = "",
             **attrs) -> Event:
        """Append one event; returns it."""
        event = Event(
            seq=self._seq,
            time_s=float(time_s),
            kind=kind,
            subject=subject,
            attrs=tuple(sorted(attrs.items())),
        )
        self._seq += 1
        self._ring.append(event)
        if self.retain_all:
            self._all.append(event)
        return event

    @property
    def events(self) -> List[Event]:
        """The retained stream (full when ``retain_all``, else the ring)."""
        if self.retain_all:
            return list(self._all)
        return list(self._ring)

    def tail(self, count: Optional[int] = None) -> List[Event]:
        """The flight recorder's last ``count`` events (all, by default)."""
        if count is None or count >= len(self._ring):
            return list(self._ring)
        if count <= 0:
            return []
        return list(self._ring)[-count:]

    def rows(self) -> List[Dict]:
        """Every retained event as an export record, in emission order."""
        return [event.as_row() for event in self.events]

    def replay_rows(self, rows: Iterable[Dict]) -> int:
        """Re-emit previously exported event rows into this log.

        The merge path for parallel sweeps: worker processes capture
        events in a local log, ship them back as rows, and the parent
        replays them in point order — re-sequencing so the merged stream
        is indistinguishable from a serial run.

        Returns:
            The number of events replayed.
        """
        replayed = 0
        for row in rows:
            if row.get("type") != "event":
                continue
            self.emit(
                str(row.get("kind", "?")),
                float(row.get("t", 0.0)),
                subject=str(row.get("subject", "")),
                **dict(row.get("attrs") or {}),
            )
            replayed += 1
        return replayed


def format_events(events: Sequence[Event]) -> str:
    """Human-readable one-line-per-event rendering (flight-recorder dump)."""
    if not events:
        return "(no events recorded)"
    lines = []
    for event in events:
        attrs = " ".join(
            f"{key}={value}" for key, value in event.attrs
        )
        subject = f" {event.subject}" if event.subject else ""
        lines.append(
            f"#{event.seq:<6} t={event.time_s:12.3f}  "
            f"{event.kind:<20}{subject}{('  ' + attrs) if attrs else ''}"
        )
    return "\n".join(lines)
