"""The fault-schedule model: what fails, when, and for how long.

A :class:`FaultSchedule` is a plain, serializable list of
:class:`FaultEvent` objects resolved entirely in *simulated* time — the
injector (:mod:`repro.faults.inject`) replays it through the discrete-event
engine rather than mutating topology up front, which is what separates
dynamic fault injection from the static fleet-deletion the original
``resilience_sweep`` performed.

Correlated failure modes are first-class: a whole-plane loss or a
provider-wide withdrawal is one event with many targets, so its members
fail and recover atomically.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.export import atomic_write

#: Separator inside an ISL-link target ("satA|satB"); satellite ids use
#: dashes, so the pipe is unambiguous.
LINK_SEPARATOR = "|"

#: Fields every serialized fault event must carry.
_EVENT_FIELDS = ("fault_id", "kind", "targets", "start_s")


class FaultScheduleError(ValueError):
    """A schedule document that does not describe a fault schedule; the
    message names the offending field and, inside ``events``, the event
    index."""


class FaultKind(enum.Enum):
    """What class of network element a fault takes down."""

    SATELLITE = "satellite"
    GROUND_STATION = "ground_station"
    ISL_LINK = "isl_link"
    #: Correlated loss of every satellite sharing an orbital plane; the
    #: targets list the member satellite ids explicitly.
    PLANE = "plane"
    #: Provider-wide withdrawal (the multi-operator failure mode); the
    #: single target names the provider, expanded by the injector against
    #: the live fleet's ``owner`` fields.
    PROVIDER = "provider"


def link_target(node_a: str, node_b: str) -> str:
    """Canonical (sorted) target string for an ISL-link fault."""
    if LINK_SEPARATOR in node_a or LINK_SEPARATOR in node_b:
        raise ValueError(
            f"node ids may not contain {LINK_SEPARATOR!r}: {node_a!r}, {node_b!r}"
        )
    first, second = sorted((node_a, node_b))
    return f"{first}{LINK_SEPARATOR}{second}"


def parse_link_target(target: str) -> Tuple[str, str]:
    """Split a link target into its sorted endpoint pair, whichever order
    the target names them in."""
    parts = target.split(LINK_SEPARATOR)
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"malformed link target {target!r}")
    first, second = sorted(parts)
    return (first, second)


@dataclass(frozen=True)
class FaultEvent:
    """One failure (and its eventual repair) in simulated time.

    Attributes:
        fault_id: Unique identifier within a schedule.
        kind: Element class being failed.
        targets: Element ids (satellite ids, station ids, ``"a|b"`` link
            targets, or a provider name for :attr:`FaultKind.PROVIDER`).
        start_s: Failure onset, simulation seconds.
        duration_s: Outage length; None means the fault is permanent
            (never repaired).
        cause: Free-form provenance label ("mtbf", "plane-loss", ...).
    """

    fault_id: str
    kind: FaultKind
    targets: Tuple[str, ...]
    start_s: float
    duration_s: Optional[float] = None
    cause: str = ""

    def __post_init__(self) -> None:
        if not self.fault_id:
            raise ValueError("fault_id must be non-empty")
        if not self.targets:
            raise ValueError(f"fault {self.fault_id!r} has no targets")
        if self.start_s < 0.0:
            raise ValueError(
                f"fault {self.fault_id!r} starts at {self.start_s} < 0"
            )
        if self.duration_s is not None and self.duration_s < 0.0:
            raise ValueError(
                f"fault {self.fault_id!r} has negative duration "
                f"{self.duration_s}"
            )
        if self.kind is FaultKind.ISL_LINK:
            for target in self.targets:
                parse_link_target(target)
        # Tuple-ify defensively (callers may pass lists).
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def permanent(self) -> bool:
        return self.duration_s is None

    @property
    def end_s(self) -> Optional[float]:
        """Repair time, or None for permanent faults."""
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    def as_dict(self) -> Dict:
        return {
            "fault_id": self.fault_id,
            "kind": self.kind.value,
            "targets": list(self.targets),
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "cause": self.cause,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        return cls(
            fault_id=data["fault_id"],
            kind=FaultKind(data["kind"]),
            targets=tuple(data["targets"]),
            start_s=float(data["start_s"]),
            duration_s=(None if data.get("duration_s") is None
                        else float(data["duration_s"])),
            cause=data.get("cause", ""),
        )


@dataclass(frozen=True)
class Transition:
    """One fail or repair edge of a fault's lifecycle.

    Attributes:
        time_s: When the transition happens.
        phase: ``"fail"`` or ``"repair"``.
        event: The owning fault event.
    """

    time_s: float
    phase: str
    event: FaultEvent


@dataclass
class FaultSchedule:
    """An ordered, serializable collection of fault events.

    Attributes:
        events: The fault events (any order; transitions are sorted).
        horizon_s: Simulated period the schedule covers; transitions
            beyond it are still emitted (the runner decides the cutoff).
    """

    events: List[FaultEvent] = field(default_factory=list)
    horizon_s: float = 0.0

    def __post_init__(self) -> None:
        seen = set()
        for event in self.events:
            if event.fault_id in seen:
                raise ValueError(f"duplicate fault_id {event.fault_id!r}")
            seen.add(event.fault_id)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def transitions(self) -> List[Transition]:
        """Every fail/repair edge, deterministically ordered.

        Ordering is ``(time, fail-before-repair, fault_id)`` — a zero-MTTR
        fault's repair lands immediately after its own failure, and
        simultaneous transitions of distinct faults resolve by id, so two
        runs of the same schedule replay identically.
        """
        edges: List[Transition] = []
        for event in self.events:
            edges.append(Transition(event.start_s, "fail", event))
            if event.end_s is not None:
                edges.append(Transition(event.end_s, "repair", event))
        edges.sort(key=lambda tr: (
            tr.time_s, 0 if tr.phase == "fail" else 1, tr.event.fault_id
        ))
        return edges

    def extended(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule holding both event lists (ids must not clash)."""
        return FaultSchedule(
            events=list(self.events) + list(other.events),
            horizon_s=max(self.horizon_s, other.horizon_s),
        )

    # -- serialization -------------------------------------------------

    def to_jsonable(self) -> Dict:
        return {
            "horizon_s": self.horizon_s,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "FaultSchedule":
        """Parse :meth:`to_jsonable` output.

        ``horizon_s`` may be absent (read as 0, "no horizon").

        Raises:
            FaultScheduleError: For a document that is not an object,
                a missing or non-list ``events``, an event that is not an
                object, lacks a field, names an unknown ``kind``, holds a
                non-string id or target or a non-finite time, or any
                value the schedule rejects.
        """
        if not isinstance(data, dict):
            raise FaultScheduleError(
                f"schedule must be a JSON object, got {type(data).__name__}")
        if "events" not in data:
            raise FaultScheduleError("schedule lacks field 'events'")
        rows = data["events"]
        if not isinstance(rows, list):
            raise FaultScheduleError(
                f"field 'events' must be a list, got {type(rows).__name__}")
        events = [_event_from_jsonable(row, index)
                  for index, row in enumerate(rows)]
        horizon_s = _finite(data.get("horizon_s", 0.0), "field 'horizon_s'")
        try:
            return cls(events=events, horizon_s=horizon_s)
        except ValueError as exc:
            raise FaultScheduleError(f"bad schedule: {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON text (sorted keys, fixed indent)."""
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse :meth:`to_json` text (see :meth:`from_jsonable`)."""
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int too long
            raise FaultScheduleError(f"not JSON: {exc}") from exc
        return cls.from_jsonable(data)

    def save(self, path: str) -> None:
        """Write the schedule as JSON; a failed write keeps the old file."""
        with atomic_write(path) as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path) as handle:
            return cls.from_json(handle.read())


def _event_from_jsonable(row, index: int) -> FaultEvent:
    """Event ``index`` of a schedule document, or a typed error naming
    it and the offending field."""
    if not isinstance(row, dict):
        raise FaultScheduleError(
            f"event {index} must be a JSON object, got {type(row).__name__}")
    for name in _EVENT_FIELDS:
        if name not in row:
            raise FaultScheduleError(f"event {index} lacks field {name!r}")
    kinds = [kind.value for kind in FaultKind]
    if row["kind"] not in kinds:
        raise FaultScheduleError(
            f"event {index} field 'kind': unknown kind {row['kind']!r}, "
            f"expected one of {kinds}")
    if not isinstance(row["fault_id"], str):
        raise FaultScheduleError(
            f"event {index} field 'fault_id' must be a string, got "
            f"{type(row['fault_id']).__name__}")
    targets = row["targets"]
    if not isinstance(targets, list):
        raise FaultScheduleError(
            f"event {index} field 'targets' must be a list, got "
            f"{type(targets).__name__}")
    for position, target in enumerate(targets):
        if not isinstance(target, str):
            raise FaultScheduleError(
                f"event {index} field 'targets' item {position} must be a "
                f"string, got {type(target).__name__}")
    where = f"event {index} field"
    _finite(row["start_s"], f"{where} 'start_s'")
    if row.get("duration_s") is not None:
        _finite(row["duration_s"], f"{where} 'duration_s'")
    try:
        return FaultEvent.from_dict(row)
    except ValueError as exc:
        raise FaultScheduleError(f"event {index}: {exc}") from exc


def _finite(value, where: str) -> float:
    """``value`` as a float, or a typed error when it is not a finite
    JSON number (``json`` reads ``NaN`` and ``Infinity``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultScheduleError(
            f"{where} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise FaultScheduleError(f"{where} must be finite, got {number}")
    return number


def combine(*schedules: FaultSchedule) -> FaultSchedule:
    """Merge schedules into one (fault ids must be globally unique)."""
    merged = FaultSchedule()
    for schedule in schedules:
        merged = merged.extended(schedule)
    return merged
