"""A minimal discrete-event simulation engine.

A binary-heap scheduler with monotonic event ids for stable FIFO ordering
among simultaneous events.  Protocol modules schedule callbacks; the
engine owns the clock.

Cancellation is lazy (the heap entry stays until popped), but the engine
tracks live sequences separately, and a compaction pass rebuilds the heap
when cancelled entries dominate it — cancelled work cannot accumulate
without bound across :meth:`SimulationEngine.run_until` horizons.

Observability: when a :mod:`repro.obs` recorder is active the engine
counts processed events per label, samples queue depth, and — behind the
recorder's explicit ``time_events`` opt-in — times each event callback.
With the default no-op recorder the only per-event overhead is one
attribute check.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set, Tuple

from repro import obs as _obs

#: Rebuild the heap when at least this many cancelled entries linger AND
#: they outnumber live ones (amortized O(1) per cancel).
_COMPACT_MIN_CANCELLED = 64


@dataclass(frozen=True)
class Event:
    """One scheduled event.

    Attributes:
        time_s: Firing time.
        sequence: Tie-break counter (schedule order among equal times).
        action: Zero-argument callable run at firing time.
        label: Diagnostic label.
    """

    time_s: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)


class SimulationEngine:
    """The event loop.

    Example::

        engine = SimulationEngine()
        engine.schedule(1.0, lambda: print("hello at t=1"))
        engine.run_until(10.0)
    """

    def __init__(self, start_s: float = 0.0):
        self._now = start_s
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._live: Set[int] = set()
        self._cancelled: Set[int] = set()
        self.processed_count = 0

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, time_s: float, action: Callable[[], Any],
                 label: str = "") -> Event:
        """Schedule an event at an absolute time.

        Raises:
            ValueError: When scheduling into the past.
        """
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule at {time_s}; clock already at {self._now}"
            )
        event = Event(time_s, next(self._sequence), action, label)
        heapq.heappush(self._heap, (time_s, event.sequence, event))
        self._live.add(event.sequence)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy removal).

        Idempotent, and a no-op for events that already fired — only live
        sequences enter the cancelled set, so its size is always bounded
        by the heap's.
        """
        if event.sequence not in self._live:
            return
        self._live.discard(event.sequence)
        self._cancelled.add(event.sequence)
        if (len(self._cancelled) >= _COMPACT_MIN_CANCELLED
                and len(self._cancelled) > len(self._live)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify."""
        self._heap = [
            entry for entry in self._heap if entry[1] not in self._cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled.clear()

    def step(self) -> Optional[Event]:
        """Run the next event; returns it, or None when the queue is empty."""
        while self._heap:
            time_s, sequence, event = heapq.heappop(self._heap)
            if sequence in self._cancelled:
                self._cancelled.discard(sequence)
                continue
            self._live.discard(sequence)
            self._now = time_s
            recorder = _obs.active()
            if recorder.enabled:
                self._step_observed(recorder, event)
            else:
                event.action()
            self.processed_count += 1
            return event
        return None

    def _step_observed(self, recorder, event: Event) -> None:
        """Instrumented event dispatch (only on the enabled path)."""
        if recorder.config.time_events:
            start = time.perf_counter()
            event.action()
            recorder.observe("engine.event_duration_s",
                             time.perf_counter() - start,
                             label=event.label or "unlabeled")
        else:
            event.action()
        recorder.count("engine.events", label=event.label or "unlabeled")
        interval = recorder.config.queue_sample_interval
        if self.processed_count % interval == 0:
            depth = len(self._live)
            recorder.gauge("engine.queue_depth", depth)
            recorder.observe("engine.queue_depth", depth,
                             buckets=_obs.DEFAULT_SIZE_BUCKETS)

    def run_until(self, end_s: float, max_events: int = 10_000_000) -> int:
        """Run events with ``time <= end_s``; returns events processed.

        The clock is advanced to ``end_s`` at the end even if the queue
        drains early, so periodic reschedulers observe consistent time.

        Raises:
            RuntimeError: When ``max_events`` fires (runaway guard).
        """
        processed = 0
        with _obs.active().span("engine.run_until", end_s=end_s):
            while self._heap:
                # Purge cancelled heads so the horizon check sees the next
                # *live* event (a cancelled head otherwise either blocks
                # the break or lets step() run an event past end_s).
                while self._heap and self._heap[0][1] in self._cancelled:
                    _, sequence, _ = heapq.heappop(self._heap)
                    self._cancelled.discard(sequence)
                if not self._heap:
                    break
                next_time = self._heap[0][0]
                if next_time > end_s:
                    break
                if self.step() is not None:
                    processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"run_until processed {processed} events without "
                        f"reaching t={end_s}; likely a runaway reschedule "
                        f"loop"
                    )
            self._now = max(self._now, end_s)
        return processed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains; returns events processed."""
        processed = 0
        with _obs.active().span("engine.run"):
            while self.step() is not None:
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"run processed {processed} events without "
                        "draining; likely a runaway reschedule loop"
                    )
        return processed
