"""Span-based tracing for the simulation stack.

A span is one timed region of work — a route precomputation, one sweep
point of an experiment, a flow-simulation run.  Spans nest: the tracer
keeps an open-span stack, so a span opened inside another records its
parent and the export reconstructs the call tree.

Timing uses :func:`time.perf_counter` (monotonic, unaffected by wall
clock steps); each span additionally records attributes supplied at open
time (satellite counts, seeds, snapshot counts) so a trace line is
self-describing.  Span ids are sequential per tracer, which keeps JSONL
exports diff-able across runs — only the duration fields differ.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One finished (or still open) traced region.

    Attributes:
        span_id: Sequential id, unique per tracer.
        parent_id: Enclosing span's id (None at the root).
        name: Dotted span name, e.g. ``"routing.proactive.precompute"``.
        start_s: ``perf_counter`` timestamp at open.
        end_s: ``perf_counter`` timestamp at close (None while open).
        attrs: Caller-supplied attributes.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return float("nan")
        return self.end_s - self.start_s

    def as_row(self) -> Dict:
        return {
            "type": "span", "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "duration_s": self.duration_s, "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans for one run.

    Single-threaded by design (the simulation stack is synchronous); the
    open-span stack is plain list state, no contextvars needed.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block."""
        opened = self.start_span(name, **attrs)
        try:
            yield opened
        finally:
            self.end_span(opened)

    def start_span(self, name: str, **attrs) -> Span:
        """Open a span explicitly (prefer the :meth:`span` manager)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=self._next_id, parent_id=parent, name=name,
                    start_s=time.perf_counter(), attrs=attrs)
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close an open span (and anything opened inside and left open)."""
        span.end_s = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if top.span_id == span.span_id:
                break
            if top.end_s is None:
                top.end_s = span.end_s

    def rows(self) -> List[Dict]:
        """Closed spans as export rows, in open order."""
        return [s.as_row() for s in self.spans if s.end_s is not None]
