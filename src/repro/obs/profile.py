"""Phase profiler for experiment stages.

Experiment drivers run in coarse stages — build constellation, snapshot
topology, precompute routes, simulate flows, aggregate.  The profiler
answers "where did the wall-clock go" at that granularity: each phase is
a named accumulator of (calls, total seconds), cheap enough to wrap
every sweep point.

Unlike spans (which record every instance), a phase keeps only the
aggregate, so a 10,000-point sweep costs 10,000 perf_counter pairs but
O(phases) memory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class PhaseProfiler:
    """Accumulates wall-clock per named phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the ``with`` block's wall-clock to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            row = self._phases.get(name)
            if row is None:
                row = self._phases[name] = {
                    "calls": 0, "total_s": 0.0, "max_s": 0.0,
                }
            row["calls"] += 1
            row["total_s"] += elapsed
            row["max_s"] = max(row["max_s"], elapsed)

    def total_s(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 when never entered)."""
        row = self._phases.get(name)
        return row["total_s"] if row else 0.0

    def calls(self, name: str) -> int:
        row = self._phases.get(name)
        return int(row["calls"]) if row else 0

    def rows(self) -> List[Dict]:
        """Export rows sorted by descending total time."""
        rows = [
            {"type": "phase", "name": name, "calls": int(row["calls"]),
             "total_s": row["total_s"], "max_s": row["max_s"]}
            for name, row in self._phases.items()
        ]
        rows.sort(key=lambda r: (-r["total_s"], r["name"]))
        return rows

    def report(self) -> str:
        """Human-readable table, slowest phase first."""
        rows = self.rows()
        if not rows:
            return "no phases recorded"
        width = max(len(r["name"]) for r in rows)
        lines = [f"{'phase':<{width}}  {'calls':>7}  {'total_s':>10}  "
                 f"{'max_s':>10}"]
        for row in rows:
            lines.append(
                f"{row['name']:<{width}}  {row['calls']:>7d}  "
                f"{row['total_s']:>10.4f}  {row['max_s']:>10.4f}"
            )
        return "\n".join(lines)
