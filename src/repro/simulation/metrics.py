"""Metric collection and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Summary of one metric sample set.

    Attributes:
        count: Number of samples.
        mean: Arithmetic mean.
        std: Population standard deviation.
        minimum: Smallest sample.
        p50: Median.
        p95: 95th percentile.
        maximum: Largest sample.
    """

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    maximum: float


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Summary statistics of a sample set.

    Raises:
        ValueError: On an empty sample set (an empty metric usually means
            an experiment wiring bug; surfacing it beats returning NaNs).
    """
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample set")
    arr = np.asarray(samples, dtype=float)
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        maximum=float(arr.max()),
    )


@dataclass
class LatencyCollector:
    """Collects per-flow latency samples with reachability accounting.

    Attributes:
        samples_s: Latencies of flows that found a path.
        unreachable_count: Flows with no path at their start time.
    """

    samples_s: List[float] = field(default_factory=list)
    unreachable_count: int = 0

    def record(self, latency_s: Optional[float]) -> None:
        """Record one flow outcome (None = unreachable)."""
        if latency_s is None:
            self.unreachable_count += 1
        elif latency_s < 0.0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        else:
            self.samples_s.append(latency_s)

    @property
    def reachability(self) -> float:
        """Fraction of recorded flows that found a path.

        Returns ``float("nan")`` when no flows were recorded at all —
        "nothing measured" must stay distinguishable from "every flow
        unreachable" (0.0), which a default of zero silently conflated.
        Callers aggregating reachability across runs should skip NaNs
        (``math.isnan``) rather than average them away.
        """
        total = len(self.samples_s) + self.unreachable_count
        if total == 0:
            return float("nan")
        return len(self.samples_s) / total

    def summary(self) -> SummaryStats:
        return summarize(self.samples_s)

    def summary_ms(self) -> SummaryStats:
        """Summary with samples converted to milliseconds."""
        return summarize([s * 1000.0 for s in self.samples_s])


@dataclass
class SeriesCollector:
    """Collects (x, y) series — one row per sweep point.

    Used by the figure-regeneration drivers: x is the swept parameter
    (e.g. satellite count), y values accumulate per x.
    """

    name: str = "series"
    _points: Dict[float, List[float]] = field(default_factory=dict)

    def add(self, x: float, y: float) -> None:
        self._points.setdefault(x, []).append(y)

    def xs(self) -> List[float]:
        return sorted(self._points)

    def summary_at(self, x: float) -> SummaryStats:
        return summarize(self._points[x])
