"""Labeled metric instruments and their registry.

Three instrument kinds cover everything the simulation stack needs to
report:

* :class:`Counter` — monotonically increasing totals (events processed,
  flows rejected, control messages).
* :class:`Gauge` — last-written values with min/max tracking (queue
  depth, cache size).
* :class:`Histogram` — distributions, recorded twice: into fixed buckets
  (cheap, mergeable) and into a bounded reservoir for percentile queries.

Every instrument is keyed by ``(name, label)`` so one metric name can
fan out across labels (per-event-label counts, per-scheme handover
interruptions) without pre-declaring the label set.

Determinism: reservoir down-sampling uses a private :class:`random.Random`
seeded from the instrument's key, so two runs that observe the same value
sequence report identical percentiles — a requirement for telemetry that
sits next to seeded experiment results.
"""

from __future__ import annotations

import bisect
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets for durations in seconds (1 µs .. 100 s).
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
) + (100.0,)

#: Default buckets for dimensionless sizes (queue depths, hop counts).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0,
    2_500.0, 5_000.0, 10_000.0, 100_000.0,
)


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    label: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0.0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def as_row(self) -> Dict:
        return {"type": "counter", "name": self.name, "label": self.label,
                "value": self.value}


@dataclass
class Gauge:
    """A last-value instrument with min/max envelope."""

    name: str
    label: str = ""
    value: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.minimum = min(self.minimum, self.value)
        self.maximum = max(self.maximum, self.value)
        self.updates += 1

    def as_row(self) -> Dict:
        return {
            "type": "gauge", "name": self.name, "label": self.label,
            "value": self.value,
            "min": self.minimum if self.updates else 0.0,
            "max": self.maximum if self.updates else 0.0,
            "updates": self.updates,
        }


class Histogram:
    """Fixed-bucket histogram with a deterministic percentile reservoir.

    Args:
        name: Metric name.
        label: Instrument label.
        buckets: Ascending bucket upper bounds; an implicit +inf bucket
            catches overflow.
        reservoir_size: Cap on retained samples for percentile queries;
            beyond it, Vitter's Algorithm R down-samples uniformly with a
            key-seeded RNG (deterministic per observation sequence).
    """

    def __init__(self, name: str, label: str = "",
                 buckets: Optional[Sequence[float]] = None,
                 reservoir_size: int = 1024):
        if reservoir_size < 1:
            raise ValueError(
                f"reservoir size must be >= 1, got {reservoir_size}"
            )
        bounds = tuple(buckets) if buckets else DEFAULT_TIME_BUCKETS_S
        if any(b >= a for a, b in zip(bounds[1:], bounds[:-1])):
            raise ValueError("histogram buckets must be strictly ascending")
        self.name = name
        self.label = label
        self.bounds: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(zlib.crc32(f"{name}|{label}".encode()))

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Reservoir percentile ``q`` in [0, 100]; NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._reservoir:
            return float("nan")
        ordered = sorted(self._reservoir)
        rank = q / 100.0 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def as_row(self) -> Dict:
        empty = self.count == 0
        return {
            "type": "histogram", "name": self.name, "label": self.label,
            "count": self.count, "total": self.total,
            "min": 0.0 if empty else self.minimum,
            "max": 0.0 if empty else self.maximum,
            "mean": 0.0 if empty else self.mean,
            "p50": self.percentile(50.0) if not empty else 0.0,
            "p95": self.percentile(95.0) if not empty else 0.0,
            "p99": self.percentile(99.0) if not empty else 0.0,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Owns every instrument of one run, keyed by ``(name, label)``.

    Lookups create on first use, so instrumented code never declares
    metrics up front; repeated lookups return the same instrument.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    def counter(self, name: str, label: str = "") -> Counter:
        key = (name, label)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, label)
        return instrument

    def gauge(self, name: str, label: str = "") -> Gauge:
        key = (name, label)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, label)
        return instrument

    def histogram(self, name: str, label: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        key = (name, label)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, label, buckets=buckets
            )
        return instrument

    def rows(self) -> List[Dict]:
        """Every instrument as a plain row, sorted by (type, name, label).

        Sorted output is what makes same-seed runs byte-identical on
        export regardless of instrument creation order.
        """
        rows = (
            [c.as_row() for c in self._counters.values()]
            + [g.as_row() for g in self._gauges.values()]
            + [h.as_row() for h in self._histograms.values()]
        )
        rows.sort(key=lambda r: (r["type"], r["name"], r["label"]))
        return rows
