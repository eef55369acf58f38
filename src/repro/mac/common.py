"""Shared MAC result types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class MacResult:
    """Aggregate outcome of a MAC simulation run.

    Attributes:
        duration_s: Simulated wall-clock duration.
        frames_offered: Frames generated across all stations.
        frames_delivered: Frames successfully received.
        frames_collided: Frame transmissions lost to collisions.
        useful_time_s: Time the channel carried transmissions that were
            ultimately delivered (goodput time).
        delays_s: Per-delivered-frame queueing+access delay samples.
    """

    duration_s: float
    frames_offered: int = 0
    frames_delivered: int = 0
    frames_collided: int = 0
    useful_time_s: float = 0.0
    delays_s: List[float] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        """Fraction of offered frames delivered."""
        if self.frames_offered == 0:
            return 0.0
        return self.frames_delivered / self.frames_offered

    @property
    def goodput_efficiency(self) -> float:
        """Fraction of time spent on ultimately-delivered payload."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.useful_time_s / self.duration_s

    @property
    def mean_delay_s(self) -> float:
        """Mean access delay over delivered frames (0 when none delivered)."""
        if not self.delays_s:
            return 0.0
        return sum(self.delays_s) / len(self.delays_s)
