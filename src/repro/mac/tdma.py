"""TDMA comparator for the ISL MAC ablation.

The synchronized alternative to CSMA/CA: each station owns a fixed slot in
a repeating frame, so there are no collisions and no backoff, at the cost
of requiring time synchronization (which the paper notes heterogeneous
constellations find harder) and of wasting slots owned by idle stations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mac.common import MacResult


@dataclass(frozen=True)
class TdmaConfig:
    """TDMA parameters.

    Attributes:
        slot_time_s: Duration of one TDMA payload slot.
        guard_time_s: Guard interval appended to every slot (absorbs clock
            error and differential propagation across the heterogeneous
            fleet — the "synchronization tax").
        frame_slots_per_station: Consecutive slots each station owns per
            frame cycle.
    """

    slot_time_s: float = 0.15
    guard_time_s: float = 0.005
    frame_slots_per_station: int = 1

    def __post_init__(self) -> None:
        if self.slot_time_s <= 0.0:
            raise ValueError(f"slot time must be positive, got {self.slot_time_s}")
        if self.guard_time_s < 0.0:
            raise ValueError(f"guard time must be >= 0, got {self.guard_time_s}")
        if self.frame_slots_per_station < 1:
            raise ValueError(
                f"need >= 1 slot per station, got {self.frame_slots_per_station}"
            )


class TdmaSimulator:
    """Round-robin TDMA channel with N stations.

    One queued frame is served per owned slot.  Arrivals are Bernoulli per
    slot (matching the CSMA/CA simulator so the two are comparable under
    identical offered load).

    Args:
        station_count: Number of stations in the TDMA frame.
        config: Timing parameters.
        arrival_rate_fps: Frames per second per station.
        rng: Seeded random generator.
    """

    def __init__(self, station_count: int, config: TdmaConfig,
                 arrival_rate_fps: float, rng: np.random.Generator):
        if station_count < 1:
            raise ValueError(f"need >= 1 station, got {station_count}")
        if arrival_rate_fps < 0.0:
            raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_fps}")
        self.config = config
        self.station_count = station_count
        self._rng = rng
        self._arrival_rate = arrival_rate_fps
        self._queues: List[List[float]] = [[] for _ in range(station_count)]

    def run(self, duration_s: float) -> MacResult:
        """Simulate ``duration_s`` seconds of TDMA frames."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        cfg = self.config
        slot_total_s = cfg.slot_time_s + cfg.guard_time_s
        p_arrival = min(1.0, self._arrival_rate * slot_total_s)
        total_slots = int(duration_s / slot_total_s)
        result = MacResult(duration_s=total_slots * slot_total_s)

        for slot in range(total_slots):
            now_s = slot * slot_total_s
            arrivals = self._rng.random(self.station_count) < p_arrival
            for sid, arrived in enumerate(arrivals):
                if arrived:
                    self._queues[sid].append(now_s)
                    result.frames_offered += 1
            owner = (slot // cfg.frame_slots_per_station) % self.station_count
            if self._queues[owner]:
                arrival = self._queues[owner].pop(0)
                end_s = now_s + cfg.slot_time_s
                result.frames_delivered += 1
                result.delays_s.append(end_s - arrival)
                result.useful_time_s += cfg.slot_time_s
        return result
