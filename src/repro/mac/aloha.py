"""Slotted ALOHA — the zero-coordination MAC floor.

The inter-satellite MAC survey the paper cites covers ALOHA variants as
the simplest random-access schemes.  Slotted ALOHA needs no carrier sense
(useful when propagation delays defeat sensing) and no synchronization
beyond slot boundaries; its price is the classic ``G e^{-G}`` throughput
ceiling of ~36.8%.  Included as the lower bound the CSMA/CA-vs-TDMA
ablation is read against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mac.common import MacResult


@dataclass(frozen=True)
class AlohaConfig:
    """Slotted-ALOHA parameters.

    Attributes:
        slot_time_s: Slot duration (one frame per slot).
        retransmit_probability: Probability a backlogged station attempts
            in a slot (geometric backoff).
        max_attempts: Attempts before a frame is dropped.
    """

    slot_time_s: float = 0.15
    retransmit_probability: float = 0.2
    max_attempts: int = 15

    def __post_init__(self) -> None:
        if self.slot_time_s <= 0.0:
            raise ValueError(f"slot time must be positive, got {self.slot_time_s}")
        if not 0.0 < self.retransmit_probability <= 1.0:
            raise ValueError(
                "retransmit probability must be in (0, 1], got "
                f"{self.retransmit_probability}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"need >= 1 attempt, got {self.max_attempts}")


class SlottedAlohaSimulator:
    """Slotted ALOHA with Bernoulli arrivals and geometric retransmission.

    Args:
        station_count: Contending stations.
        config: Protocol parameters.
        arrival_rate_fps: Frames per second per station.
        rng: Seeded generator.
    """

    def __init__(self, station_count: int, config: AlohaConfig,
                 arrival_rate_fps: float, rng: np.random.Generator):
        if station_count < 1:
            raise ValueError(f"need >= 1 station, got {station_count}")
        if arrival_rate_fps < 0.0:
            raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_fps}")
        self.config = config
        self.station_count = station_count
        self._rng = rng
        self._arrival_rate = arrival_rate_fps

    def run(self, duration_s: float) -> MacResult:
        """Simulate ``duration_s`` of slotted operation."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        cfg = self.config
        total_slots = int(duration_s / cfg.slot_time_s)
        p_arrival = min(1.0, self._arrival_rate * cfg.slot_time_s)
        result = MacResult(duration_s=total_slots * cfg.slot_time_s)
        # Per-station: list of (arrival_time, attempts) queued frames.
        queues: List[List[List[float]]] = [[] for _ in range(self.station_count)]

        for slot in range(total_slots):
            now = slot * cfg.slot_time_s
            arrivals = self._rng.random(self.station_count) < p_arrival
            for sid, arrived in enumerate(arrivals):
                if arrived:
                    queues[sid].append([now, 0])
                    result.frames_offered += 1
            # Each backlogged station transmits its head-of-line frame:
            # immediately on a fresh frame, else with the geometric
            # retransmission probability.
            transmitters = []
            for sid in range(self.station_count):
                if not queues[sid]:
                    continue
                head = queues[sid][0]
                fresh = head[1] == 0
                if fresh or self._rng.random() < cfg.retransmit_probability:
                    transmitters.append(sid)
            if not transmitters:
                continue
            if len(transmitters) == 1:
                sid = transmitters[0]
                arrival, _ = queues[sid].pop(0)
                result.frames_delivered += 1
                result.delays_s.append(now + cfg.slot_time_s - arrival)
                result.useful_time_s += cfg.slot_time_s
            else:
                result.frames_collided += len(transmitters)
                for sid in transmitters:
                    head = queues[sid][0]
                    head[1] += 1
                    if head[1] >= cfg.max_attempts:
                        queues[sid].pop(0)
        return result
