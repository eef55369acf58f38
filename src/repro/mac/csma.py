"""Slotted CSMA/CA for inter-satellite channels.

Implements the 802.11-DCF-style access the paper references for satellite
constellations: carrier sense, DIFS inter-frame spacing, binary exponential
backoff with a contention window that doubles on collision, and SIFS+ACK
completion.  The known cost — "higher overhead and corresponding larger
latency due to Inter-Frame Spacing and backoff window requirements" — is
exactly what the MAC ablation benchmark measures against TDMA.

The simulator is slot-based: all durations are expressed in whole slots,
Bernoulli arrivals feed per-station FIFO queues, and any overlap of two
transmissions destroys both (no capture effect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mac.common import MacResult


@dataclass(frozen=True)
class CsmaCaConfig:
    """CSMA/CA parameters.

    Slot time defaults reflect an ISL-scale channel: LEO cross-link
    propagation is milliseconds, so the slot must be much larger than in
    terrestrial Wi-Fi for carrier sensing to be meaningful.

    Attributes:
        slot_time_s: One backoff slot (>= one-way propagation time).
        difs_slots: Idle slots of inter-frame spacing before contending.
        sifs_slots: Short IFS between data and ACK.
        ack_slots: ACK transmission duration in slots.
        frame_slots: Data-frame transmission duration in slots.
        cw_min: Initial contention window (slots).
        cw_max: Contention window ceiling.
        max_retries: Attempts before a frame is dropped.
    """

    slot_time_s: float = 0.015
    difs_slots: int = 3
    sifs_slots: int = 1
    ack_slots: int = 1
    frame_slots: int = 10
    cw_min: int = 16
    cw_max: int = 1024
    max_retries: int = 7

    def __post_init__(self) -> None:
        if self.slot_time_s <= 0.0:
            raise ValueError(f"slot time must be positive, got {self.slot_time_s}")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError(
                f"need 1 <= cw_min <= cw_max, got {self.cw_min}, {self.cw_max}"
            )
        if self.frame_slots < 1:
            raise ValueError(f"frame must last >= 1 slot, got {self.frame_slots}")


class _Station:
    """Per-station MAC state: queue, backoff counter, retry count."""

    def __init__(self, config: CsmaCaConfig, rng: np.random.Generator):
        self._config = config
        self._rng = rng
        self.queue: List[float] = []  # arrival times of queued frames
        self.backoff: Optional[int] = None
        self.retries = 0
        self.difs_counter = 0

    def has_frame(self) -> bool:
        return bool(self.queue)

    def start_contention(self) -> None:
        """Draw a fresh backoff for the head-of-line frame."""
        cw = min(
            self._config.cw_max, self._config.cw_min * (2**self.retries)
        )
        self.backoff = int(self._rng.integers(0, cw))
        self.difs_counter = self._config.difs_slots

    def on_collision(self) -> bool:
        """Double the window; returns False when the frame must be dropped."""
        self.retries += 1
        if self.retries > self._config.max_retries:
            self.queue.pop(0)
            self.retries = 0
            self.backoff = None
            return False
        self.start_contention()
        return True

    def on_success(self) -> float:
        """Dequeue the delivered frame; returns its arrival time."""
        arrival = self.queue.pop(0)
        self.retries = 0
        self.backoff = None
        return arrival


class CsmaCaSimulator:
    """Slot-stepped CSMA/CA channel with N contending stations.

    Args:
        station_count: Number of stations sharing the channel.
        config: MAC timing parameters.
        arrival_rate_fps: Frame arrivals per second per station (Bernoulli
            per slot, rate clamped so the per-slot probability stays <= 1).
        rng: Seeded random generator.
    """

    def __init__(self, station_count: int, config: CsmaCaConfig,
                 arrival_rate_fps: float, rng: np.random.Generator):
        if station_count < 1:
            raise ValueError(f"need >= 1 station, got {station_count}")
        if arrival_rate_fps < 0.0:
            raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_fps}")
        self.config = config
        self._rng = rng
        self._stations = [_Station(config, rng) for _ in range(station_count)]
        self._p_arrival = min(1.0, arrival_rate_fps * config.slot_time_s)

    def run(self, duration_s: float) -> MacResult:
        """Simulate the channel for ``duration_s`` seconds of slot time."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        cfg = self.config
        total_slots = int(duration_s / cfg.slot_time_s)
        result = MacResult(duration_s=total_slots * cfg.slot_time_s)

        slot = 0
        while slot < total_slots:
            now_s = slot * cfg.slot_time_s
            # Bernoulli arrivals for this slot.
            arrivals = self._rng.random(len(self._stations)) < self._p_arrival
            for station, arrived in zip(self._stations, arrivals):
                if arrived:
                    station.queue.append(now_s)
                    result.frames_offered += 1
                    if station.backoff is None and len(station.queue) == 1:
                        station.start_contention()
                if station.has_frame() and station.backoff is None:
                    station.start_contention()

            # Stations first wait out DIFS, then count down backoff.
            transmitters = []
            for station in self._stations:
                if not station.has_frame() or station.backoff is None:
                    continue
                if station.difs_counter > 0:
                    station.difs_counter -= 1
                    continue
                if station.backoff > 0:
                    station.backoff -= 1
                    continue
                transmitters.append(station)

            if not transmitters:
                slot += 1
                continue

            tx_slots = cfg.frame_slots + cfg.sifs_slots + cfg.ack_slots
            if len(transmitters) == 1:
                station = transmitters[0]
                arrival = station.on_success()
                result.frames_delivered += 1
                end_s = (slot + tx_slots) * cfg.slot_time_s
                result.delays_s.append(end_s - arrival)
                result.useful_time_s += min(
                    cfg.frame_slots * cfg.slot_time_s,
                    max(0.0, (total_slots - slot) * cfg.slot_time_s),
                )
            else:
                result.frames_collided += len(transmitters)
                for station in transmitters:
                    station.on_collision()
            # Channel is occupied for the whole exchange either way (a
            # collision still burns the frame airtime before timeout).
            slot += tx_slots
            # Freeze: other stations' counters simply don't advance during
            # the busy period, which the slot jump accomplishes.
        return result
