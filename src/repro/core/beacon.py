"""Standardized presence beacons.

"All OpenSpace satellites advertise their presence via standardized
periodic beacons that include orbital information.  The user can evaluate
received beacons to identify which satellite is in closest range, and
request to associate with it."  Beacons also announce ISL specifications so
peers can decide whether an optical upgrade is possible before pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.interop import SpacecraftSpec
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions
from repro.orbits.visibility import elevation_angle, slant_range


@dataclass(frozen=True)
class Beacon:
    """One broadcast beacon frame.

    Attributes:
        satellite_id: Sender.
        owner: Sender's operator.
        elements: Published orbital elements — receivers can propagate the
            sender's trajectory themselves (this enables both closest-range
            selection and predictive handover).
        supports_optical: Whether the sender carries laser terminals.
        isl_bands: RF ISL band names the sender supports.
        free_isl_slots: Concurrent-ISL slots the sender offers: its
            declared ceiling.
        timestamp_s: Transmission time.
    """

    satellite_id: str
    owner: str
    elements: OrbitalElements
    supports_optical: bool
    isl_bands: Tuple[str, ...]
    free_isl_slots: int
    timestamp_s: float

    @classmethod
    def from_spec(cls, spec: SpacecraftSpec, timestamp_s: float) -> "Beacon":
        """Build the beacon a spacecraft would broadcast right now."""
        bands = tuple(
            t.band_name for t in spec.rf_isl_terminals
        )
        return cls(
            satellite_id=spec.satellite_id,
            owner=spec.owner,
            elements=spec.elements,
            supports_optical=spec.supports_optical,
            isl_bands=bands,
            free_isl_slots=spec.max_concurrent_isls,
            timestamp_s=timestamp_s,
        )


@dataclass
class BeaconEvaluator:
    """Receiver-side beacon processing.

    Collects beacons heard at a location and ranks candidate satellites by
    slant range (the paper's "closest range" rule), with elevation-mask and
    capacity filters.

    Attributes:
        min_elevation_deg: Mask below which a satellite is unusable.
        require_free_slot: Skip satellites with no spare ISL/association
            capacity.
    """

    min_elevation_deg: float = 25.0
    require_free_slot: bool = True
    heard: List[Beacon] = field(default_factory=list)

    def receive(self, beacon: Beacon) -> None:
        """Store a heard beacon (latest wins per satellite)."""
        self.heard = [
            b for b in self.heard if b.satellite_id != beacon.satellite_id
        ]
        self.heard.append(beacon)

    def rank(self, receiver_position_eci: np.ndarray,
             time_s: float) -> List[Tuple[float, Beacon]]:
        """Usable beacons sorted nearest-first.

        Args:
            receiver_position_eci: Receiver ECI position (km) at ``time_s``.
            time_s: Evaluation time (every candidate beacon's elements
                are propagated to it in one fleet).

        Returns:
            ``(slant_range_km, beacon)`` tuples, nearest first.
        """
        mask_rad = math.radians(self.min_elevation_deg)
        candidates = [
            beacon for beacon in self.heard
            if not (self.require_free_slot and beacon.free_isl_slots == 0)
        ]
        positions = batch_positions(
            KeplerFleet([beacon.elements for beacon in candidates]), time_s)
        ranked = []
        for beacon, (sat_pos,) in zip(candidates, positions):
            if elevation_angle(receiver_position_eci, sat_pos) < mask_rad:
                continue
            ranked.append((slant_range(receiver_position_eci, sat_pos), beacon))
        ranked.sort(key=lambda item: item[0])
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("beacon.rank_calls")
            recorder.count("beacon.evaluated", len(self.heard))
            recorder.count("beacon.usable", len(ranked))
        return ranked
