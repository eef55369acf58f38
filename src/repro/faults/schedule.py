"""Seeded fault-schedule generators.

Every generator draws from a caller-supplied seed (or numpy Generator) and
iterates element ids in their given order, so the same seed always yields
the same schedule — the property the CLI's byte-identical-output guarantee
rests on.

Failure processes follow the classic renewal model: exponential
time-to-failure with mean MTBF, exponential time-to-repair with mean MTTR
(``mttr_s=None`` makes every failure permanent, ``mttr_s=0`` makes repair
instantaneous — the degenerate modes the static resilience sweep and its
no-outage control are built from).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.model import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    combine,
    link_target,
)

RngLike = Union[int, np.random.Generator]


def _rng_of(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _renewal_events(element_id: str, kind: FaultKind, horizon_s: float,
                    mtbf_s: float, mttr_s: Optional[float],
                    rng: np.random.Generator, prefix: str,
                    cause: str) -> List[FaultEvent]:
    """Failure/repair renewal process for one element over the horizon."""
    if mtbf_s <= 0.0:
        raise ValueError(f"MTBF must be positive, got {mtbf_s}")
    if mttr_s is not None and mttr_s < 0.0:
        raise ValueError(f"MTTR must be >= 0 or None, got {mttr_s}")
    events: List[FaultEvent] = []
    clock = float(rng.exponential(mtbf_s))
    index = 0
    while clock < horizon_s:
        if mttr_s is None:
            duration: Optional[float] = None
        elif mttr_s == 0.0:
            duration = 0.0
        else:
            duration = float(rng.exponential(mttr_s))
        events.append(FaultEvent(
            fault_id=f"{prefix}-{element_id}-{index}",
            kind=kind,
            targets=(element_id,),
            start_s=clock,
            duration_s=duration,
            cause=cause,
        ))
        if duration is None:
            break  # Permanently down; no further failures possible.
        clock += duration + float(rng.exponential(mtbf_s))
        index += 1
    return events


def satellite_mtbf_schedule(satellite_ids: Sequence[str], horizon_s: float,
                            mtbf_s: float, mttr_s: Optional[float],
                            seed: RngLike = 0) -> FaultSchedule:
    """Independent per-satellite failures with MTBF/MTTR draws."""
    rng = _rng_of(seed)
    events: List[FaultEvent] = []
    for sat_id in satellite_ids:
        events.extend(_renewal_events(
            sat_id, FaultKind.SATELLITE, horizon_s, mtbf_s, mttr_s, rng,
            prefix="mtbf", cause="mtbf",
        ))
    return FaultSchedule(events=events, horizon_s=horizon_s)


def ground_station_outage_schedule(station_ids: Sequence[str],
                                   horizon_s: float, mtbf_s: float,
                                   mttr_s: Optional[float],
                                   seed: RngLike = 0) -> FaultSchedule:
    """Independent gateway outages (backhaul cuts, weather, maintenance)."""
    rng = _rng_of(seed)
    events: List[FaultEvent] = []
    for station_id in station_ids:
        events.extend(_renewal_events(
            station_id, FaultKind.GROUND_STATION, horizon_s, mtbf_s,
            mttr_s, rng, prefix="gs-outage", cause="ground-outage",
        ))
    return FaultSchedule(events=events, horizon_s=horizon_s)


def link_flap_schedule(links: Sequence[Tuple[str, str]], horizon_s: float,
                       mtbf_s: float, mttr_s: Optional[float],
                       seed: RngLike = 0) -> FaultSchedule:
    """Short ISL flaps (pointing loss, interference) on specific links."""
    rng = _rng_of(seed)
    events: List[FaultEvent] = []
    for node_a, node_b in links:
        target = link_target(node_a, node_b)
        events.extend(_renewal_events(
            target, FaultKind.ISL_LINK, horizon_s, mtbf_s, mttr_s, rng,
            prefix="flap", cause="link-flap",
        ))
    return FaultSchedule(events=events, horizon_s=horizon_s)


def plane_members(fleet) -> Dict[float, List[str]]:
    """Group a fleet's satellite ids by orbital plane (shared RAAN).

    Args:
        fleet: :class:`~repro.core.interop.SpacecraftSpec` sequence.

    Returns:
        Mapping of RAAN (radians, rounded to ~µrad so float noise cannot
        split a plane) to the member satellite ids, in fleet order.
    """
    planes: Dict[float, List[str]] = {}
    for spec in fleet:
        key = round(spec.elements.raan_rad, 6)
        planes.setdefault(key, []).append(spec.satellite_id)
    return planes


def plane_loss_event(fleet, plane_index: int, start_s: float,
                     duration_s: Optional[float] = None,
                     fault_id: Optional[str] = None) -> FaultEvent:
    """Correlated loss of one whole orbital plane.

    The launch-dispenser / plane-level-bus failure mode: every satellite
    sharing the plane's RAAN fails and recovers together.

    Args:
        fleet: The spacecraft specs the plane is resolved against.
        plane_index: Index into the RAAN-sorted plane list.
        start_s: Failure onset.
        duration_s: Outage length (None = permanent).
        fault_id: Override the generated id.
    """
    planes = plane_members(fleet)
    keys = sorted(planes)
    if not 0 <= plane_index < len(keys):
        raise ValueError(
            f"plane index {plane_index} out of range; fleet has "
            f"{len(keys)} planes"
        )
    return FaultEvent(
        fault_id=fault_id or f"plane-loss-{plane_index}",
        kind=FaultKind.PLANE,
        targets=tuple(planes[keys[plane_index]]),
        start_s=start_s,
        duration_s=duration_s,
        cause="plane-loss",
    )


#: Mean Earth radius used for great-circle footprints, km.
EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1_deg: float, lon1_deg: float,
                    lat2_deg: float, lon2_deg: float) -> float:
    """Great-circle distance between two geodetic points (haversine)."""
    lat1, lon1, lat2, lon2 = map(
        math.radians, (lat1_deg, lon1_deg, lat2_deg, lon2_deg)
    )
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    chord = (sin_dlat * sin_dlat
             + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(chord)))


def stations_within(stations, center_lat_deg: float, center_lon_deg: float,
                    radius_km: float) -> List[str]:
    """Ids of ground stations inside a great-circle footprint.

    Args:
        stations: :class:`~repro.ground.station.GroundStation` sequence.
        center_lat_deg: Footprint center latitude, degrees.
        center_lon_deg: Footprint center longitude, degrees.
        radius_km: Footprint radius (inclusive); non-positive matches
            nothing.

    Returns:
        Matching station ids, in the input order.
    """
    if radius_km <= 0.0:
        return []
    return [
        station.station_id for station in stations
        if great_circle_km(station.location.latitude_deg,
                           station.location.longitude_deg,
                           center_lat_deg, center_lon_deg) <= radius_km
    ]


def regional_blackout_event(stations, center_lat_deg: float,
                            center_lon_deg: float, radius_km: float,
                            start_s: float,
                            duration_s: Optional[float] = None,
                            fault_id: Optional[str] = None) -> FaultEvent:
    """Correlated loss of every ground station in a geographic region.

    The disaster failure mode the disrupted-communications workload is
    built on: an earthquake, flood, or grid collapse takes the backhaul
    of every gateway within ``radius_km`` of the epicenter down — and
    back up — together.  Satellites overhead are unaffected; traffic
    must be carried (store-and-forward) to gateways outside the region.

    Args:
        stations: :class:`~repro.ground.station.GroundStation` sequence
            the footprint is resolved against.
        center_lat_deg: Epicenter latitude, degrees.
        center_lon_deg: Epicenter longitude, degrees.
        radius_km: Blackout radius (great-circle, inclusive).
        start_s: Blackout onset, simulation seconds.
        duration_s: Outage length (None = permanent).
        fault_id: Override the generated id.

    Raises:
        ValueError: When no station lies inside the footprint (an empty
            fault event cannot exist; use :func:`stations_within` first
            when "possibly nothing" is a valid outcome).
    """
    targets = stations_within(stations, center_lat_deg, center_lon_deg,
                              radius_km)
    if not targets:
        raise ValueError(
            f"no ground station within {radius_km:g} km of "
            f"({center_lat_deg:g}, {center_lon_deg:g})"
        )
    return FaultEvent(
        fault_id=fault_id or f"blackout-{radius_km:g}km",
        kind=FaultKind.GROUND_STATION,
        targets=tuple(targets),
        start_s=start_s,
        duration_s=duration_s,
        cause="regional-blackout",
    )


def satellite_outage_event(satellite_ids: Sequence[str], start_s: float = 0.0,
                           duration_s: Optional[float] = None,
                           fault_id: str = "static-loss",
                           cause: str = "static") -> FaultEvent:
    """One correlated outage of an explicit satellite set.

    The static resilience sweep uses this with ``start_s=0`` and no
    repair, reproducing the original delete-a-fraction-up-front
    methodology through the dynamic machinery.
    """
    return FaultEvent(
        fault_id=fault_id,
        kind=FaultKind.SATELLITE,
        targets=tuple(satellite_ids),
        start_s=start_s,
        duration_s=duration_s,
        cause=cause,
    )


__all__ = [
    "satellite_mtbf_schedule",
    "ground_station_outage_schedule",
    "link_flap_schedule",
    "plane_members",
    "plane_loss_event",
    "satellite_outage_event",
    "great_circle_km",
    "stations_within",
    "regional_blackout_event",
    "combine",
]
