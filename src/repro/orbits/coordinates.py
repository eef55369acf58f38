"""Coordinate frames: geodetic -> ECEF -> ECI.

The simulation treats the Earth as a rotating sphere of mean radius
``EARTH_RADIUS_KM`` for visibility/coverage purposes (matching the paper's
simplified study) but places ground sites with the WGS-84 geodetic
conversion, then rotates them into the inertial frame the orbits use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.orbits.constants import (
    EARTH_FLATTENING,
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GeodeticPoint:
    """A point on or above the Earth in geodetic coordinates.

    Attributes:
        latitude_deg: Geodetic latitude in degrees, positive north.
        longitude_deg: Longitude in degrees, positive east, in (-180, 180].
        altitude_km: Height above the reference ellipsoid in kilometres.
    """

    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")

    @property
    def latitude_rad(self) -> float:
        return math.radians(self.latitude_deg)

    @property
    def longitude_rad(self) -> float:
        return math.radians(self.longitude_deg)

    def ecef(self) -> np.ndarray:
        """ECEF position vector in kilometres."""
        return geodetic_to_ecef(self)


def geodetic_to_ecef(point: GeodeticPoint) -> np.ndarray:
    """Convert geodetic coordinates to an ECEF vector (km), WGS-84 ellipsoid."""
    lat = point.latitude_rad
    lon = point.longitude_rad
    e2 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING)
    sin_lat = math.sin(lat)
    n = EARTH_RADIUS_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    x = (n + point.altitude_km) * math.cos(lat) * math.cos(lon)
    y = (n + point.altitude_km) * math.cos(lat) * math.sin(lon)
    z = (n * (1.0 - e2) + point.altitude_km) * sin_lat
    return np.array([x, y, z])


def _gmst_rad(time_s: float) -> float:
    """Greenwich mean sidereal angle at simulation time ``time_s``.

    The simulation epoch (t=0) is defined to have the prime meridian aligned
    with the ECI x-axis, so GMST is simply the accumulated Earth rotation.
    """
    return (EARTH_ROTATION_RAD_S * time_s) % _TWO_PI


def ecef_to_eci(ecef_km: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate an Earth-fixed vector into the inertial frame at ``time_s``."""
    theta = _gmst_rad(time_s)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rot = np.array([[cos_t, -sin_t, 0.0], [sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
    return rot @ np.asarray(ecef_km, dtype=float)


def ecef_to_eci_over(ecef_km: np.ndarray, times_s) -> np.ndarray:
    """Rotate one Earth-fixed vector into ECI at many times at once.

    Args:
        ecef_km: A single ``(3,)`` Earth-fixed position.
        times_s: 1-D array of T simulation times.

    Returns:
        ``(T, 3)`` array of inertial positions — the batched counterpart
        of calling :func:`ecef_to_eci` per time.
    """
    times = np.asarray(times_s, dtype=float)
    theta = (EARTH_ROTATION_RAD_S * times) % _TWO_PI
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x, y, z = np.asarray(ecef_km, dtype=float)
    return np.stack(
        [cos_t * x - sin_t * y, sin_t * x + cos_t * y,
         np.full_like(times, z)], axis=-1
    )
