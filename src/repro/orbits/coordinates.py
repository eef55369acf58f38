"""Coordinate frames: geodetic -> ECEF -> ECI.

The simulation treats the Earth as a rotating sphere of mean radius
``EARTH_RADIUS_KM`` for visibility/coverage purposes (matching the paper's
simplified study) but places ground sites with the WGS-84 geodetic
conversion, then rotates them into the inertial frame the orbits use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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

    def ecef(self) -> np.ndarray:
        """ECEF position vector in kilometres."""
        return geodetic_to_ecef(self)


def geodetic_to_ecef_array(latitude_deg, longitude_deg,
                           altitude_km) -> np.ndarray:
    """Convert geodetic coordinates to ECEF vectors (km), WGS-84 ellipsoid.

    Takes equal-shape arrays (or scalars) of degrees and kilometres and
    returns their ``(..., 3)`` vectors, every element through the same
    operations in the same order, so a row of a large batch equals the
    one-point conversion (:func:`geodetic_to_ecef`) bit for bit.
    """
    lat = np.radians(latitude_deg)
    lon = np.radians(longitude_deg)
    e2 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING)
    sin_lat = np.sin(lat)
    n = EARTH_RADIUS_KM / np.sqrt(1.0 - e2 * sin_lat * sin_lat)
    x = (n + altitude_km) * np.cos(lat) * np.cos(lon)
    y = (n + altitude_km) * np.cos(lat) * np.sin(lon)
    z = (n * (1.0 - e2) + altitude_km) * sin_lat
    return np.stack([x, y, z], axis=-1)


def geodetic_to_ecef(point: GeodeticPoint) -> np.ndarray:
    """Convert geodetic coordinates to an ECEF vector (km), WGS-84 ellipsoid."""
    return geodetic_to_ecef_array(point.latitude_deg, point.longitude_deg,
                                  point.altitude_km)


def _gmst_rad(time_s: float) -> float:
    """Greenwich mean sidereal angle at simulation time ``time_s``.

    The simulation epoch (t=0) is defined to have the prime meridian aligned
    with the ECI x-axis, so GMST is simply the accumulated Earth rotation.
    """
    return (EARTH_ROTATION_RAD_S * time_s) % _TWO_PI


def ecef_to_eci(ecef_km: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate Earth-fixed vectors into the inertial frame at ``time_s``.

    Takes one ``(3,)`` vector or a ``(..., 3)`` stack and applies the one
    rotation as ``rot @ v[..., None]``, which rounds every row as the
    single-vector product does (``V @ rot.T`` would not).
    """
    theta = _gmst_rad(time_s)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rot = np.array([[cos_t, -sin_t, 0.0], [sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
    return (rot @ np.asarray(ecef_km, dtype=float)[..., None])[..., 0]


def geodetic_points_to_eci(points: Sequence[GeodeticPoint],
                           time_s: float) -> np.ndarray:
    """``(len(points), 3)`` inertial positions of ``points`` at ``time_s``:
    one array conversion and one rotation, row ``k`` equal bit for bit to
    ``ecef_to_eci(points[k].ecef(), time_s)``."""
    latitude = np.array([point.latitude_deg for point in points], dtype=float)
    longitude = np.array([point.longitude_deg for point in points],
                         dtype=float)
    altitude = np.array([point.altitude_km for point in points], dtype=float)
    return ecef_to_eci(geodetic_to_ecef_array(latitude, longitude, altitude),
                       time_s)


def ecef_to_eci_over(ecef_km: np.ndarray, times_s) -> np.ndarray:
    """One Earth-fixed vector's inertial positions over a time grid,
    ``(T, 3)``: row ``k`` is ``ecef_to_eci(ecef_km, times_s[k])``.

    Rotates per time through :func:`ecef_to_eci`'s ``rot @ v`` product,
    the one ground rotation in the package, so every row has the bits of
    the one-instant rotation.  A component-wise ``cos * x - sin * y``
    form would differ from it in the last ulp.
    """
    ecef = np.asarray(ecef_km, dtype=float)
    return np.stack([ecef_to_eci(ecef, t)
                     for t in np.asarray(times_s, dtype=float).tolist()])
