"""Inverse frame transforms the coordinate tests referee against.

The stack only ever converts geodetic -> ECEF -> ECI (ground sites into
the inertial frame the orbits live in).  The tests check those forward
transforms by round trip, so the inverses live here:

* :func:`ecef_to_geodetic` — iterative WGS-84 inversion of
  :func:`~repro.orbits.coordinates.geodetic_to_ecef`;
* :func:`eci_to_ecef` — the transpose of
  :func:`~repro.orbits.coordinates.ecef_to_eci`'s rotation.
"""

import math

import numpy as np

from repro.orbits.constants import EARTH_FLATTENING, EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, _gmst_rad


def ecef_to_geodetic(ecef_km: np.ndarray, tol: float = 1e-10,
                     max_iterations: int = 20) -> GeodeticPoint:
    """Convert an ECEF vector (km) to geodetic coordinates (iterative)."""
    x, y, z = (float(v) for v in ecef_km)
    lon = math.atan2(y, x)
    p = math.hypot(x, y)
    e2 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING)
    if p < 1e-9:
        # On the polar axis the longitude is undefined; pick 0.
        lat = math.copysign(math.pi / 2.0, z)
        n = EARTH_RADIUS_KM / math.sqrt(1.0 - e2)
        alt = abs(z) - n * (1.0 - e2)
        return GeodeticPoint(math.degrees(lat), 0.0, alt)
    lat = math.atan2(z, p * (1.0 - e2))
    for _ in range(max_iterations):
        sin_lat = math.sin(lat)
        n = EARTH_RADIUS_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
        alt = p / math.cos(lat) - n
        new_lat = math.atan2(z, p * (1.0 - e2 * n / (n + alt)))
        if abs(new_lat - lat) < tol:
            lat = new_lat
            break
        lat = new_lat
    sin_lat = math.sin(lat)
    n = EARTH_RADIUS_KM / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    alt = p / math.cos(lat) - n
    lon_deg = math.degrees(lon)
    if lon_deg <= -180.0:
        lon_deg += 360.0
    return GeodeticPoint(math.degrees(lat), lon_deg, alt)


def eci_to_ecef(eci_km: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate an ECI vector into the Earth-fixed frame at ``time_s``."""
    theta = _gmst_rad(time_s)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rot = np.array([[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
    return rot @ np.asarray(eci_km, dtype=float)
