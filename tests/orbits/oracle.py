"""Orbit-geometry references the coordinate and visibility tests
referee against.

The stack only ever converts geodetic -> ECEF -> ECI (ground sites into
the inertial frame the orbits live in).  The tests check those forward
transforms by round trip, so the inverses live here:

* :func:`ecef_to_geodetic` — iterative WGS-84 inversion of
  :func:`~repro.orbits.coordinates.geodetic_to_ecef`;
* :func:`eci_to_ecef` — the transpose of
  :func:`~repro.orbits.coordinates.ecef_to_eci`'s rotation.

The visibility kernels compute on x, y and z component planes.  The
``(..., 3)`` forms they replaced stay here, each a broadcast and one
``.sum(axis=-1)`` per length-3 reduction, as the referee the kernels
must equal bit for bit and the geometry the digest oracles build on:

* :func:`elevation_angles` — the elevation half of
  :func:`~repro.orbits.visibility.elevations_and_ranges`;
* :func:`line_of_sight_mask` — of
  :func:`~repro.orbits.visibility.line_of_sight_mask`.
"""

import math

import numpy as np

from repro.orbits.constants import EARTH_FLATTENING, EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, _gmst_rad
from repro.orbits.visibility import GRAZING_ALTITUDE_KM


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


def elevation_angles(ground_ecef_km: np.ndarray,
                     satellite_ecef_km: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.orbits.visibility.elevation_angle`,
    radians.

    Supports one ground point against ``(N, 3)`` satellites (returns
    ``(N,)``) and paired ``(T, 3)`` vs ``(T, 3)`` rows (returns ``(T,)``)
    — any broadcastable combination of ``(..., 3)`` shapes works.
    Degenerate zero ranges report zenith, matching the scalar function.
    """
    ground = np.asarray(ground_ecef_km, dtype=float)
    sats = np.asarray(satellite_ecef_km, dtype=float)
    ground, sats = np.broadcast_arrays(ground, sats)
    delta = sats - ground
    range_km = np.sqrt((delta * delta).sum(axis=-1))
    ground_norm = np.sqrt((ground * ground).sum(axis=-1))
    denom = range_km * ground_norm
    safe = denom > 0.0
    sin_el = np.where(
        safe, (delta * ground).sum(axis=-1) / np.where(safe, denom, 1.0), 1.0
    )
    return np.arcsin(np.clip(sin_el, -1.0, 1.0))


def line_of_sight_mask(pos_a_km: np.ndarray, pos_b_km: np.ndarray,
                       grazing_altitude_km: float = GRAZING_ALTITUDE_KM) -> np.ndarray:
    """Vectorized :func:`~repro.orbits.visibility.has_line_of_sight` over
    paired position rows.

    Args:
        pos_a_km: ``(..., 3)`` segment start positions.
        pos_b_km: ``(..., 3)`` segment end positions (broadcastable
            against ``pos_a_km``).
        grazing_altitude_km: Minimum ray altitude.

    Returns:
        Boolean array of the broadcast shape (without the last axis):
        True where the segment clears the atmosphere.
    """
    a = np.asarray(pos_a_km, dtype=float)
    b = np.asarray(pos_b_km, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    limit = EARTH_RADIUS_KM + grazing_altitude_km
    d = b - a
    dd = (d * d).sum(axis=-1)
    # Closest point of each segment to the Earth's centre; degenerate
    # (zero-length) segments test the endpoint itself.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd > 0.0, -(a * d).sum(axis=-1) / np.where(dd > 0.0, dd, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.sqrt((closest * closest).sum(axis=-1)) >= limit
