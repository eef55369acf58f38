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

Every satellite position in the package comes from one stacked
:class:`~repro.orbits.kepler.KeplerFleet` and
:func:`~repro.orbits.kepler.batch_positions`.  The forms it replaced
stay here as the referees it must equal bit for bit:

* :class:`KeplerPropagator` — one satellite solved on its own over a
  time grid (the package's former per-satellite propagator, two-body);
* :func:`flat_positions` — the former batch solve, built from those
  propagators on every call;
* :func:`perifocal_to_eci_matrix` — the frame rotation written out on
  its own, so an entry changed in the package's one rotation formula
  shows against it instead of moving both sides;
* :func:`solve_kepler` — the scalar ``math`` Kepler solve, the
  reference for :func:`~repro.orbits.kepler.solve_kepler_array`.
"""

import math
from typing import Sequence

import numpy as np

from repro.orbits.constants import EARTH_FLATTENING, EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, _gmst_rad
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import (
    _normalize_times,
    solve_kepler_array,
    true_anomaly_from_eccentric_array,
)
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
    """The ``(..., 3)`` form of
    :func:`~repro.orbits.visibility.line_of_sight_mask`.

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


def perifocal_to_eci_matrix(inclination_rad: float, raan_rad: float,
                            arg_perigee_rad: float) -> np.ndarray:
    """Rotation matrix from the perifocal frame to ECI (3-1-3 Euler)."""
    cos_o, sin_o = math.cos(raan_rad), math.sin(raan_rad)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    cos_w, sin_w = math.cos(arg_perigee_rad), math.sin(arg_perigee_rad)
    return np.array(
        [
            [
                cos_o * cos_w - sin_o * sin_w * cos_i,
                -cos_o * sin_w - sin_o * cos_w * cos_i,
                sin_o * sin_i,
            ],
            [
                sin_o * cos_w + cos_o * sin_w * cos_i,
                -sin_o * sin_w + cos_o * cos_w * cos_i,
                -cos_o * sin_i,
            ],
            [sin_w * sin_i, cos_w * sin_i, cos_i],
        ]
    )


def solve_kepler(mean_anomaly_rad: float, eccentricity: float,
                 tol: float = 1e-12, max_iterations: int = 50) -> float:
    """Solve Kepler's equation ``M = E - e sin E`` for one ``M`` with
    ``math``: Newton-Raphson from ``E = M`` (from ``E = pi`` at
    ``e >= 0.8``) until a step falls below ``tol``."""
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity}")
    m = mean_anomaly_rad % (2.0 * math.pi)
    e_anom = m if eccentricity < 0.8 else math.pi
    for _ in range(max_iterations):
        delta = (e_anom - eccentricity * math.sin(e_anom) - m) / (
            1.0 - eccentricity * math.cos(e_anom)
        )
        e_anom -= delta
        if abs(delta) < tol:
            break
    return e_anom


class KeplerPropagator:
    """One satellite's two-body positions, solved on its own.

    Args:
        elements: Orbital elements at their epoch.
    """

    def __init__(self, elements: OrbitalElements):
        self.elements = elements
        #: The transposed perifocal-to-ECI rotation, contiguous: matmul
        #: dispatches a different (last-ulp-different) kernel for
        #: strided views depending on the time-grid width.
        self.fixed_rotation_t = np.ascontiguousarray(perifocal_to_eci_matrix(
            elements.inclination_rad, elements.raan_rad,
            elements.arg_perigee_rad).T)

    def positions_at(self, times_s) -> np.ndarray:
        """ECI positions (km) for a scalar or 1-D array of times;
        always shape ``(T, 3)``."""
        times = _normalize_times(times_s)
        el = self.elements
        mean_anomaly = (el.mean_anomaly_rad
                        + el.mean_motion_rad_s * (times - el.epoch_s))
        ecc_anom = solve_kepler_array(mean_anomaly, el.eccentricity)
        nu = true_anomaly_from_eccentric_array(ecc_anom, el.eccentricity)
        r = el.semi_major_axis_km * (1.0 - el.eccentricity * np.cos(ecc_anom))
        pos_pf = np.stack([r * np.cos(nu), r * np.sin(nu), np.zeros_like(r)],
                          axis=-1)
        return pos_pf @ self.fixed_rotation_t


def flat_positions(propagators: Sequence[KeplerPropagator],
                   times_s) -> np.ndarray:
    """ECI positions for a whole fleet over a whole time grid at once,
    ``(N, T, 3)``: one flattened ``(N, T)`` solve (one Kepler iteration
    per eccentricity group, one trig pass, one batched frame rotation)
    with the operation sequence of :meth:`KeplerPropagator.positions_at`.
    ``N = 0`` or ``T = 0`` yield an empty array of that shape.
    """
    times = _normalize_times(times_s)
    count = len(propagators)
    if not count or not times.shape[0]:
        return np.empty((count, times.shape[0], 3), dtype=float)
    elements = [p.elements for p in propagators]
    epoch = np.array([el.epoch_s for el in elements])
    m0 = np.array([el.mean_anomaly_rad for el in elements])
    mean_motion = np.array([el.mean_motion_rad_s for el in elements])
    ecc = np.array([el.eccentricity for el in elements])
    a = np.array([el.semi_major_axis_km for el in elements])

    dt = times[None, :] - epoch[:, None]
    mean_anomaly = m0[:, None] + mean_motion[:, None] * dt

    # Group by eccentricity so each group runs the same masked Newton
    # iteration the per-satellite solver applies.
    ecc_anom = np.empty_like(mean_anomaly)
    nu = np.empty_like(mean_anomaly)
    for e_value in np.unique(ecc):
        rows = ecc == e_value
        e_float = float(e_value)
        ecc_anom[rows] = solve_kepler_array(mean_anomaly[rows], e_float)
        nu[rows] = true_anomaly_from_eccentric_array(ecc_anom[rows], e_float)

    r = a[:, None] * (1.0 - ecc[:, None] * np.cos(ecc_anom))
    pos_pf = np.stack([r * np.cos(nu), r * np.sin(nu), np.zeros_like(r)],
                      axis=-1)
    # Contiguous transposes: the product is shape-independent, so a whole
    # grid is bitwise equal to T separate single-epoch solves.
    rots_t = np.stack([p.fixed_rotation_t for p in propagators])
    return np.matmul(pos_pf, rots_t)
