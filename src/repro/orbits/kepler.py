"""Keplerian orbit propagation with optional J2 secular perturbations.

The propagator turns :class:`~repro.orbits.elements.OrbitalElements` into
Earth-Centred Inertial (ECI) position and velocity vectors at an arbitrary
simulation time.  For the near-circular LEO orbits the paper studies, the
dominant perturbation is the Earth's oblateness (J2), which causes secular
drift of the ascending node and the argument of perigee; both are modelled.

The module deliberately avoids any external ephemeris dependencies so the
whole stack is self-contained, per the reproduction's substitution rule
(synthetic orbital data in place of the radar-tracked catalogs the paper
cites).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.orbits.constants import EARTH_J2, EARTH_MU_KM3_S2, EARTH_RADIUS_KM
from repro.orbits.elements import OrbitalElements

_TWO_PI = 2.0 * math.pi


def mean_motion(semi_major_axis_km: float) -> float:
    """Mean motion ``n = sqrt(mu/a^3)`` in rad/s for the given ``a``."""
    if semi_major_axis_km <= 0.0:
        raise ValueError(f"semi-major axis must be positive, got {semi_major_axis_km}")
    return math.sqrt(EARTH_MU_KM3_S2 / semi_major_axis_km**3)


def solve_kepler_array(mean_anomaly_rad: np.ndarray, eccentricity: float,
                       tol: float = 1e-12,
                       max_iterations: int = 50) -> np.ndarray:
    """Vectorized Kepler solve: ``M = E - e sin E`` for an array of ``M``.

    Runs the same Newton-Raphson iteration as :func:`solve_kepler` on the
    whole array at once.  Each element stops updating as soon as its own
    step falls below ``tol`` (a convergence mask, not a global break), so
    every element sees the same update sequence the scalar solver applies.
    In practice the two paths agree to within a few ulps (numpy's sin/cos
    may round differently from ``math``'s on some platforms), which is far
    below the solver's own ``tol``.

    Args:
        mean_anomaly_rad: Mean anomalies ``M`` in radians, any shape.
        eccentricity: Orbit eccentricity ``e`` in [0, 1) (shared).
        tol: Convergence tolerance on ``|E_{k+1} - E_k|``.
        max_iterations: Safety bound on Newton iterations.

    Returns:
        Eccentric anomalies, same shape as the input.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity}")
    m = np.asarray(mean_anomaly_rad, dtype=float) % _TWO_PI
    if eccentricity == 0.0:
        # E = M exactly; skip the iteration entirely.
        return m.copy()
    e_anom = m.copy() if eccentricity < 0.8 else np.full_like(m, math.pi)
    active = np.ones(m.shape, dtype=bool)
    for _ in range(max_iterations):
        if not active.any():
            break
        e_act = e_anom[active]
        delta = (e_act - eccentricity * np.sin(e_act) - m[active]) / (
            1.0 - eccentricity * np.cos(e_act)
        )
        e_anom[active] = e_act - delta
        still = np.abs(delta) >= tol
        active[active] = still
    return e_anom


def true_anomaly_from_eccentric_array(eccentric_anomaly_rad: np.ndarray,
                                      eccentricity: float) -> np.ndarray:
    """Vectorized eccentric-to-true anomaly conversion."""
    half_e = np.asarray(eccentric_anomaly_rad, dtype=float) / 2.0
    return 2.0 * np.arctan2(
        math.sqrt(1.0 + eccentricity) * np.sin(half_e),
        math.sqrt(1.0 - eccentricity) * np.cos(half_e),
    )


def solve_kepler(mean_anomaly_rad: float, eccentricity: float, tol: float = 1e-12,
                 max_iterations: int = 50) -> float:
    """Solve Kepler's equation ``M = E - e sin E`` for eccentric anomaly E.

    Uses Newton-Raphson with a starting guess of ``M`` (adequate for the
    small eccentricities of LEO orbits, but the iteration converges for any
    ``e < 1``).

    Args:
        mean_anomaly_rad: Mean anomaly ``M`` in radians.
        eccentricity: Orbit eccentricity ``e`` in [0, 1).
        tol: Convergence tolerance on ``|E_{k+1} - E_k|``.
        max_iterations: Safety bound on Newton iterations.

    Returns:
        Eccentric anomaly ``E`` in radians, in the same revolution as ``M``.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity}")
    m = mean_anomaly_rad % _TWO_PI
    # High-eccentricity orbits converge faster from E0 = pi.
    e_anom = m if eccentricity < 0.8 else math.pi
    for _ in range(max_iterations):
        delta = (e_anom - eccentricity * math.sin(e_anom) - m) / (
            1.0 - eccentricity * math.cos(e_anom)
        )
        e_anom -= delta
        if abs(delta) < tol:
            break
    return e_anom


def true_anomaly_from_eccentric(eccentric_anomaly_rad: float,
                                eccentricity: float) -> float:
    """Convert eccentric anomaly to true anomaly."""
    half_e = eccentric_anomaly_rad / 2.0
    return 2.0 * math.atan2(
        math.sqrt(1.0 + eccentricity) * math.sin(half_e),
        math.sqrt(1.0 - eccentricity) * math.cos(half_e),
    )


def _perifocal_to_eci_matrix(inclination_rad: float, raan_rad: float,
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


def _perifocal_to_eci_matrices(inclination_rad: float, raan_rad: np.ndarray,
                               arg_perigee_rad: np.ndarray) -> np.ndarray:
    """Rotation matrices from the perifocal frame to ECI for angle arrays.

    Broadcasts ``raan_rad`` against ``arg_perigee_rad``; the result has
    shape ``broadcast_shape + (3, 3)``.  Inclination is shared (one
    element set), matching the secular-J2 model where only RAAN and the
    argument of perigee drift.
    """
    raan = np.asarray(raan_rad, dtype=float)
    argp = np.asarray(arg_perigee_rad, dtype=float)
    raan, argp = np.broadcast_arrays(raan, argp)
    cos_o, sin_o = np.cos(raan), np.sin(raan)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    cos_w, sin_w = np.cos(argp), np.sin(argp)
    rot = np.empty(raan.shape + (3, 3), dtype=float)
    rot[..., 0, 0] = cos_o * cos_w - sin_o * sin_w * cos_i
    rot[..., 0, 1] = -cos_o * sin_w - sin_o * cos_w * cos_i
    rot[..., 0, 2] = sin_o * sin_i
    rot[..., 1, 0] = sin_o * cos_w + cos_o * sin_w * cos_i
    rot[..., 1, 1] = -sin_o * sin_w + cos_o * cos_w * cos_i
    rot[..., 1, 2] = -cos_o * sin_i
    rot[..., 2, 0] = sin_w * sin_i
    rot[..., 2, 1] = cos_w * sin_i
    rot[..., 2, 2] = cos_i
    return rot


class KeplerPropagator:
    """Propagates one set of orbital elements to ECI state vectors.

    Args:
        elements: Orbital elements at their epoch.
        include_j2: When True, apply secular J2 drift to the RAAN, argument
            of perigee, and mean anomaly.  The short-period oscillations are
            not modelled; they are negligible at the fidelity of the paper's
            simulation (propagation latency and footprint coverage).
    """

    def __init__(self, elements: OrbitalElements, include_j2: bool = False):
        self.elements = elements
        self.include_j2 = include_j2
        self._n = elements.mean_motion_rad_s
        if include_j2:
            a = elements.semi_major_axis_km
            e = elements.eccentricity
            i = elements.inclination_rad
            p = a * (1.0 - e * e)
            factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_KM / p) ** 2 * self._n
            self._raan_dot = -factor * math.cos(i)
            self._argp_dot = factor * (2.0 - 2.5 * math.sin(i) ** 2)
            self._mean_dot = self._n + factor * math.sqrt(1.0 - e * e) * (
                1.0 - 1.5 * math.sin(i) ** 2
            )
        else:
            self._raan_dot = 0.0
            self._argp_dot = 0.0
            self._mean_dot = self._n
        self._rotation_t: Optional[np.ndarray] = None

    @property
    def fixed_rotation_t(self) -> np.ndarray:
        """The transposed perifocal-to-ECI rotation without J2, built once.

        Without J2 the orbital plane is inertially fixed, so one matrix
        serves every time.  The transpose is materialized contiguously
        because matmul dispatches a different (last-ulp-different)
        kernel for strided views depending on the time-grid width; the
        contiguous product is shape-independent, which keeps primed epoch
        grids bitwise equal to per-epoch solves.
        """
        if self._rotation_t is None:
            el = self.elements
            rot = _perifocal_to_eci_matrix(
                el.inclination_rad, el.raan_rad, el.arg_perigee_rad
            )
            self._rotation_t = np.ascontiguousarray(rot.T)
        return self._rotation_t

    def state_at(self, time_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """ECI position (km) and velocity (km/s) at simulation time ``time_s``."""
        el = self.elements
        dt = time_s - el.epoch_s
        mean_anomaly = el.mean_anomaly_rad + self._mean_dot * dt
        raan = el.raan_rad + self._raan_dot * dt
        argp = el.arg_perigee_rad + self._argp_dot * dt

        ecc_anom = solve_kepler(mean_anomaly, el.eccentricity)
        nu = true_anomaly_from_eccentric(ecc_anom, el.eccentricity)

        a = el.semi_major_axis_km
        e = el.eccentricity
        r = a * (1.0 - e * math.cos(ecc_anom))
        # Perifocal position and velocity.
        p_semi_latus = a * (1.0 - e * e)
        pos_pf = np.array([r * math.cos(nu), r * math.sin(nu), 0.0])
        v_factor = math.sqrt(EARTH_MU_KM3_S2 / p_semi_latus)
        vel_pf = np.array(
            [-v_factor * math.sin(nu), v_factor * (e + math.cos(nu)), 0.0]
        )
        rot = _perifocal_to_eci_matrix(el.inclination_rad, raan, argp)
        return rot @ pos_pf, rot @ vel_pf

    def position_at(self, time_s: float) -> np.ndarray:
        """ECI position vector (km) at simulation time ``time_s``."""
        position, _ = self.state_at(time_s)
        return position

    def states_at(self, times_s) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ECI states for an array of times.

        One broadcast pass computes every timestep at once: the mean
        anomalies become one array Newton-Raphson solve, the perifocal
        coordinates one trig pass, and the frame rotation one matrix
        product (a single shared matrix when J2 is off, per-time matrices
        when the node and perigee drift).

        Args:
            times_s: Scalar or 1-D array of simulation times.  Scalars
                are normalized to a length-1 array, so the output shape
                contract below always holds.

        Returns:
            ``(positions, velocities)`` arrays, each of shape ``(T, 3)``
            where ``T = len(times_s)`` (``T = 1`` for scalar input,
            ``T = 0`` for empty input), in km and km/s.
        """
        times = _normalize_times(times_s)
        el = self.elements
        dt = times - el.epoch_s
        mean_anomaly = el.mean_anomaly_rad + self._mean_dot * dt

        ecc_anom = solve_kepler_array(mean_anomaly, el.eccentricity)
        nu = true_anomaly_from_eccentric_array(ecc_anom, el.eccentricity)

        a = el.semi_major_axis_km
        e = el.eccentricity
        r = a * (1.0 - e * np.cos(ecc_anom))
        p_semi_latus = a * (1.0 - e * e)
        cos_nu, sin_nu = np.cos(nu), np.sin(nu)
        pos_pf = np.stack(
            [r * cos_nu, r * sin_nu, np.zeros_like(r)], axis=-1
        )
        v_factor = math.sqrt(EARTH_MU_KM3_S2 / p_semi_latus)
        vel_pf = np.stack(
            [-v_factor * sin_nu, v_factor * (e + cos_nu),
             np.zeros_like(sin_nu)], axis=-1
        )
        if self._raan_dot == 0.0 and self._argp_dot == 0.0:
            rot_t = self.fixed_rotation_t
            return pos_pf @ rot_t, vel_pf @ rot_t
        raan = el.raan_rad + self._raan_dot * dt
        argp = el.arg_perigee_rad + self._argp_dot * dt
        rot = _perifocal_to_eci_matrices(el.inclination_rad, raan, argp)
        positions = np.einsum("tij,tj->ti", rot, pos_pf)
        velocities = np.einsum("tij,tj->ti", rot, vel_pf)
        return positions, velocities

    def positions_at(self, times_s) -> np.ndarray:
        """ECI positions for an array of times; always shape ``(T, 3)``.

        Input is normalized before propagation: a scalar time becomes a
        length-1 array (result shape ``(1, 3)``), an empty array yields
        ``(0, 3)``, and anything with more than one dimension is
        rejected.  The computation is fully vectorized — see
        :meth:`states_at`.
        """
        positions, _ = self.states_at(times_s)
        return positions

    @property
    def period_s(self) -> float:
        """Orbital period (two-body) in seconds."""
        return self.elements.period_s


def _normalize_times(times_s) -> np.ndarray:
    """Coerce a scalar/sequence of times to a 1-D float array.

    Raises:
        ValueError: When the input has more than one dimension.
    """
    times = np.asarray(times_s, dtype=float)
    if times.ndim == 0:
        times = times.reshape(1)
    if times.ndim != 1:
        raise ValueError(
            f"times must be scalar or 1-D, got shape {times.shape}"
        )
    return times


def batch_states(propagators: Sequence[KeplerPropagator],
                 times_s) -> Tuple[np.ndarray, np.ndarray]:
    """ECI states for a whole fleet over a whole time grid at once.

    The heart of the vectorized sweep path: all satellites x all
    timesteps in broadcast numpy operations.  Non-J2 fleets (the default
    everywhere in the repo) take a fully flattened ``(N, T)`` tensor
    solve — one Kepler iteration, one trig pass, and one batched frame
    rotation for the whole fleet, with no per-satellite Python loop.
    J2-perturbed propagators fall back to the per-satellite vectorized
    path.

    The flat path is bitwise identical to per-satellite
    :meth:`KeplerPropagator.states_at` calls: every elementwise
    operation is shape-independent, the frame rotation is the same
    stacked ``matmul``, and satellites are grouped by eccentricity so
    the Newton solve sees the same per-element update sequence
    (``tests/orbits`` pins this equality as a regression test).

    Args:
        propagators: One propagator per satellite (N of them).
        times_s: Scalar or 1-D array of T simulation times.

    Returns:
        ``(positions, velocities)`` arrays of shape ``(N, T, 3)`` in km
        and km/s.  ``N = 0`` or ``T = 0`` yield empty arrays of the
        documented shape.
    """
    times = _normalize_times(times_s)
    count = len(propagators)
    if count and times.shape[0] and all(
        p._raan_dot == 0.0 and p._argp_dot == 0.0 for p in propagators
    ):
        return _batch_states_flat(propagators, times)
    positions = np.empty((count, times.shape[0], 3), dtype=float)
    velocities = np.empty((count, times.shape[0], 3), dtype=float)
    for index, propagator in enumerate(propagators):
        pos, vel = propagator.states_at(times)
        positions[index] = pos
        velocities[index] = vel
    return positions, velocities


def _batch_states_flat(propagators: Sequence[KeplerPropagator],
                       times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``(N, T)`` tensor solve for non-J2 fleets.

    Replicates the exact operation sequence of
    :meth:`KeplerPropagator.states_at` across the whole fleet so the
    result is bitwise identical to the per-satellite loop.
    """
    elements = [p.elements for p in propagators]
    epoch = np.array([el.epoch_s for el in elements])
    m0 = np.array([el.mean_anomaly_rad for el in elements])
    mean_dot = np.array([p._mean_dot for p in propagators])
    ecc = np.array([el.eccentricity for el in elements])
    a = np.array([el.semi_major_axis_km for el in elements])

    dt = times[None, :] - epoch[:, None]
    mean_anomaly = m0[:, None] + mean_dot[:, None] * dt

    # Group by eccentricity (one group for the common all-circular
    # Walker case) so each group runs the same masked Newton iteration
    # the per-satellite solver applies.
    ecc_anom = np.empty_like(mean_anomaly)
    nu = np.empty_like(mean_anomaly)
    for e_value in np.unique(ecc):
        rows = ecc == e_value
        e_float = float(e_value)
        ecc_anom[rows] = solve_kepler_array(mean_anomaly[rows], e_float)
        nu[rows] = true_anomaly_from_eccentric_array(ecc_anom[rows], e_float)

    r = a[:, None] * (1.0 - ecc[:, None] * np.cos(ecc_anom))
    cos_nu, sin_nu = np.cos(nu), np.sin(nu)
    zeros = np.zeros_like(r)
    pos_pf = np.stack([r * cos_nu, r * sin_nu, zeros], axis=-1)
    # v_factor per satellite with the scalar path's exact float ops.
    v_factor = np.array([
        math.sqrt(
            EARTH_MU_KM3_S2
            / (el.semi_major_axis_km * (1.0 - el.eccentricity * el.eccentricity))
        )
        for el in elements
    ])[:, None]
    vel_pf = np.stack(
        [-v_factor * sin_nu, v_factor * (ecc[:, None] + cos_nu), zeros],
        axis=-1,
    )
    # Contiguous transposes (see KeplerPropagator.fixed_rotation_t): the
    # product is shape-independent, so a whole primed grid is bitwise
    # equal to T separate single-epoch solves.
    rots_t = np.stack([p.fixed_rotation_t for p in propagators])
    return np.matmul(pos_pf, rots_t), np.matmul(vel_pf, rots_t)


def batch_positions(propagators: Sequence[KeplerPropagator],
                    times_s) -> np.ndarray:
    """ECI positions for a fleet over a time grid; shape ``(N, T, 3)``."""
    positions, _ = batch_states(propagators, times_s)
    return positions
