"""Keplerian orbit propagation, with optional J2 secular perturbations
per satellite.

:class:`KeplerPropagator` turns one satellite's
:class:`~repro.orbits.elements.OrbitalElements` into Earth-Centred
Inertial (ECI) position and velocity vectors at an arbitrary simulation
time.  For the near-circular LEO orbits the paper studies, the dominant
perturbation is the Earth's oblateness (J2), which causes secular drift
of the ascending node and the argument of perigee; the propagator models
both.  Whole fleets propagate J2-free as one array:
:class:`KeplerFleet` stacks the per-satellite constants once, and
:func:`batch_positions` computes positions (no velocities) for every
satellite and time, bit for bit the per-satellite propagator's.

The module deliberately avoids any external ephemeris dependencies so the
whole stack is self-contained, per the reproduction's substitution rule
(synthetic orbital data in place of the radar-tracked catalogs the paper
cites).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


def _rotation_entries(cos_o, sin_o, cos_i, sin_i, cos_w, sin_w) -> tuple:
    """The nine row-major entries of the perifocal-to-ECI rotation
    (3-1-3 Euler: node ``o``, inclination ``i``, perigee ``w``).

    The one formula every rotation here evaluates: on ``math`` floats
    for a fixed orbital plane (:func:`_plane_entries`) and on arrays for
    the J2-drifting node and perigee (:func:`_perifocal_to_eci_matrices`).
    """
    return (
        cos_o * cos_w - sin_o * sin_w * cos_i,
        -cos_o * sin_w - sin_o * cos_w * cos_i,
        sin_o * sin_i,
        sin_o * cos_w + cos_o * sin_w * cos_i,
        -sin_o * sin_w + cos_o * cos_w * cos_i,
        -cos_o * sin_i,
        sin_w * sin_i,
        cos_w * sin_i,
        cos_i,
    )


def _plane_entries(inclination_rad: float, raan_rad: float,
                   arg_perigee_rad: float) -> tuple:
    """:func:`_rotation_entries` of one fixed plane, trig by ``math``."""
    return _rotation_entries(
        math.cos(raan_rad), math.sin(raan_rad),
        math.cos(inclination_rad), math.sin(inclination_rad),
        math.cos(arg_perigee_rad), math.sin(arg_perigee_rad),
    )


def _perifocal_to_eci_matrix(inclination_rad: float, raan_rad: float,
                             arg_perigee_rad: float) -> np.ndarray:
    """Rotation matrix from the perifocal frame to ECI (3-1-3 Euler)."""
    return np.array(
        _plane_entries(inclination_rad, raan_rad, arg_perigee_rad)
    ).reshape(3, 3)


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
    entries = _rotation_entries(
        np.cos(raan), np.sin(raan),
        math.cos(inclination_rad), math.sin(inclination_rad),
        np.cos(argp), np.sin(argp),
    )
    rot = np.empty(raan.shape + (3, 3), dtype=float)
    for k, entry in enumerate(entries):
        rot[..., k // 3, k % 3] = entry
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
        contiguous product is shape-independent, which keeps epoch grids
        bitwise equal to per-epoch solves.  :class:`KeplerFleet` stacks
        the same entries for a whole fleet.
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


class _FleetConstants(NamedTuple):
    """A fleet's per-satellite constants, one array entry per satellite."""

    epoch_s: np.ndarray
    mean_anomaly_rad: np.ndarray
    mean_motion_rad_s: np.ndarray
    eccentricity: np.ndarray
    #: ``(e, rows)`` per distinct eccentricity; ``rows`` is every row
    #: (``slice(None)``) for a single group, else a boolean mask.
    groups: Tuple[Tuple[float, object], ...]
    semi_major_axis_km: np.ndarray
    #: ``(N, 3, 3)`` C-contiguous transposed perifocal-to-ECI rotations.
    rotations_t: np.ndarray


class KeplerFleet:
    """A J2-free fleet, propagated as one array by :func:`batch_positions`.

    The per-satellite constants are stacked once, on the first
    :func:`batch_positions` call (so the stacking is timed as
    propagation): epochs, mean anomalies, mean motions, eccentricities
    grouped by value, semi-major axes and one contiguous ``(N, 3, 3)``
    array of transposed frame rotations.  Each constant is the one a
    J2-free :class:`KeplerPropagator` of the same elements holds: the
    mean motion is each element set's ``math`` float, and each rotation
    is :func:`_rotation_entries` evaluated with ``math`` per satellite,
    which equals :attr:`KeplerPropagator.fixed_rotation_t` by
    construction.

    Args:
        elements: One element set per satellite, in fleet order.
    """

    def __init__(self, elements: Sequence[OrbitalElements]):
        self.elements: List[OrbitalElements] = list(elements)
        self._constants: Optional[_FleetConstants] = None

    def __len__(self) -> int:
        return len(self.elements)

    def constants(self) -> _FleetConstants:
        """The stacked constants, built on the first call."""
        if self._constants is None:
            elements = self.elements

            def column(name: str) -> np.ndarray:
                return np.array([getattr(el, name) for el in elements])

            eccentricity = column("eccentricity")
            values = np.unique(eccentricity)
            if len(values) == 1:
                groups = ((float(values[0]), slice(None)),)
            else:
                groups = tuple((float(value), eccentricity == value)
                               for value in values)
            rotations = np.array([
                _plane_entries(el.inclination_rad, el.raan_rad,
                               el.arg_perigee_rad)
                for el in elements
            ]).reshape(-1, 3, 3)
            self._constants = _FleetConstants(
                epoch_s=column("epoch_s"),
                mean_anomaly_rad=column("mean_anomaly_rad"),
                mean_motion_rad_s=column("mean_motion_rad_s"),
                eccentricity=eccentricity,
                groups=groups,
                semi_major_axis_km=column("semi_major_axis_km"),
                rotations_t=np.ascontiguousarray(
                    rotations.transpose(0, 2, 1)),
            )
        return self._constants


def batch_positions(fleet: KeplerFleet, times_s) -> np.ndarray:
    """ECI positions for a whole fleet over a time grid; ``(N, T, 3)`` km.

    All satellites x all times in one flattened ``(N, T)`` solve: one
    Kepler iteration per eccentricity group (one call on the whole
    matrix for the common single-eccentricity fleet), one trig pass and
    one batched ``matmul`` against the fleet's contiguous rotations.  The
    result is bitwise identical to per-satellite
    :meth:`KeplerPropagator.positions_at` calls, whatever the fleet size
    or grid width: the operations are :meth:`KeplerPropagator.states_at`'s
    position half in the same order, every elementwise operation and the
    per-element Newton mask are shape-independent, and the rotation
    operands have the layout of a stack of contiguous transposes
    (``tests/orbits`` pins this).

    Args:
        fleet: The fleet (N satellites); stacks its constants on the
            first call.
        times_s: Scalar or 1-D array of T simulation times.

    Returns:
        Positions of shape ``(N, T, 3)``; ``N = 0`` or ``T = 0`` yield an
        empty array of that shape.
    """
    times = _normalize_times(times_s)
    if not len(fleet) or not times.shape[0]:
        return np.empty((len(fleet), times.shape[0], 3), dtype=float)
    fleet_constants = fleet.constants()
    dt = times[None, :] - fleet_constants.epoch_s[:, None]
    mean_anomaly = (fleet_constants.mean_anomaly_rad[:, None]
                    + fleet_constants.mean_motion_rad_s[:, None] * dt)
    ecc_anom = np.empty_like(mean_anomaly)
    nu = np.empty_like(mean_anomaly)
    for e_value, rows in fleet_constants.groups:
        ecc_anom[rows] = solve_kepler_array(mean_anomaly[rows], e_value)
        nu[rows] = true_anomaly_from_eccentric_array(ecc_anom[rows], e_value)
    r = fleet_constants.semi_major_axis_km[:, None] * (
        1.0 - fleet_constants.eccentricity[:, None] * np.cos(ecc_anom)
    )
    pos_pf = np.stack([r * np.cos(nu), r * np.sin(nu), np.zeros_like(r)],
                      axis=-1)
    return np.matmul(pos_pf, fleet_constants.rotations_t)
