"""Keplerian orbit propagation, one fleet at a time.

:class:`KeplerFleet` stacks a fleet's
:class:`~repro.orbits.elements.OrbitalElements` once, and
:func:`batch_positions` turns them into Earth-Centred Inertial (ECI)
positions for every satellite and time in one array pass: the only
propagator in the package.  Orbits are two-body (no J2): the paper's
propagation latencies and footprints need no secular drift over the
minutes to days a run spans.

The module deliberately avoids any external ephemeris dependencies so the
whole stack is self-contained, per the reproduction's substitution rule
(synthetic orbital data in place of the radar-tracked catalogs the paper
cites).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.orbits.elements import OrbitalElements

_TWO_PI = 2.0 * math.pi


def solve_kepler_array(mean_anomaly_rad: np.ndarray, eccentricity: float,
                       tol: float = 1e-12,
                       max_iterations: int = 50) -> np.ndarray:
    """Vectorized Kepler solve: ``M = E - e sin E`` for an array of ``M``.

    Newton-Raphson from ``E = M`` (from ``E = pi`` at ``e >= 0.8``, where
    that converges faster) on the whole array at once.  Each element
    stops updating as soon as its own step falls below ``tol`` (a
    convergence mask, not a global break), so every element sees the
    update sequence a solve of that element alone would apply, whatever
    the array's shape.

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


def _plane_entries(inclination_rad: float, raan_rad: float,
                   arg_perigee_rad: float) -> tuple:
    """The nine row-major entries of one orbital plane's perifocal-to-ECI
    rotation (3-1-3 Euler: node, inclination, perigee), trig by ``math``."""
    cos_o, sin_o = math.cos(raan_rad), math.sin(raan_rad)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    cos_w, sin_w = math.cos(arg_perigee_rad), math.sin(arg_perigee_rad)
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
    """A fleet, propagated as one array by :func:`batch_positions`.

    The per-satellite constants are stacked once, on the first
    :func:`batch_positions` call (so the stacking is timed as
    propagation): epochs, mean anomalies, mean motions, eccentricities
    grouped by value, semi-major axes and one contiguous ``(N, 3, 3)``
    array of transposed frame rotations.  The mean motion is each
    element set's ``math`` float, and each rotation is
    :func:`_plane_entries` evaluated with ``math`` per satellite.  A
    one-satellite fleet is how a single orbit propagates (a beacon's
    advertised elements, a contact edge's bisection).

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
    one batched ``matmul`` against the fleet's contiguous rotations.  A
    (satellite, time) pair gets the same bits whatever the fleet size or
    grid width, and the same bits as the one-satellite solve kept in
    ``tests/orbits/oracle.py``: every elementwise operation and the
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
