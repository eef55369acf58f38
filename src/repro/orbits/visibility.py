"""Visibility, footprints, and coverage geometry.

Implements the geometric primitives behind the paper's Figure 2:

* line-of-sight between two satellites (Earth-grazing test, used to decide
  which ISLs are feasible);
* satellite-to-ground visibility with an elevation mask;
* nadir footprints as spherical caps, and the paper's *worst-case* coverage
  rule: "if there is any overlap between a pair of satellite ranges, their
  effective coverage will be reduced to that of a single satellite".
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.orbits.constants import EARTH_RADIUS_KM, EARTH_SURFACE_AREA_KM2

#: Default minimum ray altitude for satellite-to-satellite line of sight.
#: Every line-of-sight test here defaults to it, so a certificate from
#: :func:`chord_clears_grazing` speaks for :func:`line_of_sight_mask`.
GRAZING_ALTITUDE_KM = 80.0


def slant_range(pos_a_km: np.ndarray, pos_b_km: np.ndarray) -> float:
    """Euclidean distance between two position vectors, km."""
    return float(np.linalg.norm(np.asarray(pos_a_km) - np.asarray(pos_b_km)))


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of ``(..., 3)`` vectors, shape ``(...)``.

    Computed on the x, y and z component planes and summed x, then y,
    then z: the order in which numpy's add-reduction sums a length-3
    last axis, so every value equals ``v * v`` reduced over that axis,
    bit for bit (``tests/properties/test_property_visibility.py`` pins
    that order), without the per-row reduction loop.  The reduction
    starts from +0.0, which changes a sum only when every term is -0.0;
    a square never is, so no start is needed here (an elevation's dot
    product needs one: see :func:`elevations_and_ranges`).
    """
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    return x * x + y * y + z * z


def line_of_sight_mask(pos_a_km: np.ndarray, pos_b_km: np.ndarray,
                       grazing_altitude_km: float = GRAZING_ALTITUDE_KM) -> np.ndarray:
    """True where the segment between paired satellite positions clears
    the atmosphere.

    A segment must not dip below ``EARTH_RADIUS_KM + grazing_altitude_km``;
    the default keeps ISLs above the bulk of the atmosphere, the usual
    criterion in LEO ISL studies.  Works on the x, y and z component
    planes, each three-term sum added in :func:`squared_norms`' order, so
    the mask equals the ``(..., 3)`` formulation's
    (``tests/orbits/oracle.py``) bit for bit.  (A dot product of three
    -0.0 terms, +0.0 in numpy's reduction, only flips the sign of a zero
    that is squared before the comparison.)

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
    limit = EARTH_RADIUS_KM + grazing_altitude_km
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    dx, dy, dz = b[..., 0] - ax, b[..., 1] - ay, b[..., 2] - az
    dd = dx * dx + dy * dy + dz * dz
    # Closest point of each segment to the Earth's centre; degenerate
    # (zero-length) segments test the endpoint itself.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd > 0.0, -(ax * dx + ay * dy + az * dz)
                     / np.where(dd > 0.0, dd, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx, cy, cz = ax + t * dx, ay + t * dy, az + t * dz
    return np.sqrt(cx * cx + cy * cy + cz * cz) >= limit


#: Relative margin :func:`chord_clears_grazing` keeps on the squared
#: grazing radius: about 3 mm of depth at 80 km, over 10^5 times the
#: rounding of the squared norms and of :func:`line_of_sight_mask`'s
#: closest point (~1e-11 km).
CHORD_MARGIN = 1e-9


def chord_clears_grazing(min_radius_km: float, max_length_km: float,
                         grazing_altitude_km: float = GRAZING_ALTITUDE_KM) -> bool:
    """True when every short enough segment between high enough points
    clears the atmosphere, so :func:`line_of_sight_mask` is all true.

    A segment whose ends lie at radius ``>= r`` and which is at most
    ``c`` long comes no closer to the Earth's centre than
    ``sqrt(r^2 - c^2 / 4)``: an interior closest point is at most
    ``c / 2`` from the nearer end.  The certificate holds when that
    chord depth stays above the grazing sphere by :data:`CHORD_MARGIN`.
    Inputs that are only a few ulps off (computed norms, a range test
    on a computed distance) cannot flip a certified answer.

    Args:
        min_radius_km: Lowest radius of any segment end.
        max_length_km: Longest segment.
        grazing_altitude_km: Minimum ray altitude, as for
            :func:`line_of_sight_mask`.
    """
    limit = EARTH_RADIUS_KM + grazing_altitude_km
    depth_sq = min_radius_km * min_radius_km - 0.25 * max_length_km * max_length_km
    return bool(depth_sq >= limit * limit * (1.0 + CHORD_MARGIN))


def elevations_and_ranges(ground_km: np.ndarray, satellite_km: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Elevation (radians) and slant range (km) of satellites seen from
    ground points, in one pass over the x, y and z component planes.

    The vectorized :func:`elevation_angle` and :func:`slant_range`, and
    the one vectorized elevation in the package.  Any broadcastable pair
    of ``(..., 3)`` shapes works: ``(G, 1, 3)`` ground rows against
    ``(1, S, 3)`` satellites, ``(K, 1, 3)`` against ``(K, N, 3)``,
    paired ``(T, 3)`` rows.  Both results take the broadcast shape
    without the last axis; the ground norm is computed once per ground
    row.  Each three-term sum is added in :func:`squared_norms`' order,
    and the dot product starts from +0.0 as numpy's reduction does (three
    -0.0 terms sum to +0.0, not -0.0), so both results equal the
    ``(..., 3)`` formulation's (``tests/orbits/oracle.py``) bit for bit,
    and each range is ``sqrt(squared_norms(sat - ground))`` of its pair.
    Degenerate zero ranges and ground points at the origin report zenith,
    matching the scalar function.
    """
    ground = np.asarray(ground_km, dtype=float)
    sats = np.asarray(satellite_km, dtype=float)
    gx, gy, gz = ground[..., 0], ground[..., 1], ground[..., 2]
    dx, dy, dz = sats[..., 0] - gx, sats[..., 1] - gy, sats[..., 2] - gz
    range_km = np.sqrt(dx * dx + dy * dy + dz * dz)
    denom = range_km * np.sqrt(squared_norms(ground))
    safe = denom > 0.0
    sin_el = np.where(
        safe,
        (0.0 + dx * gx + dy * gy + dz * gz) / np.where(safe, denom, 1.0),
        1.0,
    )
    return np.arcsin(np.clip(sin_el, -1.0, 1.0)), range_km


def elevation_angle(ground_ecef_km: np.ndarray,
                    satellite_ecef_km: np.ndarray) -> float:
    """Elevation of a satellite above a ground point's local horizon, radians.

    Treats the local vertical as the geocentric radial direction, which is
    exact for the spherical-Earth model used in the coverage study.
    """
    ground = np.asarray(ground_ecef_km, dtype=float)
    delta = np.asarray(satellite_ecef_km, dtype=float) - ground
    range_km = float(np.linalg.norm(delta))
    ground_norm = float(np.linalg.norm(ground))
    if range_km == 0.0 or ground_norm == 0.0:
        return math.pi / 2.0
    sin_el = float(delta @ ground) / (range_km * ground_norm)
    return math.asin(max(-1.0, min(1.0, sin_el)))


def footprint_half_angle(altitude_km: float,
                         min_elevation_deg: float = 0.0) -> float:
    """Earth-central half-angle of a satellite's coverage cap, radians.

    For a satellite at altitude ``h`` serving users above elevation ``e``,
    the cap half-angle is ``lambda = acos(R cos e / (R + h)) - e``.

    Args:
        altitude_km: Satellite altitude above the mean radius.
        min_elevation_deg: User elevation mask; 0 gives the horizon-limited
            footprint the paper's worst-case coverage estimate implies.
    """
    if altitude_km <= 0.0:
        raise ValueError(f"altitude must be positive, got {altitude_km}")
    elev = math.radians(min_elevation_deg)
    ratio = EARTH_RADIUS_KM * math.cos(elev) / (EARTH_RADIUS_KM + altitude_km)
    return math.acos(max(-1.0, min(1.0, ratio))) - elev


def footprint_area_km2(altitude_km: float,
                       min_elevation_deg: float = 0.0) -> float:
    """Area of a satellite's spherical-cap footprint, km^2."""
    half_angle = footprint_half_angle(altitude_km, min_elevation_deg)
    return (
        2.0 * math.pi * EARTH_RADIUS_KM**2 * (1.0 - math.cos(half_angle))
    )


def _central_angles(positions_eci_km: np.ndarray) -> np.ndarray:
    """Pairwise Earth-central angles between subsatellite points, radians."""
    pos = np.asarray(positions_eci_km, dtype=float)
    unit = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    cosines = np.clip(unit @ unit.T, -1.0, 1.0)
    return np.arccos(cosines)


def worst_case_coverage_fraction(positions_eci_km: np.ndarray,
                                 altitude_km: float,
                                 min_elevation_deg: float = 0.0) -> float:
    """Coverage under the paper's worst-case overlap rule.

    "We assume that if there is any overlap between a pair of satellite
    ranges, their effective coverage will be reduced to that of a single
    satellite — that is, we take the worst case where two satellites have
    completely overlapping ground coverage."

    Implemented as a greedy pairwise reduction: walk the satellites in
    order; whenever a satellite's footprint overlaps one already counted,
    the pair contributes a single footprint (the new satellite is dropped).
    The counted satellites have pairwise-disjoint footprints, so summing
    their cap areas never double-counts ground area.  The result is capped
    at 1.0.

    (A stricter transitive reading — collapsing whole overlap *clusters* to
    one footprint — is available as :func:`cluster_coverage_fraction`; it
    cannot reach full coverage and is provided for sensitivity analysis.)

    Args:
        positions_eci_km: ``(N, 3)`` satellite position vectors.
        altitude_km: Common constellation altitude (footprint size).
        min_elevation_deg: User elevation mask for the footprint.

    Returns:
        Fraction of the Earth's surface covered, in [0, 1].
    """
    pos = np.atleast_2d(np.asarray(positions_eci_km, dtype=float))
    count = pos.shape[0]
    if count == 0:
        return 0.0
    half_angle = footprint_half_angle(altitude_km, min_elevation_deg)
    angles = _central_angles(pos)
    overlap_limit = 2.0 * half_angle
    kept: list = []
    for i in range(count):
        if all(angles[i, j] >= overlap_limit for j in kept):
            kept.append(i)
    cap_area = footprint_area_km2(altitude_km, min_elevation_deg)
    return min(1.0, len(kept) * cap_area / EARTH_SURFACE_AREA_KM2)


def cluster_coverage_fraction(positions_eci_km: np.ndarray,
                              altitude_km: float,
                              min_elevation_deg: float = 0.0) -> float:
    """Strictest transitive reading of the worst-case rule.

    Groups satellites into overlap clusters (connected components of the
    pairwise-overlap graph); each cluster contributes the footprint of a
    single satellite.  This lower-bounds every other estimator.
    """
    pos = np.atleast_2d(np.asarray(positions_eci_km, dtype=float))
    count = pos.shape[0]
    if count == 0:
        return 0.0
    half_angle = footprint_half_angle(altitude_km, min_elevation_deg)
    angles = _central_angles(pos)
    overlap = angles < (2.0 * half_angle)
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            if overlap[i, j]:
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[root_j] = root_i
    cluster_count = len({find(i) for i in range(count)})
    cap_area = footprint_area_km2(altitude_km, min_elevation_deg)
    return min(1.0, cluster_count * cap_area / EARTH_SURFACE_AREA_KM2)


def coverage_fraction(positions_eci_km: np.ndarray, altitude_km: float,
                      min_elevation_deg: float = 0.0,
                      grid_points: Optional[np.ndarray] = None,
                      grid_resolution: int = 24) -> float:
    """Monte-Carlo/grid estimate of the true footprint-union coverage.

    Provided as the realistic comparator to the paper's worst-case rule.
    Samples points on an equal-area-ish latitude/longitude grid (weighted by
    ``cos(latitude)``) and reports the covered weight fraction.

    Args:
        positions_eci_km: ``(N, 3)`` satellite position vectors.
        altitude_km: Common constellation altitude.
        min_elevation_deg: User elevation mask.
        grid_points: Optional precomputed ``(M, 3)`` unit vectors to test.
        grid_resolution: Latitude bands when building the default grid.

    Returns:
        Fraction of the Earth's surface covered, in [0, 1].
    """
    pos = np.atleast_2d(np.asarray(positions_eci_km, dtype=float))
    if pos.shape[0] == 0:
        return 0.0
    if grid_points is None:
        grid_points, weights = surface_grid(grid_resolution)
    else:
        grid_points = np.asarray(grid_points, dtype=float)
        weights = np.full(grid_points.shape[0], 1.0 / grid_points.shape[0])
    half_angle = footprint_half_angle(altitude_km, min_elevation_deg)
    sat_unit = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    cos_limit = math.cos(half_angle)
    # A grid point is covered when some satellite's subsatellite direction
    # is within the cap half-angle.
    cosines = grid_points @ sat_unit.T
    covered = (cosines >= cos_limit).any(axis=1)
    return float(weights[covered].sum())


def surface_grid(resolution: int = 24):
    """Latitude/longitude sample grid with cos-latitude area weights.

    Returns:
        ``(points, weights)`` where ``points`` is an ``(M, 3)`` array of unit
        vectors and ``weights`` sums to 1.
    """
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    lats = np.linspace(-math.pi / 2.0, math.pi / 2.0, resolution)
    points = []
    weights = []
    for lat in lats:
        band = max(4, int(round(2 * resolution * math.cos(lat))))
        lons = np.linspace(0.0, 2.0 * math.pi, band, endpoint=False)
        for lon in lons:
            points.append(
                [
                    math.cos(lat) * math.cos(lon),
                    math.cos(lat) * math.sin(lon),
                    math.sin(lat),
                ]
            )
            weights.append(math.cos(lat) / band if math.cos(lat) > 0 else 1e-9)
    points_arr = np.array(points)
    weights_arr = np.array(weights)
    weights_arr /= weights_arr.sum()
    return points_arr, weights_arr
