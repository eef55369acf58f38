"""Spatial indexing over satellite positions.

All-pairs candidate discovery is the O(N^2) wall between the paper's
few-hundred-satellite Figure 2 and mega-constellation scale: at 10,000
satellites the pairwise distance and line-of-sight matrices alone are
hundreds of megabytes per epoch.  This module provides a latitude/
longitude grid index over ECEF/ECI positions whose neighborhood queries
return a **provable superset** of every pair within a range limit, so
the ISL builder can evaluate geometry for ~N*k candidate pairs instead
of N^2/2.

Superset guarantee
------------------

For two points at radii ``r1, r2 >= r_min`` separated by Earth-central
angle ``theta``, the chord satisfies::

    d^2 = (r1 - r2)^2 + 2 r1 r2 (1 - cos theta) >= (2 r_min sin(theta/2))^2

so any pair within range ``D`` has ``theta <= 2 asin(min(1, D / (2 r_min)))``.
The grid therefore only needs to scan cells within that central angle:

* latitude reach is ``theta`` directly (a great-circle arc is never
  shorter than its latitude span);
* longitude reach per latitude-band pair comes from the haversine
  identity ``sin^2(dlon/2) <= sin^2(theta/2) / (cos lat1 * cos lat2)``,
  bounded with each band's smallest cosine — bands touching a pole get
  an unbounded reach and scan every longitude column (the polar case);
* longitude columns wrap modulo the column count, so neighborhoods
  cross the antimeridian without special-casing.

Determinism
-----------

:meth:`SpatialGridIndex.candidate_pairs` returns pairs with ``i < j``
sorted lexicographically — exactly the order ``np.triu_indices`` walks
the full matrix — so downstream stable sorts break ties identically to
the all-pairs path and pruning changes nothing but wall clock.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

#: Band cosines at or below this are treated as polar (scan all columns).
_POLAR_COS_EPS = 1e-9


def max_central_angle_rad(max_range_km: float, min_radius_km: float) -> float:
    """Largest Earth-central angle a pair within range can subtend.

    Args:
        max_range_km: Chord-distance limit between the two points.
        min_radius_km: Lower bound on both points' geocentric radii.

    Returns:
        The central-angle bound in radians; ``math.pi`` when the range
        covers antipodal points (no pruning possible).
    """
    if min_radius_km <= 0.0:
        raise ValueError(f"min radius must be positive, got {min_radius_km}")
    sin_half = max_range_km / (2.0 * min_radius_km)
    if sin_half >= 1.0:
        return math.pi
    return 2.0 * math.asin(max(0.0, sin_half))


class SpatialGridIndex:
    """A latitude/longitude grid over one epoch's satellite positions.

    Args:
        positions_km: ``(N, 3)`` ECEF/ECI position vectors.  Every row
            must have positive norm (a spacecraft is never at the
            geocenter).
        cell_size_deg: Angular cell size; one value for latitude bands
            and longitude columns (columns shrink to the nearest width
            that divides 360 degrees).  Smaller cells prune harder but
            cost more bucket scans per query.
    """

    def __init__(self, positions_km: np.ndarray, cell_size_deg: float = 8.0):
        if cell_size_deg <= 0.0 or cell_size_deg > 180.0:
            raise ValueError(
                f"cell size must be in (0, 180] degrees, got {cell_size_deg}"
            )
        pos = np.asarray(positions_km, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        radius = np.sqrt((pos * pos).sum(axis=1))
        if np.any(radius <= 0.0):
            raise ValueError("positions must have positive norm")
        self.positions = pos
        self.cell_size_deg = float(cell_size_deg)
        self.count = pos.shape[0]
        self._radius_min = float(radius.min()) if self.count else 0.0

        self.n_lat_bands = int(math.ceil(180.0 / self.cell_size_deg))
        self.n_lon_cols = int(math.ceil(360.0 / self.cell_size_deg))
        # Columns split 360 degrees evenly, so the one across the
        # antimeridian is as wide as the rest and a column reach counted
        # in widths holds across the seam.
        self._col_deg = 360.0 / self.n_lon_cols

        lat_deg = np.degrees(np.arcsin(np.clip(pos[:, 2] / np.where(
            radius > 0.0, radius, 1.0), -1.0, 1.0)))
        lon_deg = np.degrees(np.arctan2(pos[:, 1], pos[:, 0]))
        # floor() assigns a point exactly on a cell boundary to the upper
        # cell; the pole itself (lat = +90) clips into the top band, and
        # lon = +/-180 wraps into column 0 — one column, no seam.
        self._band = np.clip(
            np.floor((lat_deg + 90.0) / self.cell_size_deg).astype(np.int64),
            0, self.n_lat_bands - 1,
        )
        self._col = (
            np.floor((lon_deg + 180.0) / self._col_deg).astype(np.int64)
            % self.n_lon_cols
        )

        keys = self._band * self.n_lon_cols + self._col
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self._cells: Dict[int, np.ndarray] = {}
        if self.count:
            uniq, starts = np.unique(sorted_keys, return_index=True)
            bounds = np.append(starts, self.count)
            for k, key in enumerate(uniq):
                # Stable sort keeps each bucket in ascending point index.
                self._cells[int(key)] = order[bounds[k]:bounds[k + 1]]

        # Smallest |cos(latitude)| over each band, for longitude reach.
        edges = -90.0 + self.cell_size_deg * np.arange(self.n_lat_bands + 1)
        edges = np.clip(edges, -90.0, 90.0)
        edge_cos = np.cos(np.radians(edges))
        self._band_min_cos = np.minimum(edge_cos[:-1], edge_cos[1:])

    # -- structure ------------------------------------------------------

    def _reaches(self, theta_rad: float):
        """Band reach plus per-band-pair longitude reach parameters."""
        theta_deg = math.degrees(theta_rad)
        band_reach = int(theta_deg // self.cell_size_deg) + 1
        sin_half_sq = math.sin(theta_rad / 2.0) ** 2
        return band_reach, sin_half_sq

    def _col_reach(self, sin_half_sq: float, cos_a: float,
                   cos_b: float) -> int:
        """Longitude reach in columns for one band pair.

        Returns ``self.n_lon_cols`` (scan everything) when either band
        touches a pole or the haversine bound saturates.
        """
        denom = cos_a * cos_b
        if denom <= _POLAR_COS_EPS or sin_half_sq >= denom:
            return self.n_lon_cols
        dlon_deg = math.degrees(2.0 * math.asin(math.sqrt(sin_half_sq / denom)))
        return int(dlon_deg // self._col_deg) + 1

    # -- queries --------------------------------------------------------

    def candidate_pairs(self, max_range_km: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Every index pair that could be within ``max_range_km``.

        Returns:
            ``(rows, cols)`` index arrays with ``rows[k] < cols[k]``,
            sorted lexicographically by ``(row, col)`` — the traversal
            order of ``np.triu_indices`` — and guaranteed to be a
            superset of the true within-range pairs.
        """
        empty = np.empty(0, dtype=np.int64)
        if self.count < 2:
            return empty, empty
        theta = max_central_angle_rad(max_range_km, self._radius_min)
        if theta >= math.pi:
            rows, cols = np.triu_indices(self.count, k=1)
            return rows.astype(np.int64), cols.astype(np.int64)
        band_reach, sin_half_sq = self._reaches(theta)

        lo_parts = []
        hi_parts = []
        for key_a in self._cells:
            band_a, col_a = divmod(key_a, self.n_lon_cols)
            members_a = self._cells[key_a]
            band_stop = min(band_a + band_reach, self.n_lat_bands - 1)
            for band_b in range(band_a, band_stop + 1):
                reach = self._col_reach(
                    sin_half_sq,
                    float(self._band_min_cos[band_a]),
                    float(self._band_min_cos[band_b]),
                )
                if 2 * reach + 1 >= self.n_lon_cols:
                    cols_b = range(self.n_lon_cols)
                else:
                    cols_b = (
                        (col_a + d) % self.n_lon_cols
                        for d in range(-reach, reach + 1)
                    )
                for col_b in cols_b:
                    key_b = band_b * self.n_lon_cols + col_b
                    if key_b < key_a:
                        # The symmetric scan from the other cell emits
                        # this pair of cells exactly once.
                        continue
                    members_b = self._cells.get(key_b)
                    if members_b is None:
                        continue
                    if key_b == key_a:
                        tri_r, tri_c = np.triu_indices(len(members_a), k=1)
                        lo_parts.append(members_a[tri_r])
                        hi_parts.append(members_a[tri_c])
                    else:
                        ii = np.repeat(members_a, len(members_b))
                        jj = np.tile(members_b, len(members_a))
                        lo_parts.append(np.minimum(ii, jj))
                        hi_parts.append(np.maximum(ii, jj))
        if not lo_parts:
            return empty, empty
        lo = np.concatenate(lo_parts)
        hi = np.concatenate(hi_parts)
        order = np.argsort(lo * np.int64(self.count) + hi, kind="stable")
        return lo[order], hi[order]
