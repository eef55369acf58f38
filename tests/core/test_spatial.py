"""Tests for the latitude/longitude spatial grid index."""

import math

import numpy as np
import pytest

from repro.core.spatial import SpatialGridIndex, max_central_angle_rad

EARTH_RADIUS_KM = 6378.137
LEO_RADIUS_KM = EARTH_RADIUS_KM + 550.0


def _from_latlon(lat_deg, lon_deg, radius_km=LEO_RADIUS_KM):
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return np.array([
        radius_km * math.cos(lat) * math.cos(lon),
        radius_km * math.cos(lat) * math.sin(lon),
        radius_km * math.sin(lat),
    ])


def _cell_of(index, point):
    """``(latitude band, longitude column)`` the index put one point in."""
    return int(index._band[point]), int(index._col[point])


def _true_pairs(positions, max_range_km):
    count = positions.shape[0]
    rows, cols = np.triu_indices(count, k=1)
    delta = positions[rows] - positions[cols]
    within = np.sqrt((delta * delta).sum(axis=-1)) <= max_range_km
    return set(zip(rows[within].tolist(), cols[within].tolist()))


class TestMaxCentralAngle:
    def test_small_range_small_angle(self):
        theta = max_central_angle_rad(100.0, LEO_RADIUS_KM)
        # chord ~ arc for small angles
        assert math.isclose(theta, 100.0 / LEO_RADIUS_KM, rel_tol=1e-4)

    def test_range_covering_antipodes_returns_pi(self):
        assert max_central_angle_rad(2 * LEO_RADIUS_KM, LEO_RADIUS_KM) == math.pi
        assert max_central_angle_rad(1e9, LEO_RADIUS_KM) == math.pi

    def test_bound_is_monotonic_in_range(self):
        angles = [max_central_angle_rad(d, LEO_RADIUS_KM)
                  for d in (10.0, 100.0, 1000.0, 5000.0)]
        assert angles == sorted(angles)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            max_central_angle_rad(100.0, 0.0)


class TestConstruction:
    def test_rejects_bad_cell_size(self):
        pos = np.array([[LEO_RADIUS_KM, 0.0, 0.0]])
        with pytest.raises(ValueError):
            SpatialGridIndex(pos, cell_size_deg=0.0)
        with pytest.raises(ValueError):
            SpatialGridIndex(pos, cell_size_deg=181.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SpatialGridIndex(np.zeros((2, 3)))  # zero norm

    def test_empty_index(self):
        index = SpatialGridIndex(np.empty((0, 3)))
        assert index.count == 0
        rows, cols = index.candidate_pairs(1000.0)
        assert rows.size == 0 and cols.size == 0

    def test_single_point_has_no_pairs(self):
        index = SpatialGridIndex(_from_latlon(10.0, 20.0).reshape(1, 3))
        rows, cols = index.candidate_pairs(1e9)
        assert rows.size == 0


class TestCellAssignment:
    def test_boundary_point_lands_in_upper_cell(self):
        # lat = 8 with 8-degree cells sits exactly on the band edge;
        # floor((8 + 90) / 8) = 12 (the upper band).
        index = SpatialGridIndex(
            _from_latlon(8.0, 16.0).reshape(1, 3), cell_size_deg=8.0
        )
        band, col = _cell_of(index, 0)
        assert band == 12
        assert col == int((16.0 + 180.0) // 8.0)

    def test_north_pole_clips_into_top_band(self):
        index = SpatialGridIndex(
            _from_latlon(90.0, 0.0).reshape(1, 3), cell_size_deg=8.0
        )
        band, _ = _cell_of(index, 0)
        assert band == index.n_lat_bands - 1

    def test_antimeridian_wraps_to_column_zero(self):
        index = SpatialGridIndex(
            np.stack([_from_latlon(0.0, 180.0), _from_latlon(0.0, -180.0)]),
            cell_size_deg=8.0,
        )
        assert _cell_of(index, 0)[1] == 0
        assert _cell_of(index, 1)[1] == 0


class TestCandidatePairs:
    def test_antimeridian_neighbors_are_candidates(self):
        # 0.4 degrees of longitude apart, straddling the +/-180 seam:
        # ~47 km apart at LEO radius.
        positions = np.stack([
            _from_latlon(0.0, 179.8),
            _from_latlon(0.0, -179.8),
            _from_latlon(0.0, 0.0),
        ])
        index = SpatialGridIndex(positions, cell_size_deg=8.0)
        rows, cols = index.candidate_pairs(100.0)
        assert (0, 1) in set(zip(rows.tolist(), cols.tolist()))

    def test_polar_cluster_found_across_longitudes(self):
        # Near-pole points at wildly different longitudes are physically
        # close; the polar band must scan every column.
        positions = np.stack([
            _from_latlon(89.5, 10.0),
            _from_latlon(89.5, -170.0),
            _from_latlon(0.0, 0.0),
        ])
        index = SpatialGridIndex(positions, cell_size_deg=8.0)
        rows, cols = index.candidate_pairs(200.0)
        assert (0, 1) in set(zip(rows.tolist(), cols.tolist()))

    def test_far_apart_points_are_pruned(self):
        positions = np.stack([
            _from_latlon(0.0, 0.0),
            _from_latlon(0.0, 90.0),
            _from_latlon(0.0, -90.0),
        ])
        index = SpatialGridIndex(positions, cell_size_deg=8.0)
        rows, cols = index.candidate_pairs(500.0)
        assert rows.size == 0

    def test_pairs_are_lex_sorted_upper_triangle(self):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(60, 3))
        positions = vecs / np.linalg.norm(vecs, axis=1, keepdims=True) \
            * LEO_RADIUS_KM
        index = SpatialGridIndex(positions, cell_size_deg=8.0)
        rows, cols = index.candidate_pairs(3000.0)
        assert np.all(rows < cols)
        keys = rows * np.int64(60) + cols
        assert np.all(np.diff(keys) > 0)  # strictly increasing, no dupes

    def test_saturated_range_matches_all_pairs(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(12, 3))
        positions = vecs / np.linalg.norm(vecs, axis=1, keepdims=True) \
            * LEO_RADIUS_KM
        index = SpatialGridIndex(positions)
        rows, cols = index.candidate_pairs(3 * LEO_RADIUS_KM)
        tri_r, tri_c = np.triu_indices(12, k=1)
        assert np.array_equal(rows, tri_r)
        assert np.array_equal(cols, tri_c)

    def test_superset_of_true_pairs_mixed_altitudes(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(80, 3))
        radii = rng.uniform(EARTH_RADIUS_KM + 400.0,
                            EARTH_RADIUS_KM + 1200.0, size=(80, 1))
        positions = vecs / np.linalg.norm(vecs, axis=1, keepdims=True) * radii
        index = SpatialGridIndex(positions, cell_size_deg=6.0)
        for max_range in (500.0, 1500.0, 4000.0):
            rows, cols = index.candidate_pairs(max_range)
            candidates = set(zip(rows.tolist(), cols.tolist()))
            assert _true_pairs(positions, max_range) <= candidates

