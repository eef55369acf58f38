"""Property-based tests for the spatial grid's superset guarantee."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.spatial import SpatialGridIndex

EARTH_RADIUS_KM = 6378.137


def _positions(seed, count):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.uniform(EARTH_RADIUS_KM + 300.0, EARTH_RADIUS_KM + 2000.0,
                        size=(count, 1))
    return vecs / norms * radii


class TestSpatialSupersetProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=2, max_value=64),
           cell_deg=st.floats(min_value=2.0, max_value=45.0),
           max_range_km=st.floats(min_value=10.0, max_value=20_000.0))
    @settings(max_examples=40, deadline=None)
    # 43 degree cells leave a 16 degree column at the antimeridian; a
    # pair 17 degrees apart across it spans three columns.
    @example(seed=0, count=27, cell_deg=43.0, max_range_km=2462.0)
    def test_candidates_superset_of_within_range_pairs(
            self, seed, count, cell_deg, max_range_km):
        positions = _positions(seed, count)
        index = SpatialGridIndex(positions, cell_size_deg=cell_deg)
        rows, cols = index.candidate_pairs(max_range_km)
        candidates = set(zip(rows.tolist(), cols.tolist()))

        tri_r, tri_c = np.triu_indices(count, k=1)
        delta = positions[tri_r] - positions[tri_c]
        within = np.sqrt((delta * delta).sum(axis=-1)) <= max_range_km
        truly = set(zip(tri_r[within].tolist(), tri_c[within].tolist()))
        assert truly <= candidates

        # Deterministic traversal contract: i < j, lexicographic, unique.
        assert np.all(rows < cols)
        if rows.size:
            keys = rows * np.int64(count) + cols
            assert np.all(np.diff(keys) > 0)
