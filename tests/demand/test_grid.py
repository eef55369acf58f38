"""Tests for the equal-area population grid."""

import numpy as np
import pytest

from repro.demand.grid import (
    GridSpec,
    PopulationGrid,
    population_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(bands=0)
        with pytest.raises(ValueError):
            GridSpec(equator_columns=0)
        with pytest.raises(ValueError):
            GridSpec(max_latitude_deg=95.0)

    def test_bands_are_equal_area(self):
        edges = GridSpec(bands=10).band_sin_edges()
        widths = np.diff(edges)
        assert np.allclose(widths, widths[0])

    def test_columns_shrink_with_latitude(self):
        spec = GridSpec(bands=18, equator_columns=36)
        columns = spec.columns_per_band()
        centers = spec.band_center_latitudes()
        equator_band = int(np.argmin(np.abs(centers)))
        assert columns[equator_band] == columns.max()
        assert columns[0] < columns[equator_band]
        assert columns.min() >= 1

    def test_cell_areas_sum_to_one(self):
        spec = GridSpec(bands=7, equator_columns=19)
        from repro.demand.grid import _cell_geometry
        _, _, area, _ = _cell_geometry(spec)
        assert area.sum() == pytest.approx(1.0)


class TestPopulationGrid:
    def test_user_count_conserved_exactly(self, rng):
        grid = population_grid(1_000_000, rng)
        assert grid.total_users == 1_000_000

    def test_deterministic_per_seed(self):
        a = population_grid(10_000, np.random.default_rng(5))
        b = population_grid(10_000, np.random.default_rng(5))
        c = population_grid(10_000, np.random.default_rng(6))
        assert np.array_equal(a.users, b.users)
        assert not np.array_equal(a.users, c.users)

    def test_negative_users_rejected(self, rng):
        grid = population_grid(100, rng)
        with pytest.raises(ValueError, match=">= 0"):
            PopulationGrid(spec=grid.spec, lat_deg=grid.lat_deg,
                           lon_deg=grid.lon_deg,
                           area_weight=grid.area_weight,
                           users=grid.users - 1_000_000)

    def test_latitudes_respect_cap(self, rng):
        grid = population_grid(1000, rng,
                               GridSpec(max_latitude_deg=60.0))
        assert np.all(np.abs(grid.lat_deg) < 60.0)

    def test_longitudes_wrapped(self, rng):
        grid = population_grid(1000, rng)
        assert np.all(grid.lon_deg > -180.0)
        assert np.all(grid.lon_deg <= 180.0)

    def test_underserved_weights_cluster(self, rng):
        uniform = population_grid(100_000, np.random.default_rng(1))
        clustered = population_grid(100_000, np.random.default_rng(1),
                                    distribution="underserved")
        # Clustered mass concentrates: top-10 cells hold far more users.
        top = 10
        uniform_top = np.sort(uniform.users)[-top:].sum()
        clustered_top = np.sort(clustered.users)[-top:].sum()
        assert clustered_top > 2 * uniform_top

    def test_unknown_distribution_rejected(self, rng):
        with pytest.raises(ValueError, match="distribution"):
            population_grid(100, rng, distribution="martian")

    def test_terminals_one_per_occupied_cell(self, rng):
        grid = population_grid(500, rng,
                               GridSpec(bands=6, equator_columns=12))
        terminals = grid.terminals(["op-a", "op-b"])
        assert len(terminals) == len(grid.occupied)
        assert len({t.user_id for t in terminals}) == len(terminals)
        providers = {t.home_provider for t in terminals}
        assert providers == {"op-a", "op-b"}

    def test_terminals_require_provider(self, rng):
        grid = population_grid(100, rng)
        with pytest.raises(ValueError, match="provider"):
            grid.terminals([])
