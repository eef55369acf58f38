"""Tests for the equal-area population grid."""

import dataclasses

import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.demand.grid import (
    GridSpec,
    PopulationGrid,
    _cell_geometry,
    population_grid,
)
from repro.experiments.demand import FLEET_OWNER, PROVIDERS, plane_count_for
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.phy.rf import standard_ku_user_terminal
from tests.demand import oracle


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
        _, _, area, _ = _cell_geometry(spec)
        assert area.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bands, columns",
                             [(1, 1), (18, 36), (36, 72), (90, 200)])
    def test_geometry_equals_the_per_cell_loop(self, bands, columns):
        spec = GridSpec(bands=bands, equator_columns=columns)
        for got, expected in zip(_cell_geometry(spec),
                                 oracle.cell_geometry(spec)):
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


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


class TestSharedTerminal:
    """Every cell terminal carries one shared (frozen) RF terminal; the
    snapshot priced with them is the one separate terminals priced."""

    #: ``snapshot(4 h).digest()`` of a 24-satellite fleet over a 50,000-
    #: user 8x16 grid (seed 7), recorded when every cell built its own
    #: RF terminal.
    DIGEST = "4864010a814103370ab8b25304ac2a0b386500729c24339bf22581c3813d767f"

    def test_one_terminal_for_every_cell(self, rng):
        terminals = population_grid(
            5_000, rng, GridSpec(bands=6, equator_columns=12)
        ).terminals(PROVIDERS)
        radio = terminals[0].terminal
        assert radio == standard_ku_user_terminal()
        assert all(terminal.terminal is radio for terminal in terminals)

    def test_snapshot_digest_unchanged(self):
        grid = population_grid(50_000, np.random.default_rng(7),
                               GridSpec(bands=8, equator_columns=16))
        network = OpenSpaceNetwork(
            build_fleet(walker_delta(24, plane_count_for(24)), FLEET_OWNER,
                        SizeClass.MEDIUM),
            default_station_network())
        shared = grid.terminals(PROVIDERS)
        separate = [dataclasses.replace(terminal,
                                        terminal=standard_ku_user_terminal())
                    for terminal in shared]
        assert network.snapshot(4 * 3600.0, users=shared).digest() == self.DIGEST
        assert network.snapshot(4 * 3600.0,
                                users=separate).digest() == self.DIGEST
