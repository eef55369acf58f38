"""Tests for the diurnal demand sweep."""

import numpy as np
import pytest

from repro import obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.demand.grid import GridSpec, population_grid
from repro.experiments.demand import (
    FLEET_OWNER,
    PROVIDERS,
    access_capacity_bps,
    demand_sweep,
    plane_count_for,
)
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta

SMALL = dict(satellite_counts=(24,), hours_utc=(4.0, 20.0),
             total_users=50_000, bands=8, equator_columns=16)
ONE_POINT = dict(SMALL, hours_utc=(4.0,))


@pytest.fixture(scope="module")
def rows():
    return demand_sweep(**SMALL)


class TestDemandSweep:
    def test_row_grid_shape(self, rows):
        assert len(rows) == 2
        assert [row["hour_utc"] for row in rows] == [4.0, 20.0]
        assert all(row["satellites"] == 24 for row in rows)

    def test_users_conserved(self, rows):
        assert all(row["users"] == 50_000 for row in rows)

    def test_fixed_point_converges(self, rows):
        assert all(row["converged"] for row in rows)
        assert all(row["iterations"] >= 1 for row in rows)

    def test_diurnal_variation_visible(self, rows):
        # Global offered load is nearly flat across UTC hours (the load
        # follows the sun around the globe), but *where* it lands moves,
        # so the congestion outcome differs between hours.
        predawn, evening = rows
        assert evening["served_fraction"] != predawn["served_fraction"]
        assert evening["revenue_usd"] != predawn["revenue_usd"]

    def test_revenue_under_load(self, rows):
        assert all(row["revenue_usd"] > 0.0 for row in rows)
        assert all(row["carried_gb"] > 0.0 for row in rows)

    def test_sane_fractions(self, rows):
        for row in rows:
            assert 0.0 <= row["served_fraction"] <= 1.0
            assert 0.0 <= row["peak_utilization"] <= 1.0 + 1e-9
            assert row["p95_delay_inflation"] >= 1.0
            assert 0 <= row["routed_cells"] <= row["cells"]

    def test_deterministic_per_seed(self, rows):
        again = demand_sweep(**SMALL)
        assert again == rows
        different = demand_sweep(**SMALL, seed=8)
        assert different != rows

    def test_jobs_equivalence(self, rows):
        parallel = demand_sweep(**SMALL, jobs=2)
        assert parallel == rows

    def test_validation(self):
        with pytest.raises(ValueError, match="satellite"):
            demand_sweep(satellite_counts=(0,))
        with pytest.raises(ValueError, match="hour"):
            demand_sweep(hours_utc=(24.5,))

    @pytest.mark.parametrize("argument, value", [
        ("satellite_counts", ()),
        ("hours_utc", ()),
        ("total_users", 0),
        ("bands", 0),
        ("equator_columns", 0),
        ("duration_s", 0.0),
        ("duration_s", -60.0),
        ("distribution", "martian"),
    ])
    def test_bad_argument_named_before_any_point_runs(self, argument, value,
                                                      monkeypatch):
        import repro.experiments.demand as demand_module

        def no_grid(*_args, **_kwargs):
            raise AssertionError("validation must precede the sweep")

        monkeypatch.setattr(demand_module, "run_grid", no_grid)
        with pytest.raises(ValueError, match=argument):
            demand_sweep(**{**SMALL, argument: value})

    def test_underserved_spread_checked_before_any_point_runs(
            self, monkeypatch):
        import repro.experiments.demand as demand_module

        monkeypatch.setattr(demand_module, "run_grid",
                            lambda *args, **kwargs: [])
        for spread, message in ((0.0, "spread must be positive"),
                                (-6.0, "spread must be positive"),
                                (0.001, "placed no weight")):
            with pytest.raises(ValueError, match=message):
                demand_sweep(**SMALL, distribution="underserved",
                             spread_deg=spread)
        # uniform_land ignores the spread, so it is not checked there.
        assert demand_sweep(**SMALL, spread_deg=0.0) == []


@pytest.fixture(scope="module")
def cell_snapshot():
    """A 24-satellite snapshot whose users are a grid's cell terminals."""
    grid = population_grid(50_000, np.random.default_rng(7),
                           GridSpec(bands=8, equator_columns=16))
    fleet = build_fleet(walker_delta(24, plane_count_for(24)),
                        FLEET_OWNER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())
    snap = network.snapshot(4 * 3600.0, users=grid.terminals(PROVIDERS))
    return snap, grid.users[grid.occupied]


class TestHelpers:
    def test_plane_count_deterministic_and_bounded(self):
        assert plane_count_for(24) >= 3
        assert plane_count_for(66) == plane_count_for(66)
        assert plane_count_for(400) > plane_count_for(66)
        # The scale sweep's rule: every fleet size gets a Walker layout.
        assert plane_count_for(7) == 1
        assert all(count % plane_count_for(count) == 0
                   for count in range(1, 400))

    def test_scale_access_capacity_idempotent(self, cell_snapshot):
        snap, users = cell_snapshot
        before = snap.edges.capacity_bps.copy()
        first = access_capacity_bps(snap, users)
        assert np.any(first != before)
        # A second call must not scale the first call's capacities again.
        assert np.array_equal(access_capacity_bps(snap, users), first)
        assert np.array_equal(snap.edges.capacity_bps, before)
        # Non-access links untouched.
        user_rows = len(snap.nodes) - len(users)
        ground = (snap.edges.u < user_rows) & (snap.edges.v < user_rows)
        assert ground.any()
        assert np.array_equal(first[ground], before[ground])

    def test_scale_skips_singleton_cells(self, cell_snapshot):
        snap, users = cell_snapshot
        singletons = np.ones_like(users)
        assert np.array_equal(access_capacity_bps(snap, singletons),
                              snap.edges.capacity_bps)


class TestAccessCapacity:
    def test_each_cell_scales_its_own_access_links(self, cell_snapshot):
        snap, users = cell_snapshot
        users = users.copy()
        users[::2] = 1
        before = snap.edges.capacity_bps.copy()

        scaled = access_capacity_bps(snap, users)

        count_of = dict(zip(snap.nodes_of_kind("user"), users.tolist()))
        nodes = snap.nodes
        scaled_links = singleton_links = 0
        for row, (u, v) in enumerate(zip(snap.edges.u.tolist(),
                                         snap.edges.v.tolist())):
            cells = [nodes[u], nodes[v]]
            cell = next((c for c in cells if c in count_of), None)
            if cell is None:
                assert scaled[row] == before[row]
            elif count_of[cell] == 1:
                assert scaled[row] == before[row]
                singleton_links += 1
            else:
                assert scaled[row] == float(before[row]) * count_of[cell]
                scaled_links += 1
        assert scaled_links > 0 and singleton_links > 0
        assert np.array_equal(snap.edges.capacity_bps, before)

    def test_a_point_leaves_its_snapshot_unmodified(self, monkeypatch):
        built = []
        real_snapshot = OpenSpaceNetwork.snapshot

        def recording_snapshot(network, *args, **kwargs):
            snap = real_snapshot(network, *args, **kwargs)
            built.append((snap, snap.edges.capacity_bps.copy()))
            return snap

        monkeypatch.setattr(OpenSpaceNetwork, "snapshot", recording_snapshot)
        demand_sweep(**ONE_POINT)
        assert built
        for snap, capacity in built:
            assert np.array_equal(snap.edges.capacity_bps, capacity)


class TestNoGraphView:
    def test_a_point_builds_no_graph(self, graph_constructions):
        # The health sample of an enabled recorder reads the arrays too.
        demand_sweep(**ONE_POINT)
        with obs.use(obs.Recorder()):
            demand_sweep(**ONE_POINT)
        assert graph_constructions == []
