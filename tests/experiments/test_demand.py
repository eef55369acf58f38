"""Tests for the diurnal demand sweep."""

import pytest

from repro.experiments.demand import (
    demand_sweep,
    plane_count_for,
    scale_access_capacity,
)

SMALL = dict(satellite_counts=(24,), hours_utc=(4.0, 20.0),
             total_users=50_000, bands=8, equator_columns=16)


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


class TestHelpers:
    def test_plane_count_deterministic_and_bounded(self):
        assert plane_count_for(24) >= 3
        assert plane_count_for(66) == plane_count_for(66)
        assert plane_count_for(400) > plane_count_for(66)
        # The scale sweep's rule: every fleet size gets a Walker layout.
        assert plane_count_for(7) == 1
        assert all(count % plane_count_for(count) == 0
                   for count in range(1, 400))

    def test_scale_access_capacity_idempotent(self):
        import networkx as nx
        g = nx.Graph()
        g.add_edge("cell-00000", "sat", kind="access_link",
                   capacity_bps=10e6, delay_s=0.004)
        g.add_edge("sat", "gw", kind="ground_link", capacity_bps=1e9)
        assert scale_access_capacity(g, {"cell-00000": 100}) == 1
        assert g["cell-00000"]["sat"]["capacity_bps"] == 10e6 * 100
        # Second call must not double-scale.
        assert scale_access_capacity(g, {"cell-00000": 100}) == 0
        assert g["cell-00000"]["sat"]["capacity_bps"] == 10e6 * 100
        # Non-access links untouched.
        assert g["sat"]["gw"]["capacity_bps"] == 1e9

    def test_scale_skips_singleton_cells(self):
        import networkx as nx
        g = nx.Graph()
        g.add_edge("cell-00001", "sat", kind="access_link",
                   capacity_bps=10e6)
        assert scale_access_capacity(g, {"cell-00001": 1}) == 0
        assert g["cell-00001"]["sat"]["capacity_bps"] == 10e6
