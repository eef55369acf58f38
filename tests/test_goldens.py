"""Golden-value regression tests.

Every experiment flows through explicitly seeded generators, so headline
numbers are bit-stable.  These goldens pin the values EXPERIMENTS.md
reports; a change here means the reproduction's published numbers moved
and the document must be re-verified (it is not necessarily a bug — but
it is never silent).
"""

import pytest

from repro.experiments.figure2 import figure_2a_constellation
from repro.orbits.visibility import coverage_fraction
from repro.orbits.walker import iridium_like


class TestFigure2aGoldens:
    @pytest.fixture(scope="class")
    def report(self):
        return figure_2a_constellation()

    def test_isl_count(self, report):
        assert report.isl_count == 130

    def test_mean_isl_distance(self, report):
        assert report.mean_isl_distance_km == pytest.approx(3055.0, abs=5.0)

    def test_max_isl_distance(self, report):
        assert report.max_isl_distance_km == pytest.approx(5653.0, abs=5.0)

    def test_union_coverage_total(self, report):
        assert report.coverage_union == pytest.approx(1.0, abs=1e-6)

    def test_worst_case_coverage(self, report):
        assert report.coverage_worst_case == pytest.approx(0.490, abs=0.01)


class TestPhysicsGoldens:
    def test_iridium_period(self, iridium):
        assert iridium.elements[0].period_s == pytest.approx(6027.1, abs=1.0)

    def test_single_satellite_cap_fraction(self):
        from repro.orbits.constants import EARTH_SURFACE_AREA_KM2
        from repro.orbits.visibility import footprint_area_km2
        fraction = footprint_area_km2(780.0) / EARTH_SURFACE_AREA_KM2
        assert fraction == pytest.approx(0.0545, abs=0.0005)

    def test_sband_isl_rate_at_4000km(self):
        from repro.phy.modulation import achievable_rate_bps
        from repro.phy.rf import rf_link_budget, standard_sband_isl_terminal
        terminal = standard_sband_isl_terminal()
        budget = rf_link_budget(terminal, terminal, 4000.0)
        rate = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
        assert rate == pytest.approx(9.9e6, rel=0.02)


class TestEconomicsGoldens:
    def test_medium_fleet_capex(self):
        from repro.core.interop import SizeClass, build_fleet
        from repro.economics.capex import constellation_budget
        fleet = build_fleet(iridium_like(), "golden", SizeClass.MEDIUM)
        budget = constellation_budget(fleet)
        assert budget.total_usd / 1e6 == pytest.approx(308.1, abs=1.0)
        assert budget.licensing_usd == pytest.approx(66 * 12_145.0)

    def test_entry_cost_savings_factor(self):
        from repro.core.interop import SizeClass, build_fleet
        from repro.economics.capex import entry_cost_comparison
        fleet = build_fleet(iridium_like(), "golden", SizeClass.MEDIUM)
        comparison = entry_cost_comparison(fleet, fleet, participant_count=6)
        assert comparison["savings_factor"] == pytest.approx(6.0)


class TestCoverageGoldens:
    def test_structured_fleet_coverage_at_masks(self):
        positions = iridium_like().positions_at(0.0)
        assert coverage_fraction(positions, 780.0) > 0.999
        assert coverage_fraction(
            positions, 780.0, min_elevation_deg=10.0
        ) == pytest.approx(0.997, abs=0.01)
