"""Figure 2(a): the simulated OpenSpace constellation.

Paper claim: an Iridium-like Walker Star (66 satellites, 780 km, 6
near-polar planes) "achieves global coverage while maintaining
inter-satellite distances and trajectories that allow for simple and
sustained ISLs."  The paper also cites the CBO reference design (72
satellites, 12 per plane in 6 planes at 80 deg) at ~95% coverage; our
coverage pipeline must land near that external number.
"""

from conftest import print_table

import pytest

from repro.experiments.figure2 import figure_2a_constellation
from repro.orbits.constants import CBO_EXPECTED_COVERAGE
from repro.orbits.visibility import coverage_fraction
from repro.orbits.walker import cbo_reference


def test_fig2a_constellation(benchmark):
    report = benchmark.pedantic(
        figure_2a_constellation, rounds=3, iterations=1
    )
    print_table(
        "Figure 2(a): OpenSpace reference constellation",
        [{
            "satellites": report.satellite_count,
            "planes": report.plane_count,
            "altitude_km": report.altitude_km,
            "inclination_deg": report.inclination_deg,
            "isls": report.isl_count,
            "mean_isl_km": report.mean_isl_distance_km,
            "coverage_union": report.coverage_union,
        }],
        ["satellites", "planes", "altitude_km", "inclination_deg",
         "isls", "mean_isl_km", "coverage_union"],
    )
    # Paper parameters.
    assert report.satellite_count == 66
    assert report.plane_count == 6
    assert abs(report.altitude_km - 780.0) < 1e-6
    # Global coverage claim.
    assert report.coverage_union > 0.99
    # "Simple and sustained ISLs": connected graph, ranges within budget.
    assert report.connected
    assert report.max_isl_distance_km < 6000.0


def test_fig2a_sustained_over_time(benchmark):
    """The ISL fabric must stay connected as the constellation orbits."""

    def sustained():
        reports = [figure_2a_constellation(t) for t in (0.0, 1500.0, 3000.0)]
        return reports

    reports = benchmark.pedantic(sustained, rounds=1, iterations=1)
    rows = [{
        "time_s": i * 1500.0,
        "isls": r.isl_count,
        "connected": r.connected,
        "coverage_union": r.coverage_union,
    } for i, r in enumerate(reports)]
    print_table("Figure 2(a): sustained ISLs over one orbit",
                rows, ["time_s", "isls", "connected", "coverage_union"])
    assert all(r.connected for r in reports)
    assert all(r.coverage_union > 0.99 for r in reports)


def test_cbo_reference_cross_check(benchmark):
    """The whole coverage pipeline against the paper's cited CBO figure."""

    def cbo_coverage():
        constellation = cbo_reference()
        return coverage_fraction(
            constellation.positions_at(0.0), 780.0,
            min_elevation_deg=10.0, grid_resolution=36,
        )

    coverage = benchmark.pedantic(cbo_coverage, rounds=1, iterations=1)
    print_table("Figure 2(a): CBO reference cross-check",
                [{"design": "cbo-reference", "coverage": coverage,
                  "cited": CBO_EXPECTED_COVERAGE}],
                ["design", "coverage", "cited"])
    assert coverage == pytest.approx(CBO_EXPECTED_COVERAGE, abs=0.06)
