"""Figure 2(c): coverage vs constellation size.

Paper claim: "total earth coverage is achieved by about 50 satellites.
The additional satellites ensure redundancy."  The paper's worst-case
overlap counting is reported alongside the footprint-union estimate; the
union series carries the paper's shape (see EXPERIMENTS.md for the
estimator discussion).  The paper states neither its elevation mask nor
its altitude; the sensitivity sweeps show how the 50-satellite figure
moves with each.
"""

from conftest import print_table

from repro.experiments.figure2 import figure_2c_coverage
from repro.experiments.sensitivity import (
    coverage_altitude_sensitivity,
    coverage_mask_sensitivity,
)

COUNTS = [1, 2, 4, 8, 12, 16, 20, 25, 30, 40, 50, 60, 70, 80]


def test_fig2c_coverage_series(benchmark):
    rows = benchmark.pedantic(
        figure_2c_coverage,
        kwargs={"satellite_counts": COUNTS, "trials": 8, "seed": 42},
        rounds=1, iterations=1,
    )
    print_table(
        "Figure 2(c): coverage vs satellite count",
        rows, ["satellites", "union", "worst_case", "cluster"],
    )
    by_count = {row["satellites"]: row for row in rows}

    # Monotone growth of the union estimate (small trial-noise allowance).
    unions = [row["union"] for row in rows]
    for earlier, later in zip(unions[:-1], unions[1:]):
        assert later >= earlier - 0.02

    # Total-coverage-by-~50 claim (random placement approaches, and a
    # structured Walker fleet reaches, total coverage near this size; see
    # EXPERIMENTS.md).
    assert by_count[50]["union"] > 0.85
    assert by_count[60]["union"] > 0.90
    assert by_count[80]["union"] > 0.95

    # Redundancy claim: satellites beyond ~50 add little coverage.
    assert by_count[80]["union"] - by_count[50]["union"] < 0.10

    # A single satellite covers ~5% of the Earth at 780 km.
    assert 0.02 < by_count[1]["union"] < 0.10

    # Estimator ordering holds everywhere.
    for row in rows:
        assert row["cluster"] <= row["worst_case"] + 1e-9
        assert row["worst_case"] <= row["union"] + 0.05


def test_fig2c_mask_sensitivity(benchmark):
    rows = benchmark.pedantic(
        coverage_mask_sensitivity,
        kwargs={"masks_deg": (0.0, 10.0, 25.0), "trials": 3},
        rounds=1, iterations=1,
    )
    print_table("Figure 2(c) sensitivity: 50-satellite coverage vs mask",
                rows, ["mask_deg", "coverage"])
    coverages = [row["coverage"] for row in rows]
    assert coverages == sorted(coverages, reverse=True)
    by_mask = {row["mask_deg"]: row["coverage"] for row in rows}
    # The 50-satellite near-total-coverage claim holds at the horizon
    # mask the paper's geometry implies, degrades to ~0.7 at a 10 deg
    # user mask, and collapses at 25 deg -- the claim is mask-sensitive,
    # which EXPERIMENTS.md documents.
    assert by_mask[0.0] > 0.85
    assert 0.5 < by_mask[10.0] < 0.85
    assert by_mask[25.0] < 0.5


def test_fig2c_altitude_sensitivity(benchmark):
    rows = benchmark.pedantic(
        coverage_altitude_sensitivity,
        kwargs={"altitudes_km": (400.0, 780.0, 1200.0), "trials": 3},
        rounds=1, iterations=1,
    )
    print_table("Figure 2(c) sensitivity: 50-satellite coverage vs altitude",
                rows, ["altitude_km", "coverage"])
    # Higher shells see more of the Earth per satellite.
    coverages = [row["coverage"] for row in rows]
    assert coverages == sorted(coverages)
