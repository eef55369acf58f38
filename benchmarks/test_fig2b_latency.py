"""Figure 2(b): propagation latency vs constellation size.

Paper claim: "increasing the number of satellites in the simulation
dramatically reduces the inter-satellite latency up to about 25
satellites, after which latency values average about 30ms", and "the
constellation requires a minimum of about four satellites to guarantee
that a satellite will orbit in range."  The paper does not give its user
and gateway sites; the site sweep shows the plateau follows their
great-circle distance.
"""

from conftest import print_table

from repro.experiments.figure2 import figure_2b_latency
from repro.experiments.sensitivity import latency_site_sensitivity

COUNTS = [4, 7, 10, 13, 16, 19, 22, 25, 30, 40, 55, 70]


def test_fig2b_latency_series(benchmark):
    result = benchmark.pedantic(
        figure_2b_latency,
        kwargs={"satellite_counts": COUNTS, "trials": 4, "epochs": 8,
                "seed": 42},
        rounds=1, iterations=1,
    )
    rows = []
    for count in COUNTS:
        row = {"satellites": count,
               "reachability": result["reachability"][count]}
        series_row = next(
            (r for r in result["series"] if r["x"] == count), None
        )
        if series_row:
            row["latency_mean_ms"] = series_row["mean"]
            row["latency_p95_ms"] = series_row["p95"]
            row["samples"] = series_row["n"]
        rows.append(row)
    print_table(
        "Figure 2(b): propagation latency vs satellite count",
        rows,
        ["satellites", "reachability", "latency_mean_ms",
         "latency_p95_ms", "samples"],
    )

    reach = result["reachability"]
    # Minimum-fleet claim: below ~4 satellites essentially no service.
    assert reach[4] < 0.3
    # Reachability grows with fleet size.
    assert reach[70] > reach[25] > reach[4]
    assert reach[70] > 0.6

    by_count = {r["x"]: r["mean"] for r in result["series"]}
    # Plateau claim: the large-fleet latency sits in the tens of ms.
    assert 20.0 < by_count[70] < 70.0
    # Latency does not blow up as satellites are added past the knee.
    if 25 in by_count:
        assert by_count[70] <= by_count[25] * 1.5


def test_fig2b_site_sensitivity(benchmark):
    rows = benchmark.pedantic(
        latency_site_sensitivity,
        kwargs={"trials": 2, "epochs": 5},
        rounds=1, iterations=1,
    )
    print_table("Figure 2(b) sensitivity: 70-satellite plateau vs sites",
                rows, ["sites", "latency_mean_ms", "reachability"])
    by_name = {row["sites"]: row for row in rows}
    near = by_name["nairobi->nairobi-gw"]["latency_mean_ms"]
    far = by_name["sydney->frankfurt"]["latency_mean_ms"]
    default = by_name["nairobi->frankfurt"]["latency_mean_ms"]
    # Latency ordering follows great-circle distance.
    assert near < default < far
