"""Tests for the Figure 2 experiment drivers (shape assertions).

These assert the qualitative claims of the paper's evaluation, not exact
numbers: the reproduction runs on a synthetic substrate, so who-wins and
where the curves bend is what must hold (see EXPERIMENTS.md).
"""

import math

import pytest

from repro.experiments import figure2
from repro.experiments.figure2 import (
    figure_2a_constellation,
    figure_2b_latency,
    figure_2c_coverage,
)

#: ``(keyword arguments, error message pattern)`` both Figure 2 sweeps
#: reject before building any fleet.
BAD_SWEEP_ARGUMENTS = [
    (dict(satellite_counts=[]), "at least one fleet size"),
    (dict(satellite_counts=[4, 0]), "at least one satellite, got 0"),
    (dict(satellite_counts=[-3]), "at least one satellite, got -3"),
    (dict(satellite_counts=[25, 10, 25]), r"repeat: \[25\]"),
    (dict(satellite_counts=[4], altitude_km=math.nan), "finite positive"),
    (dict(satellite_counts=[4], altitude_km=math.inf), "finite positive"),
    (dict(satellite_counts=[4], altitude_km=0.0), "finite positive"),
    (dict(satellite_counts=[4], altitude_km=-780.0), "finite positive"),
]


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep started before its arguments were checked")


class TestFigure2a:
    @pytest.fixture(scope="class")
    def report(self):
        return figure_2a_constellation()

    def test_constellation_parameters_match_paper(self, report):
        assert report.satellite_count == 66
        assert report.plane_count == 6
        assert report.altitude_km == pytest.approx(780.0)
        assert report.inclination_deg == pytest.approx(86.4)

    def test_global_coverage(self, report):
        assert report.coverage_union > 0.99

    def test_isl_graph_connected_and_sustained(self, report):
        assert report.connected
        assert report.isl_count >= 66
        # ISL distances must stay within what S-band budgets close at.
        assert report.max_isl_distance_km < 6000.0

    @pytest.mark.parametrize("time_s", [0.0, 1234.5])
    def test_isl_statistics_equal_the_graph_view(self, time_s):
        # The arrays give the ISL mean in the order the networkx view
        # iterates its edges (by lower endpoint, then acceptance), so
        # the pairwise-summed mean is bit-equal to the view's.
        import networkx as nx
        import numpy as np

        from repro.isl.topology import IslNode, IslTopologyBuilder
        from repro.orbits.walker import iridium_like
        from repro.phy.rf import standard_sband_isl_terminal

        constellation = iridium_like()
        ids = [f"sat{i}" for i in range(len(constellation))]
        builder = IslTopologyBuilder([
            IslNode(sat_id, [standard_sband_isl_terminal()], max_degree=4)
            for sat_id in ids
        ])
        snap = builder.snapshot(
            time_s, dict(zip(ids, constellation.positions_at(time_s))))
        distances = [data["link"].distance_km
                     for _, _, data in snap.graph.edges(data=True)]
        report = figure_2a_constellation(time_s)
        assert report.mean_isl_distance_km == float(np.mean(distances))
        assert report.max_isl_distance_km == float(np.max(distances))
        assert report.connected == nx.is_connected(snap.graph)


class TestFigure2b:
    @pytest.fixture(scope="class")
    def result(self):
        return figure_2b_latency(
            satellite_counts=[4, 10, 25, 45, 70], trials=3, epochs=6, seed=7,
        )

    def test_reachability_increases_with_fleet_size(self, result):
        reach = result["reachability"]
        assert reach[70] > reach[25] > reach[4]
        assert reach[70] > 0.5

    def test_minimum_fleet_mostly_unreachable(self, result):
        # The paper: ~4 satellites are the bare minimum; a 4-sat random
        # fleet rarely yields a relay path at any instant.
        assert result["reachability"][4] < 0.3

    def test_latency_plateau_for_large_fleets(self, result):
        rows = {row["x"]: row for row in result["series"]}
        assert 70 in rows
        # The paper's plateau is ~30 ms; anything in the same band passes.
        assert 20.0 < rows[70]["mean"] < 70.0

    def test_large_fleet_latency_not_worse_than_mid(self, result):
        rows = {row["x"]: row["mean"] for row in result["series"]}
        if 25 in rows and 70 in rows:
            assert rows[70] <= rows[25] * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            figure_2b_latency(trials=0)
        with pytest.raises(ValueError):
            figure_2b_latency(epochs=0)

    @pytest.mark.parametrize("kwargs, message", BAD_SWEEP_ARGUMENTS)
    def test_bad_sweep_arguments_fail_before_any_work(self, monkeypatch,
                                                      kwargs, message):
        # A repeated count used to pool the same seeded trials twice, and
        # a NaN altitude reported reachability 0.0 without complaint.
        monkeypatch.setattr(figure2, "run_grid", _no_sweep)
        with pytest.raises(ValueError, match=message):
            figure_2b_latency(trials=2, epochs=2, engine="batched", **kwargs)


class TestFigure2c:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure_2c_coverage(
            satellite_counts=[1, 4, 12, 25, 50, 80], trials=6, seed=7,
        )

    def test_union_coverage_monotone(self, rows):
        unions = [row["union"] for row in rows]
        for earlier, later in zip(unions[:-1], unions[1:]):
            assert later >= earlier - 0.02  # trial noise allowance

    def test_total_coverage_around_fifty(self, rows):
        by_count = {row["satellites"]: row for row in rows}
        # The paper: total earth coverage by about 50 satellites.
        assert by_count[50]["union"] > 0.90
        assert by_count[80]["union"] > 0.95

    def test_single_satellite_small_coverage(self, rows):
        assert rows[0]["union"] < 0.10

    def test_worst_case_bounded_by_union(self, rows):
        for row in rows:
            assert row["worst_case"] <= row["union"] + 0.05
            assert row["cluster"] <= row["worst_case"] + 1e-9

    def test_worst_case_saturates_at_packing_limit(self, rows):
        by_count = {row["satellites"]: row for row in rows}
        # The pairwise rule cannot exceed the disjoint-cap packing bound.
        assert by_count[80]["worst_case"] < 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            figure_2c_coverage(trials=0)

    @pytest.mark.parametrize("kwargs, message", BAD_SWEEP_ARGUMENTS)
    def test_bad_sweep_arguments_fail_before_any_work(self, monkeypatch,
                                                      kwargs, message):
        monkeypatch.setattr(figure2, "run_grid", _no_sweep)
        with pytest.raises(ValueError, match=message):
            figure_2c_coverage(trials=2, **kwargs)


class TestRelayBackendEquality:
    """The batched CSR relay path is bit-identical to the networkx oracle."""

    def test_batch_matches_scalar_per_epoch(self):
        import math

        import numpy as np

        from repro.experiments.figure2 import (
            DEFAULT_GATEWAY_SITE,
            DEFAULT_USER_SITE,
            _relay_latency_batch_s,
        )
        from repro.orbits.coordinates import ecef_to_eci
        from repro.orbits.walker import random_constellation
        from tests.routing import oracle

        rng = np.random.default_rng(99)
        times = np.linspace(0.0, 86400.0, 5, endpoint=False)
        for count in (0, 1, 2, 4, 25):
            positions_all = (
                random_constellation(count, rng).positions_over(times)
                if count else np.empty((0, len(times), 3)))
            user_ecis = np.stack([
                ecef_to_eci(DEFAULT_USER_SITE.ecef(), float(t))
                for t in times
            ])
            gateway_ecis = np.stack([
                ecef_to_eci(DEFAULT_GATEWAY_SITE.ecef(), float(t))
                for t in times
            ])
            batch = _relay_latency_batch_s(positions_all, user_ecis,
                                           gateway_ecis,
                                           min_elevation_deg=0.0)
            for k in range(len(times)):
                scalar = oracle.relay_latency_s(
                    positions_all[:, k, :], user_ecis[k], gateway_ecis[k],
                    min_elevation_deg=0.0)
                if scalar is None:
                    assert math.isinf(batch[k])
                else:
                    assert batch[k] == scalar  # bit-identical, not approx

    def test_sweep_output_identical_across_backends(self):
        # The whole sweep, re-derived epoch by epoch with the oracle.
        import json

        import numpy as np

        from repro.experiments.figure2 import (
            DEFAULT_GATEWAY_SITE,
            DEFAULT_USER_SITE,
        )
        from repro.orbits.coordinates import ecef_to_eci
        from repro.orbits.walker import random_constellation
        from repro.parallel import derive_seed
        from repro.simulation.metrics import SeriesCollector
        from tests.routing import oracle

        counts, trials, epochs, seed = [4, 16, 30], 2, 3, 13
        result = figure_2b_latency(satellite_counts=counts, trials=trials,
                                   epochs=epochs, seed=seed)
        times = np.linspace(0.0, 86400.0, epochs, endpoint=False)
        series = SeriesCollector("latency_ms")
        reachability = {}
        for count in counts:
            rng = np.random.default_rng(derive_seed(seed, "figure2b", count))
            reached = 0
            for _ in range(trials):
                positions_all = random_constellation(
                    count, rng).positions_over(times)
                for k, time_s in enumerate(times):
                    latency = oracle.relay_latency_s(
                        positions_all[:, k, :],
                        ecef_to_eci(DEFAULT_USER_SITE.ecef(), float(time_s)),
                        ecef_to_eci(DEFAULT_GATEWAY_SITE.ecef(),
                                    float(time_s)),
                        min_elevation_deg=0.0)
                    if latency is not None:
                        series.add(count, latency * 1000.0)
                        reached += 1
            reachability[count] = reached / (trials * epochs)
        rows = []
        for x in series.xs():
            stats = series.summary_at(x)
            rows.append({"x": x, "mean": stats.mean, "p50": stats.p50,
                         "p95": stats.p95, "n": stats.count})
        expected = {"series": rows, "reachability": reachability}
        assert (json.dumps(result, sort_keys=True)
                == json.dumps(expected, sort_keys=True))


class TestEngineEquality:
    """The one engine: same output at any job count, no other engine."""

    def test_batched_engine_identical_across_job_counts(self):
        kwargs = dict(satellite_counts=[4, 16], trials=2, epochs=3,
                      seed=13)
        assert (figure_2b_latency(**kwargs, jobs=1)
                == figure_2b_latency(**kwargs, jobs=2))

    def test_unknown_engine_rejected(self):
        for engine in ("scalar", "turbo"):
            with pytest.raises(ValueError, match="unknown engine"):
                figure_2b_latency(satellite_counts=[4], trials=1, epochs=2,
                                  engine=engine)
