"""Tests for traffic generation and metric collectors."""

import math

import numpy as np
import pytest

from repro.simulation.metrics import (
    LatencyCollector,
    SeriesCollector,
    summarize,
)
from repro.simulation.traffic import (
    PoissonFlowGenerator,
    UNDERSERVED_REGIONS,
    UserPopulation,
    underserved_region_users,
    uniform_land_users,
)


class TestPopulations:
    def test_uniform_count_and_band(self, rng):
        pop = uniform_land_users(50, rng, ["op-a", "op-b"])
        assert len(pop) == 50
        assert all(
            abs(u.location.latitude_deg) <= 70.0 for u in pop.users
        )

    def test_uniform_round_robins_providers(self, rng):
        pop = uniform_land_users(10, rng, ["op-a", "op-b"])
        homes = [u.home_provider for u in pop.users]
        assert homes.count("op-a") == 5
        assert homes.count("op-b") == 5

    def test_uniform_validation(self, rng):
        with pytest.raises(ValueError):
            uniform_land_users(0, rng, ["op"])
        with pytest.raises(ValueError):
            uniform_land_users(5, rng, [])

    def test_underserved_clusters(self, rng):
        pop = underserved_region_users(3, rng, ["op-a"])
        assert len(pop) == 3 * len(UNDERSERVED_REGIONS)
        kenya_users = [u for u in pop.users if "rural-kenya" in u.user_id]
        assert len(kenya_users) == 3
        for user in kenya_users:
            assert abs(user.location.latitude_deg - (-0.5)) < 15.0

    def test_population_weights_default_uniform(self, rng):
        pop = uniform_land_users(4, rng, ["op"])
        assert np.allclose(pop.normalized_weights(), 0.25)

    def test_weight_length_mismatch_rejected(self, rng):
        pop = uniform_land_users(4, rng, ["op"])
        with pytest.raises(ValueError, match="weights"):
            UserPopulation(users=pop.users, weights=[1.0])

    def test_negative_weight_rejected_at_construction(self, rng):
        # Regression: [-1.0, 3.0] used to pass the `total <= 0` check
        # and yield a negative "probability".
        pop = uniform_land_users(2, rng, ["op"])
        with pytest.raises(ValueError, match=">= 0"):
            UserPopulation(users=pop.users, weights=[-1.0, 3.0])

    def test_negative_weight_rejected_after_mutation(self, rng):
        pop = uniform_land_users(2, rng, ["op"])
        pop.weights = [-1.0, 3.0]
        with pytest.raises(ValueError, match=">= 0"):
            pop.normalized_weights()

    def test_all_zero_weights_rejected(self, rng):
        pop = uniform_land_users(2, rng, ["op"])
        pop.weights = [0.0, 0.0]
        with pytest.raises(ValueError, match="sum"):
            pop.normalized_weights()

    def test_underserved_longitude_stays_wrapped(self):
        # A huge spread forces jitter across the +-180 seam; every
        # longitude must come back wrapped into [-180, 180).
        rng = np.random.default_rng(3)
        pop = underserved_region_users(40, rng, ["op"], spread_deg=200.0)
        for user in pop.users:
            assert -180.0 <= user.location.longitude_deg < 180.0

    def test_underserved_pacific_straddles_antimeridian(self):
        # pacific-islands sits at lon 178; with moderate spread some
        # users land on each side of the seam.
        rng = np.random.default_rng(5)
        pop = underserved_region_users(60, rng, ["op"], spread_deg=6.0)
        pacific = [u.location.longitude_deg for u in pop.users
                   if "pacific-islands" in u.user_id]
        assert any(lon > 170.0 for lon in pacific)
        assert any(lon < -170.0 for lon in pacific)

    def test_underserved_latitude_clipped_near_poles(self):
        rng = np.random.default_rng(9)
        pop = underserved_region_users(50, rng, ["op"], spread_deg=60.0)
        for user in pop.users:
            assert -89.0 <= user.location.latitude_deg <= 89.0
        arctic = [u.location.latitude_deg for u in pop.users
                  if "arctic-canada" in u.user_id]
        assert max(arctic) == pytest.approx(89.0)

    def test_underserved_deterministic_per_seed(self):
        def locations(seed):
            pop = underserved_region_users(
                5, np.random.default_rng(seed), ["op-a", "op-b"])
            return [(u.user_id, u.location.latitude_deg,
                     u.location.longitude_deg, u.home_provider)
                    for u in pop.users]

        assert locations(42) == locations(42)
        assert locations(42) != locations(43)


class TestFlowGenerator:
    def _generator(self, rng, rate=5.0, **kwargs):
        pop = uniform_land_users(10, rng, ["op-a"])
        return PoissonFlowGenerator(pop, rate, rng, **kwargs)

    def test_flows_time_ordered_within_duration(self, rng):
        flows = self._generator(rng).generate(100.0)
        times = [f.start_s for f in flows]
        assert times == sorted(times)
        assert all(0.0 <= t < 100.0 for t in times)

    def test_arrival_rate_approximately_honoured(self, rng):
        flows = self._generator(rng, rate=5.0).generate(200.0)
        assert len(flows) == pytest.approx(1000, rel=0.2)

    def test_mean_size_approximately_honoured(self, rng):
        flows = self._generator(rng, rate=20.0, mean_flow_mb=10.0).generate(
            100.0
        )
        mean_mb = np.mean([f.size_bytes for f in flows]) / 1e6
        assert mean_mb == pytest.approx(10.0, rel=0.4)

    def test_qos_mix_respected(self, rng):
        flows = self._generator(rng, rate=20.0).generate(100.0)
        premium = sum(1 for f in flows if f.qos_class == "premium")
        assert 0.02 < premium / len(flows) < 0.25

    def test_bad_mix_rejected(self, rng):
        pop = uniform_land_users(2, rng, ["op"])
        with pytest.raises(ValueError, match="sum"):
            PoissonFlowGenerator(pop, 1.0, rng,
                                 qos_mix=[("best_effort", 0.5)])

    def test_validation(self, rng):
        gen = self._generator(rng)
        with pytest.raises(ValueError):
            gen.generate(0.0)
        pop = uniform_land_users(2, rng, ["op"])
        with pytest.raises(ValueError):
            PoissonFlowGenerator(pop, 0.0, rng)

    def test_flow_ids_unique(self, rng):
        flows = self._generator(rng).generate(50.0)
        assert len({f.flow_id for f in flows}) == len(flows)


class TestSummarize:
    def test_known_values(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == 2.5
        assert stats.count == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])


class TestLatencyCollector:
    def test_records_and_reachability(self):
        collector = LatencyCollector()
        collector.record(0.030)
        collector.record(None)
        collector.record(0.050)
        assert collector.reachability == pytest.approx(2 / 3)
        assert collector.summary().mean == pytest.approx(0.040)
        assert collector.summary_ms().mean == pytest.approx(40.0)

    def test_empty_reachability_is_nan(self):
        # "nothing measured" must stay distinguishable from "all flows
        # unreachable" (which is a true 0.0).
        assert math.isnan(LatencyCollector().reachability)

    def test_all_unreachable_is_zero(self):
        collector = LatencyCollector()
        collector.record(None)
        assert collector.reachability == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyCollector().record(-0.1)


class TestSeriesCollector:
    def test_mean_series_sorted(self):
        series = SeriesCollector()
        series.add(10.0, 2.0)
        series.add(5.0, 1.0)
        series.add(10.0, 4.0)
        assert series.xs() == [5.0, 10.0]
        assert [series.summary_at(x).mean for x in series.xs()] == [1.0, 3.0]

    def test_table_rows(self):
        series = SeriesCollector()
        for y in (1.0, 2.0, 3.0):
            series.add(1.0, y)
        assert series.xs() == [1.0]
        stats = series.summary_at(1.0)
        assert stats.mean == 2.0
        assert stats.count == 3
