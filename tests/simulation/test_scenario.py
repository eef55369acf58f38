"""Tests for scenario configuration and execution."""


from repro.core.interop import SizeClass
from repro.simulation.scenario import Scenario


class TestFleetConstruction:
    def test_operators_interleaved(self):
        scenario = Scenario(satellite_count=12,
                            operator_names=("a", "b", "c"))
        fleet = scenario.build_fleet()
        owners = [s.owner for s in fleet]
        assert owners[:6] == ["a", "b", "c", "a", "b", "c"]
        assert len(fleet) == 12

    def test_size_mix_cycles(self):
        scenario = Scenario(
            satellite_count=6,
            size_mix=(SizeClass.SMALL, SizeClass.MEDIUM),
        )
        fleet = scenario.build_fleet()
        classes = [s.size_class for s in fleet]
        assert classes == [
            SizeClass.SMALL, SizeClass.MEDIUM,
            SizeClass.SMALL, SizeClass.MEDIUM,
            SizeClass.SMALL, SizeClass.MEDIUM,
        ]

    def test_large_count_uses_random_constellation(self):
        scenario = Scenario(satellite_count=80, seed=3)
        fleet = scenario.build_fleet()
        assert len(fleet) == 80

    def test_same_seed_same_fleet(self):
        a = Scenario(satellite_count=80, seed=3).build_fleet()
        b = Scenario(satellite_count=80, seed=3).build_fleet()
        assert all(
            x.elements.raan_rad == y.elements.raan_rad for x, y in zip(a, b)
        )


class TestRun:
    def test_run_produces_metrics(self):
        scenario = Scenario(
            name="smoke", satellite_count=66, user_count=5,
            sample_times_s=(0.0,), seed=1,
        )
        result = scenario.run()
        assert result.scenario_name == "smoke"
        assert result.latency.reachability > 0.5
        assert result.satellite_count == 66
        assert result.latency.summary_ms().mean > 0.0

    def test_tiny_fleet_mostly_unreachable(self):
        scenario = Scenario(
            satellite_count=3, user_count=8, sample_times_s=(0.0,), seed=1,
        )
        result = scenario.run()
        assert result.latency.reachability < 0.7

    def test_population_respects_user_count(self):
        scenario = Scenario(user_count=7)
        assert len(scenario.build_population()) == 7
