"""Tests for the dynamic resilience (fault churn) experiment driver."""

import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES, resilience_sweep
from repro.experiments.resilience_dynamic import (
    dynamic_resilience_sweep,
    run_fault_scenario,
)
from repro.faults.model import FaultSchedule
from repro.faults.schedule import (
    satellite_mtbf_schedule,
    satellite_outage_event,
)
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.walker import walker_star


@pytest.fixture()
def small_network():
    fleet = build_fleet(walker_star(12, 3), "acme", SizeClass.SMALL)
    network = OpenSpaceNetwork(fleet, default_station_network())
    yield network
    network.clear_fault_state()


@pytest.fixture()
def users():
    name, site = SAMPLE_SITES[0]
    return [UserTerminal(f"u-{name}", site, "acme", min_elevation_deg=10.0)]


class TestRunFaultScenario:
    def test_empty_schedule_clean_summary(self, small_network, users):
        result = run_fault_scenario(
            small_network, FaultSchedule(events=[]), users,
            horizon_s=600.0, epochs=3)
        assert result["faults_injected"] == 0
        assert result["flows_rerouted"] == 0
        assert result["flows_dropped"] == 0
        assert result["probes"] == 3

    def test_faults_applied_and_repaired(self, small_network, users):
        sats = [s.satellite_id for s in small_network.satellites]
        schedule = satellite_mtbf_schedule(
            sats, 1800.0, mtbf_s=1200.0, mttr_s=300.0, seed=5)
        assert len(schedule) > 0
        result = run_fault_scenario(small_network, schedule, users,
                                    horizon_s=1800.0, epochs=3)
        assert result["faults_injected"] == len(schedule)
        assert (result["faults_absorbed"]
                + result["faults_user_affecting"]
                == result["faults_injected"])
        # Faults whose repair lands within the horizon heal; the rest
        # stay applied, which is exactly the residual network state.
        healed = [e for e in schedule.events
                  if e.end_s is not None and e.end_s <= 1800.0]
        assert result["faults_repaired"] == len(healed)
        lingering = {e.targets[0] for e in schedule.events
                     if e.end_s is None or e.end_s > 1800.0}
        assert small_network.failed_satellites == frozenset(lingering)

    def test_validates_epochs_and_horizon(self, small_network, users):
        empty = FaultSchedule(events=[])
        with pytest.raises(ValueError):
            run_fault_scenario(small_network, empty, users,
                               horizon_s=600.0, epochs=0)
        with pytest.raises(ValueError):
            run_fault_scenario(small_network, empty, users,
                               horizon_s=0.0, epochs=2)

    def test_leaves_no_residual_fault_state_on_repairing_schedule(
            self, small_network, users):
        schedule = FaultSchedule(events=[satellite_outage_event(
            [small_network.satellites[0].satellite_id],
            start_s=100.0, duration_s=200.0, fault_id="blip")])
        run_fault_scenario(small_network, schedule, users,
                           horizon_s=600.0, epochs=2)
        assert not small_network.has_faults

    def test_returns_raw_tracker_and_injector(self, small_network, users):
        result = run_fault_scenario(
            small_network, FaultSchedule(events=[]), users,
            horizon_s=600.0, epochs=2)
        assert result["_tracker"].probe_count == 2
        assert result["_injector"].applied_count == 0


class TestDynamicResilienceSweep:
    def test_same_seed_same_rows(self):
        kwargs = dict(mtbf_hours=(2.0,), mttr_s=600.0, horizon_s=1800.0,
                      epochs=3, seed=7)
        assert (dynamic_resilience_sweep(**kwargs)
                == dynamic_resilience_sweep(**kwargs))

    def test_rejects_nonpositive_mtbf(self):
        with pytest.raises(ValueError):
            dynamic_resilience_sweep(mtbf_hours=(0.0,), horizon_s=600.0,
                                     epochs=2)

    def test_mttr_zero_matches_static_baseline(self):
        # Acceptance criterion: with instant repair no fault has any
        # positive-duration effect, so the dynamic sweep must reproduce
        # the static resilience_sweep's zero-loss availability exactly.
        dynamic = dynamic_resilience_sweep(
            mtbf_hours=(2.0,), mttr_s=0.0, horizon_s=1800.0, epochs=3,
            seed=7)
        static = resilience_sweep(failure_fractions=(0.0,), epochs=3)
        assert dynamic[0]["mean_availability"] == pytest.approx(
            static[0]["mean_availability"])
        assert dynamic[0]["flows_rerouted"] == 0
        assert dynamic[0]["flows_dropped"] == 0


class TestEngineEquality:
    """The one probe engine against the per-user oracle engine.

    Patching ``gateway_probe_paths`` with one graph-built oracle probe
    per user (``tests/core/oracle.py``) rebuilds the per-user scalar
    probe engine; every summary and sweep row must come out exactly as
    production gives it.
    """

    # A harsh enough regime that flows are both rerouted and dropped.
    KWARGS = dict(mtbf_hours=(0.5,), mttr_s=600.0, horizon_s=1800.0,
                  epochs=3, seed=43)

    @staticmethod
    def _use_oracle(monkeypatch):
        from tests.core import oracle

        def per_user_probes(network, time_s, users):
            return {user.user_id: oracle.probe(network, time_s, user)
                    for user in users}

        monkeypatch.setattr(OpenSpaceNetwork, "gateway_probe_paths",
                            per_user_probes)

    def test_sweep_rows_identical_across_engines(self, monkeypatch):
        pytest.importorskip("scipy")
        production = dynamic_resilience_sweep(**self.KWARGS, jobs=1)
        assert production[0]["flows_rerouted"] > 0
        assert production[0]["flows_dropped"] > 0
        self._use_oracle(monkeypatch)
        assert dynamic_resilience_sweep(**self.KWARGS, jobs=1) == production

    def test_scenario_identical_across_engines(self, small_network, users,
                                               monkeypatch):
        pytest.importorskip("scipy")
        satellite_ids = [
            s.satellite_id for s in small_network.satellites
        ]
        schedule = satellite_mtbf_schedule(
            satellite_ids, 1200.0, mtbf_s=1800.0, mttr_s=300.0, seed=3)

        def run():
            result = run_fault_scenario(
                small_network, schedule, users, horizon_s=1200.0,
                epochs=4)
            return {k: v for k, v in result.items()
                    if not k.startswith("_")}

        production = run()
        assert production["faults_injected"] > 0
        self._use_oracle(monkeypatch)
        assert run() == production

    def test_unknown_engine_rejected(self):
        for engine in ("scalar", "warp"):
            with pytest.raises(ValueError, match="unknown engine"):
                dynamic_resilience_sweep(mtbf_hours=(2.0,), horizon_s=600.0,
                                         epochs=2, engine=engine)
