"""Tests for the control-plane reliability sweep."""

import math

import pytest

from repro import obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments import reliability
from repro.experiments.reliability import (
    PROVIDER,
    _flap_links,
    _make_users,
    reliability_sweep,
    run_reliability_scenario,
)
from repro.faults.model import FaultSchedule
from repro.faults.schedule import link_flap_schedule
from repro.ground.station import default_station_network
from repro.orbits.walker import iridium_like
from repro.reliability.exchange import RetryPolicy


@pytest.fixture(scope="module")
def relia_network():
    fleet = build_fleet(iridium_like(), PROVIDER, SizeClass.MEDIUM)
    return OpenSpaceNetwork(fleet, default_station_network())


class TestSweep:
    def test_deterministic_per_seed(self):
        kwargs = dict(loss_rates=(0.0, 0.15), flap_mtbf_hours=(0.2,),
                      horizon_s=600.0, probes=2, seed=21)
        assert reliability_sweep(**kwargs) == reliability_sweep(**kwargs)

    def test_zero_loss_row_matches_baseline(self):
        rows = reliability_sweep(loss_rates=(0.0,), flap_mtbf_hours=(0.0,),
                                 horizon_s=600.0, probes=2, seed=5)
        (row,) = rows
        assert row["auth_success_rate"] == row["baseline_success_rate"]
        assert row["mean_attempts"] == 1.0
        assert row["latency_inflation"] == 1.0
        assert row["degraded_associations"] == 0
        assert row["exchange_failures"] == 0

    def test_loss_inflates_attempts_and_latency(self):
        rows = reliability_sweep(loss_rates=(0.0, 0.25),
                                 flap_mtbf_hours=(0.0,),
                                 horizon_s=600.0, probes=2, seed=5)
        clean, lossy = rows
        assert lossy["mean_attempts"] > clean["mean_attempts"]
        assert lossy["latency_inflation"] > clean["latency_inflation"]

    def test_grid_order_and_coordinates(self):
        rows = reliability_sweep(loss_rates=(0.0, 0.1),
                                 flap_mtbf_hours=(0.0, 0.5),
                                 horizon_s=300.0, probes=1, seed=5)
        assert [(r["loss"], r["flap_mtbf_h"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.1, 0.0), (0.1, 0.5)
        ]

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError, match="loss rate"):
            reliability_sweep(loss_rates=(1.5,))

    def test_rejects_bad_mtbf(self):
        with pytest.raises(ValueError, match="MTBF"):
            reliability_sweep(flap_mtbf_hours=(-1.0,))

    def test_point_arguments_checked_before_any_point(self, monkeypatch):
        monkeypatch.setattr(reliability, "run_grid", lambda *a, **k: [])
        # The bounds of the flap fraction stay valid: 0 flaps nothing.
        assert reliability_sweep(flap_fraction=0.0) == []
        assert reliability_sweep(flap_fraction=1.0) == []
        for fraction in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="flap fraction"):
                reliability_sweep(flap_fraction=fraction)
        with pytest.raises(ValueError, match="max_attempts"):
            reliability_sweep(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            reliability_sweep(timeout_s=-1.0)


class TestScenario:
    def test_rejects_bad_probes(self, relia_network):
        with pytest.raises(ValueError, match="probe"):
            run_reliability_scenario(
                relia_network, FaultSchedule(horizon_s=60.0),
                _make_users()[:1], horizon_s=60.0, probes=0, loss=0.0,
                policy=RetryPolicy(),
            )

    def test_rejects_bad_horizon(self, relia_network):
        with pytest.raises(ValueError, match="horizon"):
            run_reliability_scenario(
                relia_network, FaultSchedule(horizon_s=0.0),
                _make_users()[:1], horizon_s=0.0, probes=1, loss=0.0,
                policy=RetryPolicy(),
            )

    def test_flaps_with_total_loss_open_breakers(self, relia_network):
        # Acceptance scenario: an ISL-flap schedule plus a dead control
        # channel — breakers open, degraded-mode counters land in
        # repro.obs, and nothing raises.
        links = _flap_links(relia_network, 0.25)
        schedule = link_flap_schedule(links, 60.0, mtbf_s=120.0,
                                      mttr_s=30.0, seed=3)
        recorder = obs.Recorder()
        with obs.use(recorder):
            result = run_reliability_scenario(
                relia_network, schedule, _make_users()[:2],
                horizon_s=60.0, probes=3, loss=1.0,
                policy=RetryPolicy(max_attempts=2, timeout_s=0.1,
                                   jitter_fraction=0.0),
                breaker_threshold=2, breaker_recovery_s=1e6,
            )
        assert result["auth_success_rate"] == 0.0
        assert result["exchange_failures"] > 0
        assert result["breaker_opens"] > 0
        metric_names = {row["name"] for row in recorder.metrics.rows()}
        assert "reliability.degraded" in metric_names
        assert "reliability.exchange.failure" in metric_names
        assert "reliability.breaker.transitions" in metric_names

    def test_fault_state_cleared_after_run(self, relia_network):
        links = _flap_links(relia_network, 0.5)
        schedule = link_flap_schedule(links, 60.0, mtbf_s=60.0,
                                      mttr_s=None, seed=4)
        run_reliability_scenario(
            relia_network, schedule, _make_users()[:1], horizon_s=60.0,
            probes=1, loss=0.0, policy=RetryPolicy(),
        )
        assert not relia_network.failed_links
        assert not relia_network.failed_satellites


class TestFlapLinks:
    def test_deterministic_sample(self, relia_network):
        assert (_flap_links(relia_network, 0.25)
                == _flap_links(relia_network, 0.25))

    def test_fraction_scales_sample(self, relia_network):
        quarter = _flap_links(relia_network, 0.25)
        half = _flap_links(relia_network, 0.5)
        assert len(half) > len(quarter) > 0

    def test_zero_fraction_empty(self, relia_network):
        assert _flap_links(relia_network, 0.0) == []
