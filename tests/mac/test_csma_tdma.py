"""Tests for the CSMA/CA and TDMA MAC simulators."""

import numpy as np
import pytest

from repro.mac.common import MacResult
from repro.mac.csma import CsmaCaConfig, CsmaCaSimulator
from repro.mac.tdma import TdmaConfig, TdmaSimulator


def run_csma(stations, rate, duration=300.0, seed=1, **cfg):
    sim = CsmaCaSimulator(
        stations, CsmaCaConfig(**cfg), rate, np.random.default_rng(seed)
    )
    return sim.run(duration)


def run_tdma(stations, rate, duration=300.0, seed=1, **cfg):
    sim = TdmaSimulator(
        stations, TdmaConfig(**cfg), rate, np.random.default_rng(seed)
    )
    return sim.run(duration)


class TestCsmaConfig:
    def test_rejects_bad_slot_time(self):
        with pytest.raises(ValueError):
            CsmaCaConfig(slot_time_s=0.0)

    def test_rejects_bad_cw(self):
        with pytest.raises(ValueError):
            CsmaCaConfig(cw_min=0)
        with pytest.raises(ValueError):
            CsmaCaConfig(cw_min=32, cw_max=16)

    def test_rejects_zero_frame(self):
        with pytest.raises(ValueError):
            CsmaCaConfig(frame_slots=0)


class TestCsmaBehaviour:
    def test_single_station_no_collisions(self):
        result = run_csma(1, 0.5)
        assert result.frames_collided == 0
        assert result.delivery_ratio > 0.95

    def test_low_load_delivers_everything(self):
        result = run_csma(4, 0.2)
        assert result.delivery_ratio > 0.95

    def test_collisions_appear_with_contention(self):
        result = run_csma(20, 1.5, duration=200.0)
        assert result.frames_collided > 0

    def test_overload_degrades_delivery(self):
        light = run_csma(5, 0.2)
        heavy = run_csma(30, 3.0, duration=200.0)
        assert heavy.delivery_ratio < light.delivery_ratio

    def test_delay_grows_with_contention(self):
        few = run_csma(2, 0.4)
        many = run_csma(24, 0.4, duration=200.0)
        assert many.mean_delay_s > few.mean_delay_s

    def test_reproducible_with_seed(self):
        a = run_csma(6, 0.5, seed=9)
        b = run_csma(6, 0.5, seed=9)
        assert a.frames_delivered == b.frames_delivered
        assert a.frames_collided == b.frames_collided

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CsmaCaSimulator(0, CsmaCaConfig(), 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            CsmaCaSimulator(2, CsmaCaConfig(), -1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_csma(2, 0.5, duration=0.0)


class TestTdmaBehaviour:
    def test_no_collisions_ever(self):
        result = run_tdma(8, 1.0)
        assert result.frames_collided == 0

    def test_low_load_delivers_everything(self):
        result = run_tdma(4, 0.2, duration=600.0)
        assert result.delivery_ratio > 0.95

    def test_delay_grows_with_station_count(self):
        # Each station waits for its slot: more stations, longer frames.
        few = run_tdma(2, 0.2, duration=600.0)
        many = run_tdma(20, 0.2, duration=600.0)
        assert many.mean_delay_s > few.mean_delay_s

    def test_guard_time_is_pure_overhead(self):
        # At saturation the frame count is slot-limited, so guard time
        # directly reduces deliverable frames.
        lean = run_tdma(4, 10.0, guard_time_s=0.0)
        padded = run_tdma(4, 10.0, guard_time_s=0.05)
        assert padded.frames_delivered < lean.frames_delivered

    def test_validation(self):
        with pytest.raises(ValueError):
            TdmaConfig(slot_time_s=0.0)
        with pytest.raises(ValueError):
            TdmaConfig(guard_time_s=-0.1)
        with pytest.raises(ValueError):
            TdmaConfig(frame_slots_per_station=0)
        with pytest.raises(ValueError):
            TdmaSimulator(0, TdmaConfig(), 0.5, np.random.default_rng(0))


class TestPaperClaim:
    def test_csma_pays_ifs_and_backoff_overhead(self):
        """CSMA/CA's per-frame latency exceeds raw frame airtime.

        The paper: CSMA/CA "is prone to higher overhead and corresponding
        larger latency due to Inter-Frame Spacing and backoff window
        requirements".
        """
        cfg = CsmaCaConfig()
        result = run_csma(8, 0.4)
        frame_airtime = cfg.frame_slots * cfg.slot_time_s
        assert result.mean_delay_s > frame_airtime


class TestMacResult:
    def test_empty_result_safe(self):
        result = MacResult(duration_s=0.0)
        assert result.delivery_ratio == 0.0
        assert result.mean_delay_s == 0.0
        assert result.goodput_efficiency == 0.0
