"""Tests for the slotted-ALOHA comparator."""

import numpy as np
import pytest

from repro.mac.aloha import AlohaConfig, SlottedAlohaSimulator
from repro.mac.csma import CsmaCaConfig, CsmaCaSimulator


def run_aloha(stations, rate, duration=600.0, seed=6, **cfg):
    sim = SlottedAlohaSimulator(
        stations, AlohaConfig(**cfg), rate, np.random.default_rng(seed)
    )
    return sim.run(duration)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlohaConfig(slot_time_s=0.0)
        with pytest.raises(ValueError):
            AlohaConfig(retransmit_probability=0.0)
        with pytest.raises(ValueError):
            AlohaConfig(max_attempts=0)

    def test_simulator_validation(self):
        with pytest.raises(ValueError):
            SlottedAlohaSimulator(0, AlohaConfig(), 0.1,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_aloha(2, 0.1, duration=0.0)


class TestBehaviour:
    def test_single_station_never_collides(self):
        result = run_aloha(1, 1.0)
        assert result.frames_collided == 0
        assert result.delivery_ratio > 0.95

    def test_light_load_delivers(self):
        result = run_aloha(4, 0.1)
        assert result.delivery_ratio > 0.9

    def test_contention_causes_collisions(self):
        result = run_aloha(20, 1.0, duration=300.0)
        assert result.frames_collided > 0

    def test_heavy_load_collapses(self):
        light = run_aloha(4, 0.1)
        heavy = run_aloha(40, 2.0, duration=300.0)
        assert heavy.delivery_ratio < light.delivery_ratio

    def test_goodput_ceiling_near_theory(self):
        # Drive the channel near G=1: goodput should not exceed the
        # e^{-1} ~ 0.368 slotted-ALOHA ceiling by any margin.
        result = run_aloha(20, 0.4, duration=900.0)
        assert result.goodput_efficiency <= 0.40

    def test_reproducible(self):
        a = run_aloha(6, 0.3, seed=11)
        b = run_aloha(6, 0.3, seed=11)
        assert a.frames_delivered == b.frames_delivered

    def test_csma_beats_aloha_at_moderate_load(self):
        # Carrier sensing should outperform blind transmission.
        aloha = run_aloha(10, 0.4, duration=400.0)
        csma = CsmaCaSimulator(
            10, CsmaCaConfig(), 0.4, np.random.default_rng(6)
        ).run(400.0)
        assert csma.delivery_ratio >= aloha.delivery_ratio - 0.02
