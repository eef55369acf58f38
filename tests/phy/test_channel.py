"""Tests for channel models."""

import math

import pytest

from repro.phy.channel import (
    atmospheric_loss_db,
    free_space_path_loss_db,
    noise_power_dbw,
    rain_attenuation_db,
)


class TestFreeSpacePathLoss:
    def test_known_value(self):
        # 1 km at 1 GHz: FSPL = 32.45 + 20log10(f_MHz) + 20log10(d_km)
        assert free_space_path_loss_db(1.0, 1e9) == pytest.approx(92.45, abs=0.05)

    def test_doubling_distance_adds_6db(self):
        base = free_space_path_loss_db(1000.0, 2e9)
        assert free_space_path_loss_db(2000.0, 2e9) == pytest.approx(
            base + 6.0206, abs=0.01
        )

    def test_doubling_frequency_adds_6db(self):
        base = free_space_path_loss_db(1000.0, 2e9)
        assert free_space_path_loss_db(1000.0, 4e9) == pytest.approx(
            base + 6.0206, abs=0.01
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 1e9)
        with pytest.raises(ValueError):
            free_space_path_loss_db(100.0, -1.0)


class TestAtmosphericLoss:
    def test_zenith_loss_small(self):
        loss = atmospheric_loss_db(12e9, math.pi / 2)
        assert 0.0 < loss < 0.5

    def test_low_elevation_increases_loss(self):
        high = atmospheric_loss_db(12e9, math.radians(90.0))
        low = atmospheric_loss_db(12e9, math.radians(10.0))
        assert low > high

    def test_elevation_clamped_at_five_degrees(self):
        at_five = atmospheric_loss_db(12e9, math.radians(5.0))
        below = atmospheric_loss_db(12e9, math.radians(1.0))
        assert below == pytest.approx(at_five)

    def test_higher_band_higher_zenith_loss(self):
        ku = atmospheric_loss_db(12e9, math.pi / 2)
        ka = atmospheric_loss_db(28e9, math.pi / 2)
        assert ka > ku

    def test_override_zenith_loss(self):
        loss = atmospheric_loss_db(12e9, math.pi / 2, zenith_loss_db=1.0)
        assert loss == pytest.approx(1.0)


class TestRainAttenuation:
    def test_clear_sky_is_zero(self):
        assert rain_attenuation_db(12e9, math.pi / 2, 0.0) == 0.0

    def test_low_frequency_immune(self):
        assert rain_attenuation_db(2e9, math.pi / 2, 50.0) == 0.0

    def test_heavier_rain_more_loss(self):
        light = rain_attenuation_db(12e9, math.pi / 2, 5.0)
        heavy = rain_attenuation_db(12e9, math.pi / 2, 50.0)
        assert heavy > light > 0.0

    def test_ku_heavy_rain_magnitude_reasonable(self):
        # 25 mm/h at Ku, 30 deg elevation: a few dB to ~15 dB.
        loss = rain_attenuation_db(12e9, math.radians(30.0), 25.0)
        assert 1.0 < loss < 20.0

    def test_rejects_negative_rain(self):
        with pytest.raises(ValueError):
            rain_attenuation_db(12e9, 1.0, -1.0)


class TestNoise:
    def test_ktb_at_290k_1hz(self):
        # kT at 290 K is about -203.98 dBW/Hz.
        assert noise_power_dbw(1.0, 290.0) == pytest.approx(-203.98, abs=0.05)

    def test_wider_band_more_noise(self):
        assert noise_power_dbw(10e6) > noise_power_dbw(1e6)

    def test_ten_x_bandwidth_adds_10db(self):
        assert noise_power_dbw(10e6) - noise_power_dbw(1e6) == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_power_dbw(0.0)
        with pytest.raises(ValueError):
            noise_power_dbw(1e6, 0.0)
