"""Tests for RF terminals, optical terminals, and their link budgets."""

import math

import pytest

from repro.orbits.constants import SPEED_OF_LIGHT_M_S
from repro.phy.antennas import dish_gain_dbi, pointing_loss_db_rf
from repro.phy.bands import BAND_CATALOG, get_band
from repro.phy.modulation import achievable_rate_bps
from repro.phy.optical import (
    LASER_TERMINAL_COST_USD,
    LASER_TERMINAL_MASS_KG,
    OpticalTerminal,
    optical_link_budget,
    pointing_loss_db,
)
from repro.phy.rf import (
    RFTerminal,
    rf_link_budget,
    standard_gateway_terminal,
    standard_ku_user_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)


class TestBands:
    def test_catalog_contains_paper_bands(self):
        for name in ("uhf", "s_band", "ku_downlink", "optical_1550nm"):
            assert name in BAND_CATALOG

    def test_isl_bands_not_atmospheric(self):
        assert not get_band("uhf").atmospheric
        assert not get_band("s_band").atmospheric
        assert get_band("ku_downlink").atmospheric

    def test_unknown_band_lists_known(self):
        with pytest.raises(KeyError, match="known bands"):
            get_band("x_band")

    def test_wavelength(self):
        band = get_band("s_band")
        assert band.wavelength_m == pytest.approx(
            299792458.0 / band.centre_frequency_hz
        )


class TestAntennas:
    def test_gain_grows_with_diameter(self):
        assert dish_gain_dbi(2.0, 12e9) > dish_gain_dbi(0.5, 12e9)

    def test_known_gain(self):
        # A 1 m dish at 11.7 GHz with 60% efficiency: ~39.5 dBi.
        assert dish_gain_dbi(1.0, 11.7e9) == pytest.approx(39.5, abs=0.5)

    def test_aperture_round_trip(self):
        # Unit efficiency: the effective aperture G lambda^2 / 4 pi is the
        # dish's physical area.
        gain = dish_gain_dbi(1.0, 12e9, efficiency=1.0)
        wavelength = SPEED_OF_LIGHT_M_S / 12e9
        aperture = 10.0 ** (gain / 10.0) * wavelength**2 / (4.0 * math.pi)
        assert aperture == pytest.approx(math.pi * 0.25, rel=0.01)

    def test_pointing_loss_quadratic(self):
        assert pointing_loss_db_rf(1.0, 2.0) == pytest.approx(3.0)
        assert pointing_loss_db_rf(2.0, 2.0) == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dish_gain_dbi(0.0, 12e9)
        with pytest.raises(ValueError):
            dish_gain_dbi(1.0, 12e9, efficiency=1.5)


class TestRFTerminal:
    def test_requires_gain_or_dish(self):
        with pytest.raises(ValueError, match="antenna_gain_dbi or dish"):
            RFTerminal(band_name="s_band", antenna_gain_dbi=None)

    def test_dish_terminal_derives_gain(self):
        t = RFTerminal(band_name="ku_downlink", dish_diameter_m=1.0)
        assert t.gain_dbi == pytest.approx(dish_gain_dbi(1.0, 11.7e9))

    def test_validates_band_eagerly(self):
        with pytest.raises(KeyError):
            RFTerminal(band_name="nonsense", antenna_gain_dbi=3.0)

    def test_eirp(self):
        t = RFTerminal(band_name="s_band", tx_power_w=10.0,
                       antenna_gain_dbi=12.0)
        assert t.eirp_dbw == pytest.approx(22.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            RFTerminal(band_name="s_band", tx_power_w=0.0,
                       antenna_gain_dbi=3.0)


class TestRFLinkBudget:
    def test_band_mismatch_rejected(self):
        uhf = standard_uhf_isl_terminal()
        sband = standard_sband_isl_terminal()
        with pytest.raises(ValueError, match="band mismatch"):
            rf_link_budget(uhf, sband, 1000.0)

    def test_sband_isl_closes_at_iridium_ranges(self):
        t = standard_sband_isl_terminal()
        budget = rf_link_budget(t, t, 4000.0)
        assert budget.snr_db > 3.0
        assert achievable_rate_bps(budget.snr_db, budget.bandwidth_hz) > 5e6

    def test_snr_decreases_with_distance(self):
        t = standard_sband_isl_terminal()
        assert rf_link_budget(t, t, 500.0).snr_db > rf_link_budget(
            t, t, 5000.0
        ).snr_db

    def test_uhf_slower_than_sband(self):
        uhf = standard_uhf_isl_terminal()
        sband = standard_sband_isl_terminal()
        uhf_rate = achievable_rate_bps(
            rf_link_budget(uhf, uhf, 2000.0).snr_db,
            rf_link_budget(uhf, uhf, 2000.0).bandwidth_hz,
        )
        sband_rate = achievable_rate_bps(
            rf_link_budget(sband, sband, 2000.0).snr_db,
            rf_link_budget(sband, sband, 2000.0).bandwidth_hz,
        )
        assert sband_rate > uhf_rate > 0.0

    def test_ground_link_includes_atmosphere(self):
        space = RFTerminal(band_name="ku_downlink", tx_power_w=20.0,
                           antenna_gain_dbi=32.0)
        user = standard_ku_user_terminal()
        clear = rf_link_budget(space, user, 1000.0,
                               elevation_rad=math.radians(45.0))
        rainy = rf_link_budget(space, user, 1000.0,
                               elevation_rad=math.radians(45.0),
                               rain_rate_mm_h=25.0)
        assert rainy.snr_db < clear.snr_db

    def test_user_downlink_closes_overhead(self):
        space = RFTerminal(band_name="ku_downlink", tx_power_w=20.0,
                           antenna_gain_dbi=32.0)
        user = standard_ku_user_terminal()
        budget = rf_link_budget(space, user, 900.0,
                                elevation_rad=math.radians(60.0))
        assert budget.closes(required_snr_db=1.0)

    def test_gateway_terminal_has_big_gain(self):
        assert standard_gateway_terminal().gain_dbi > 50.0


class TestOpticalTerminal:
    def test_paper_economics_constants(self):
        t = OpticalTerminal()
        assert t.unit_cost_usd == LASER_TERMINAL_COST_USD == 500_000.0
        assert t.mass_kg == LASER_TERMINAL_MASS_KG == 15.0
        assert t.volume_m3 == pytest.approx(0.0234)

    def test_narrow_beam_huge_gain(self):
        t = OpticalTerminal(beam_divergence_urad=15.0)
        assert t.tx_gain_dbi > 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OpticalTerminal(tx_power_w=0.0)
        with pytest.raises(ValueError):
            OpticalTerminal(beam_divergence_urad=-1.0)


class TestPointingLoss:
    def test_zero_jitter_zero_loss(self):
        assert pointing_loss_db(0.0, 15.0) == 0.0

    def test_loss_grows_with_jitter(self):
        assert pointing_loss_db(5.0, 15.0) > pointing_loss_db(1.0, 15.0)

    def test_capped_at_30db(self):
        assert pointing_loss_db(1000.0, 15.0) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pointing_loss_db(1.0, 0.0)
        with pytest.raises(ValueError):
            pointing_loss_db(-1.0, 15.0)


class TestOpticalLinkBudget:
    def test_closes_at_long_range_with_huge_margin(self):
        t = OpticalTerminal()
        budget = optical_link_budget(t, t, 4000.0)
        assert budget.snr_db > 20.0
        assert budget.shannon_capacity_bps > 1e9

    def test_acquisition_mode_much_worse(self):
        t = OpticalTerminal()
        tracking = optical_link_budget(t, t, 2000.0, tracking=True)
        acquiring = optical_link_budget(t, t, 2000.0, tracking=False)
        assert acquiring.snr_db < tracking.snr_db - 20.0
