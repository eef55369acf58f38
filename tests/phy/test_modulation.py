"""Tests for MODCOD selection and link-budget capacity."""

import pytest

from repro.phy.linkbudget import LinkBudget, shannon_capacity_bps
from repro.phy.modulation import (
    MODCOD_TABLE,
    ModCod,
    achievable_rate_bps,
    select_modcod,
)


class TestModCodTable:
    def test_table_ordered_by_efficiency(self):
        # The table is rate-ordered; SNR order genuinely differs in DVB-S2
        # (16APSK 3/4 needs less SNR than 8PSK 8/9).
        effs = [m.spectral_efficiency_bps_hz for m in MODCOD_TABLE]
        assert effs == sorted(effs)
        assert MODCOD_TABLE[0].required_snr_db == min(
            m.required_snr_db for m in MODCOD_TABLE
        )

    def test_efficiency_monotone_with_snr(self):
        effs = [m.spectral_efficiency_bps_hz for m in MODCOD_TABLE]
        assert effs == sorted(effs)

    def test_rate_scales_with_bandwidth(self):
        m = MODCOD_TABLE[3]
        assert m.rate_bps(2e6) == pytest.approx(2 * m.rate_bps(1e6))

    def test_rate_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            MODCOD_TABLE[0].rate_bps(0.0)


class TestSelection:
    def test_high_snr_picks_top_point(self):
        assert select_modcod(30.0).name == "32APSK 9/10"

    def test_very_low_snr_returns_none(self):
        assert select_modcod(-10.0) is None

    def test_margin_is_subtracted(self):
        # QPSK 1/2 needs 1.0 dB; at snr 1.5 with 1 dB margin it fails.
        chosen = select_modcod(1.5, margin_db=1.0)
        assert chosen.required_snr_db <= 0.5

    def test_selection_is_best_affordable(self):
        chosen = select_modcod(8.0, margin_db=0.0)
        assert chosen.name == "8PSK 3/4"

    def test_custom_table(self):
        table = [ModCod("only", 5.0, 1.0)]
        assert select_modcod(10.0, table=table).name == "only"
        assert select_modcod(3.0, table=table) is None

    def test_achievable_rate_zero_when_unclosable(self):
        assert achievable_rate_bps(-20.0, 1e6) == 0.0

    def test_achievable_rate_below_shannon(self):
        for snr in (2.0, 8.0, 15.0):
            assert achievable_rate_bps(snr, 1e6, margin_db=0.0) <= (
                shannon_capacity_bps(1e6, snr)
            )


class TestLinkBudgetType:
    def _budget(self, snr_target_db):
        noise = -130.0
        return LinkBudget(
            tx_power_dbw=10.0,
            tx_gain_dbi=20.0,
            rx_gain_dbi=20.0,
            path_loss_db=10.0 + 20.0 + 20.0 - (noise + snr_target_db),
            extra_loss_db=0.0,
            noise_power_dbw=noise,
            bandwidth_hz=1e6,
        )

    def test_snr_arithmetic(self):
        assert self._budget(7.0).snr_db == pytest.approx(7.0)

    def test_shannon_capacity_property(self):
        budget = self._budget(10.0)
        assert budget.shannon_capacity_bps == pytest.approx(
            shannon_capacity_bps(1e6, 10.0)
        )

    def test_shannon_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            shannon_capacity_bps(0.0, 10.0)

    def test_shannon_known_value(self):
        # B log2(1 + 10^(20/10)) = B log2(101) ~ 6.66 B
        assert shannon_capacity_bps(1e6, 20.0) == pytest.approx(6.66e6, rel=0.01)
