"""Property tests: array link budgets equal the scalar path bit for bit.

The batched epoch engine prices stacked edge arrays through
``rf_link_budget_arrays`` / ``optical_link_budget_arrays`` where the
scalar walk calls ``rf_link_budget`` / ``optical_link_budget`` per edge.
The digest gates that hold the two engines together only work if the
budgets agree to the last ulp — not merely to a tolerance — so these
properties assert exact float64 equality of every budget field and every
derived quantity, across the realistic RF and optical parameter ranges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import (
    OpticalTerminal,
    RFTerminal,
    achievable_rate_bps,
    achievable_rate_bps_array,
    optical_link_budget,
    optical_link_budget_arrays,
    rf_link_budget,
    rf_link_budget_arrays,
)
from tests.core.oracle import budget_at

# LEO slant ranges: a near-overhead user pass out to a long ISL chord.
distance_lists = st.lists(
    st.floats(min_value=300.0, max_value=9000.0), min_size=1, max_size=8
)
elevation_lists = st.lists(
    st.floats(min_value=0.0, max_value=np.pi / 2.0), min_size=1, max_size=8
)
band_names = st.sampled_from(
    ["uhf", "s_band", "ku_uplink", "ku_downlink", "ka_gateway"]
)


def _assert_budget_rows_equal(arrays, scalars):
    """Every row of a LinkBudgetArrays equals its scalar LinkBudget."""
    assert len(arrays) == len(scalars)
    for index, scalar in enumerate(scalars):
        row = budget_at(arrays, index)
        assert row == scalar  # dataclass equality: exact float64 fields
        # Derived quantities come from the same fields, but check the
        # array-side reductions too (they run as whole-array ufuncs).
        assert float(np.asarray(arrays.snr_db)[index]) == scalar.snr_db
        assert (float(np.asarray(arrays.shannon_capacity_bps)[index])
                == scalar.shannon_capacity_bps)


class TestRFBudgetEquivalence:
    @settings(deadline=None, max_examples=50)
    @given(band=band_names, distances=distance_lists,
           elevations=elevation_lists,
           tx_power_w=st.floats(min_value=0.1, max_value=200.0),
           gain_dbi=st.floats(min_value=0.0, max_value=45.0),
           noise_k=st.floats(min_value=50.0, max_value=1200.0),
           rain=st.floats(min_value=0.0, max_value=50.0))
    def test_bitwise_matches_scalar(self, band, distances, elevations,
                                    tx_power_w, gain_dbi, noise_k, rain):
        count = min(len(distances), len(elevations))
        distances, elevations = distances[:count], elevations[:count]
        tx = RFTerminal(band, tx_power_w=tx_power_w,
                        antenna_gain_dbi=gain_dbi)
        rx = RFTerminal(band, antenna_gain_dbi=gain_dbi / 2.0,
                        noise_temp_k=noise_k)
        arrays = rf_link_budget_arrays(
            tx, rx, np.array(distances),
            elevations_rad=np.array(elevations), rain_rate_mm_h=rain,
        )
        scalars = [
            rf_link_budget(tx, rx, d, elevation_rad=e, rain_rate_mm_h=rain)
            for d, e in zip(distances, elevations)
        ]
        _assert_budget_rows_equal(arrays, scalars)

    @settings(deadline=None, max_examples=20)
    @given(band=band_names, distances=distance_lists)
    def test_default_elevation_is_zenith(self, band, distances):
        tx = RFTerminal(band, antenna_gain_dbi=20.0)
        rx = RFTerminal(band, antenna_gain_dbi=10.0)
        arrays = rf_link_budget_arrays(tx, rx, np.array(distances))
        scalars = [rf_link_budget(tx, rx, d) for d in distances]
        _assert_budget_rows_equal(arrays, scalars)


class TestOpticalBudgetEquivalence:
    @settings(deadline=None, max_examples=50)
    @given(distances=distance_lists,
           tx_power_w=st.floats(min_value=0.1, max_value=20.0),
           aperture_m=st.floats(min_value=0.02, max_value=0.5),
           divergence=st.floats(min_value=5.0, max_value=100.0),
           jitter=st.floats(min_value=0.0, max_value=20.0),
           tracking=st.booleans())
    def test_bitwise_matches_scalar(self, distances, tx_power_w,
                                    aperture_m, divergence, jitter,
                                    tracking):
        tx = OpticalTerminal(tx_power_w=tx_power_w, aperture_m=aperture_m,
                             beam_divergence_urad=divergence,
                             pointing_jitter_urad=jitter)
        rx = OpticalTerminal(aperture_m=aperture_m)
        arrays = optical_link_budget_arrays(
            tx, rx, np.array(distances), tracking=tracking
        )
        scalars = [optical_link_budget(tx, rx, d, tracking=tracking)
                   for d in distances]
        _assert_budget_rows_equal(arrays, scalars)


class TestAchievableRateEquivalence:
    @settings(deadline=None, max_examples=50)
    @given(snrs=st.lists(st.floats(min_value=-30.0, max_value=40.0),
                         min_size=1, max_size=12),
           bandwidth_hz=st.floats(min_value=1e6, max_value=10e9))
    def test_bitwise_matches_scalar(self, snrs, bandwidth_hz):
        rates = achievable_rate_bps_array(np.array(snrs), bandwidth_hz)
        for index, snr in enumerate(snrs):
            assert (float(np.asarray(rates)[index])
                    == achievable_rate_bps(snr, bandwidth_hz))
