"""Tests for diurnal curves and heavy-tail QoS demand mixes."""

import math

import numpy as np
import pytest

from repro.demand.profile import (
    DEFAULT_QOS_MIX,
    QosClassDemand,
    diurnal_factor,
    local_solar_hour,
    mean_demand_bps_per_user,
    offered_load_bps,
    validate_qos_mix,
)


def _sample_flow_sizes(cls, rng, count):
    """Draw flow sizes (bytes) from a class's distribution, the sampler
    its analytic ``mean_flow_bytes`` must agree with."""
    if cls.size_distribution == "pareto":
        # numpy's pareto is the Lomax form; shift+scale to classic.
        draws = 1.0 + rng.pareto(cls.pareto_alpha, size=count)
        return draws * cls.pareto_min_mb * 1e6
    mu = math.log(cls.mean_flow_mb * 1e6) - cls.sigma ** 2 / 2.0
    return rng.lognormal(mu, cls.sigma, size=count)


class TestDiurnal:
    def test_solar_hour_follows_longitude(self):
        assert float(local_solar_hour(12.0, 0.0)) == pytest.approx(12.0)
        assert float(local_solar_hour(12.0, 90.0)) == pytest.approx(18.0)
        assert float(local_solar_hour(12.0, -90.0)) == pytest.approx(6.0)
        assert float(local_solar_hour(20.0, 90.0)) == pytest.approx(2.0)

    def test_peak_is_normalized_to_one(self):
        hours = np.arange(0.0, 24.0, 1.0 / 60.0)
        factors = diurnal_factor(hours)
        assert factors.max() == pytest.approx(1.0)
        assert factors.min() > 0.0

    def test_evening_beats_predawn(self):
        assert float(diurnal_factor(20.5)) > 2 * float(diurnal_factor(4.0))

    def test_wraps_midnight(self):
        late = float(diurnal_factor(23.9))
        early = float(diurnal_factor(0.1))
        assert late == pytest.approx(early, rel=0.1)


class TestQosClasses:
    def test_default_mix_is_valid(self):
        validate_qos_mix(DEFAULT_QOS_MIX)

    def test_share_sum_enforced(self):
        broken = (QosClassDemand("only", 0.5, 1.0),)
        with pytest.raises(ValueError, match="sum"):
            validate_qos_mix(broken)

    def test_pareto_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="alpha"):
            QosClassDemand("p", 1.0, 1.0, "pareto", pareto_alpha=0.9)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            QosClassDemand("p", 1.0, 1.0, "zipf")

    def test_lognormal_sample_mean_matches_analytic(self):
        cls = QosClassDemand("be", 1.0, 6.0, "lognormal",
                             mean_flow_mb=20.0, sigma=1.2)
        rng = np.random.default_rng(2)
        sizes = _sample_flow_sizes(cls, rng, 200_000)
        assert sizes.mean() == pytest.approx(cls.mean_flow_bytes(),
                                             rel=0.05)

    def test_pareto_sample_mean_matches_analytic(self):
        cls = QosClassDemand("std", 1.0, 8.0, "pareto",
                             pareto_alpha=2.5, pareto_min_mb=8.0)
        rng = np.random.default_rng(3)
        sizes = _sample_flow_sizes(cls, rng, 200_000)
        assert sizes.min() >= 8.0 * 1e6
        assert sizes.mean() == pytest.approx(cls.mean_flow_bytes(),
                                             rel=0.05)


class TestOfferedLoad:
    def test_scales_with_users_and_diurnal(self):
        users = np.array([1000.0, 1000.0])
        lons = np.array([0.0, 0.0])
        peak = offered_load_bps(users, lons, hour_utc=20.5)
        trough = offered_load_bps(users, lons, hour_utc=4.0)
        assert np.all(peak > 2 * trough)
        doubled = offered_load_bps(2 * users, lons, hour_utc=20.5)
        assert np.allclose(doubled, 2 * peak)

    def test_follows_the_sun(self):
        users = np.array([1000.0, 1000.0])
        lons = np.array([0.0, 180.0])
        at_8 = offered_load_bps(users, lons, hour_utc=8.0)
        # At 08:00 UTC it is 20:00 solar at lon 180 — that cell peaks.
        assert at_8[1] > 2 * at_8[0]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            offered_load_bps(np.ones(3), np.ones(2), 12.0)

    def test_mean_demand_positive(self):
        assert mean_demand_bps_per_user() > 0.0
