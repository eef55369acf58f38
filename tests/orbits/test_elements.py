"""Tests for classical orbital elements."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerPropagator


class TestConstruction:
    def test_circular_factory_sets_semi_major_axis(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.5)
        assert el.semi_major_axis_km == pytest.approx(EARTH_RADIUS_KM + 780.0)
        assert el.eccentricity == 0.0

    def test_circular_rejects_nonpositive_altitude(self):
        with pytest.raises(ValueError, match="altitude"):
            OrbitalElements.circular(0.0, inclination_rad=0.0)
        with pytest.raises(ValueError, match="altitude"):
            OrbitalElements.circular(-100.0, inclination_rad=0.0)

    @pytest.mark.parametrize("altitude", [math.nan, math.inf, -math.inf])
    def test_circular_rejects_non_finite_altitude(self, altitude):
        # NaN passes an `altitude <= 0` test, so it needs its own check.
        with pytest.raises(ValueError, match="finite positive"):
            OrbitalElements.circular(altitude, inclination_rad=0.0)

    def test_rejects_nonpositive_semi_major_axis(self):
        with pytest.raises(ValueError, match="semi-major"):
            OrbitalElements(semi_major_axis_km=-1.0)

    def test_rejects_eccentricity_out_of_range(self):
        with pytest.raises(ValueError, match="eccentricity"):
            OrbitalElements(semi_major_axis_km=7000.0, eccentricity=1.0)
        with pytest.raises(ValueError, match="eccentricity"):
            OrbitalElements(semi_major_axis_km=7000.0, eccentricity=-0.1)

    def test_circular_wraps_angles(self):
        el = OrbitalElements.circular(
            780.0, inclination_rad=1.0,
            raan_rad=3.0 * math.pi, mean_anomaly_rad=-math.pi,
        )
        assert 0.0 <= el.raan_rad < 2.0 * math.pi
        assert 0.0 <= el.mean_anomaly_rad < 2.0 * math.pi


class TestDerivedQuantities:
    def test_altitude_round_trips(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.0)
        assert el.altitude_km == pytest.approx(780.0)

    def test_iridium_period_is_about_100_minutes(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.5)
        assert el.period_s == pytest.approx(6027.0, rel=0.01)

    def test_higher_orbit_has_longer_period(self):
        low = OrbitalElements.circular(400.0, inclination_rad=0.0)
        high = OrbitalElements.circular(1200.0, inclination_rad=0.0)
        assert high.period_s > low.period_s

    def test_perigee_apogee_for_eccentric_orbit(self):
        el = OrbitalElements(
            semi_major_axis_km=EARTH_RADIUS_KM + 1000.0, eccentricity=0.1
        )
        times = np.linspace(0.0, el.period_s, 181)
        radii = np.linalg.norm(KeplerPropagator(el).positions_at(times), axis=1)
        altitudes = radii - EARTH_RADIUS_KM
        # Perigee a(1 - e) and apogee a(1 + e) straddle the mean altitude.
        assert altitudes.min() == pytest.approx(
            el.semi_major_axis_km * 0.9 - EARTH_RADIUS_KM, abs=1.0)
        assert altitudes.max() == pytest.approx(
            el.semi_major_axis_km * 1.1 - EARTH_RADIUS_KM, abs=1.0)
        assert altitudes.min() < 1000.0 < altitudes.max()

    def test_mean_motion_matches_period(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.2)
        assert el.mean_motion_rad_s * el.period_s == pytest.approx(
            2.0 * math.pi
        )


class TestCopies:
    def test_elements_are_frozen(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0)
        with pytest.raises(Exception):
            el.eccentricity = 0.5
