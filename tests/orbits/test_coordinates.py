"""Tests for coordinate transforms."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_POLAR_RADIUS_KM, EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci, geodetic_to_ecef
from tests.orbits.oracle import ecef_to_geodetic, eci_to_ecef


class TestGeodeticPoint:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError, match="latitude"):
            GeodeticPoint(91.0, 0.0)
        with pytest.raises(ValueError, match="latitude"):
            GeodeticPoint(-90.5, 0.0)

    def test_radian_properties(self):
        p = GeodeticPoint(45.0, -90.0)
        assert p.latitude_rad == pytest.approx(math.pi / 4)
        assert p.longitude_rad == pytest.approx(-math.pi / 2)


class TestGeodeticEcef:
    def test_equator_prime_meridian(self):
        ecef = geodetic_to_ecef(GeodeticPoint(0.0, 0.0, 0.0))
        assert ecef[0] == pytest.approx(EARTH_RADIUS_KM)
        assert abs(ecef[1]) < 1e-9
        assert abs(ecef[2]) < 1e-9

    def test_north_pole(self):
        ecef = geodetic_to_ecef(GeodeticPoint(90.0, 0.0, 0.0))
        assert abs(ecef[0]) < 1e-6
        assert ecef[2] == pytest.approx(EARTH_POLAR_RADIUS_KM, rel=1e-6)

    def test_altitude_extends_radially(self):
        low = geodetic_to_ecef(GeodeticPoint(30.0, 40.0, 0.0))
        high = geodetic_to_ecef(GeodeticPoint(30.0, 40.0, 100.0))
        assert np.linalg.norm(high) > np.linalg.norm(low)

    @pytest.mark.parametrize("lat,lon,alt", [
        (0.0, 0.0, 0.0),
        (45.0, 45.0, 10.0),
        (-33.9, 151.2, 0.5),
        (78.2, 15.6, 0.0),
        (-89.0, -170.0, 2.0),
    ])
    def test_round_trip(self, lat, lon, alt):
        point = GeodeticPoint(lat, lon, alt)
        recovered = ecef_to_geodetic(geodetic_to_ecef(point))
        assert recovered.latitude_deg == pytest.approx(lat, abs=1e-6)
        assert recovered.longitude_deg == pytest.approx(lon, abs=1e-6)
        assert recovered.altitude_km == pytest.approx(alt, abs=1e-6)

    def test_polar_axis_degenerate_case(self):
        point = ecef_to_geodetic(np.array([0.0, 0.0, 7000.0]))
        assert point.latitude_deg == pytest.approx(90.0)


class TestEciEcef:
    def test_identity_at_epoch(self):
        vec = np.array([7000.0, 100.0, -300.0])
        assert np.allclose(eci_to_ecef(vec, 0.0), vec)

    def test_round_trip(self):
        vec = np.array([7000.0, 100.0, -300.0])
        t = 4321.0
        assert np.allclose(ecef_to_eci(eci_to_ecef(vec, t), t), vec)

    def test_rotation_preserves_norm(self):
        vec = np.array([5000.0, 3000.0, 2000.0])
        assert np.linalg.norm(eci_to_ecef(vec, 1234.0)) == pytest.approx(
            np.linalg.norm(vec)
        )

    def test_z_axis_invariant(self):
        vec = np.array([0.0, 0.0, 7000.0])
        assert np.allclose(eci_to_ecef(vec, 5000.0), vec)

    def test_quarter_sidereal_day_rotates_90_degrees(self):
        from repro.orbits.constants import SIDEREAL_DAY_S
        vec = np.array([7000.0, 0.0, 0.0])
        rotated = eci_to_ecef(vec, SIDEREAL_DAY_S / 4.0)
        assert rotated[0] == pytest.approx(0.0, abs=1e-6)
        assert rotated[1] == pytest.approx(-7000.0, rel=1e-9)
