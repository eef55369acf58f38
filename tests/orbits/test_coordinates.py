"""Tests for coordinate transforms."""

import math

import numpy as np
import pytest

from repro.ground.station import GroundStation
from repro.ground.user import UserTerminal
from repro.orbits.constants import EARTH_POLAR_RADIUS_KM, EARTH_RADIUS_KM
from repro.orbits.coordinates import (
    GeodeticPoint,
    ecef_to_eci,
    geodetic_points_to_eci,
    geodetic_to_ecef,
)
from tests.orbits.oracle import ecef_to_geodetic, eci_to_ecef


class TestGeodeticPoint:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError, match="latitude"):
            GeodeticPoint(91.0, 0.0)
        with pytest.raises(ValueError, match="latitude"):
            GeodeticPoint(-90.5, 0.0)


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


class TestBatchedGroundPositions:
    """One array conversion and one rotation place every ground row of
    the access-link pricer; each row must equal the terminal's own
    ``position_eci`` bit for bit, or snapshot digests would move."""

    @staticmethod
    def _sites():
        edges = [
            GeodeticPoint(90.0, 0.0), GeodeticPoint(-90.0, 37.0),
            GeodeticPoint(90.0, 180.0, 0.4), GeodeticPoint(-90.0, -180.0),
            GeodeticPoint(0.0, 180.0), GeodeticPoint(0.0, -180.0),
            GeodeticPoint(12.5, 179.99999999), GeodeticPoint(-33.0, -179.9999),
            GeodeticPoint(89.9999999, -45.0, 2.5),
            GeodeticPoint(0.0, 0.0, -0.43), GeodeticPoint(51.5, -0.1, 8.848),
        ]
        rng = np.random.default_rng(11)
        randoms = [
            GeodeticPoint(float(lat), float(lon), float(alt))
            for lat, lon, alt in zip(rng.uniform(-90.0, 90.0, 300),
                                     rng.uniform(-180.0, 180.0, 300),
                                     rng.choice([0.0, 0.01, 1.2, 35.0], 300))
        ]
        return edges + randoms

    @pytest.mark.parametrize("time_s", [
        0.0, 1.5, 3600.0, 3.3 * 86400.0, 7.0 * 86400.0 + 0.125, 1e6,
    ])
    def test_rows_equal_each_terminal_bit_for_bit(self, time_s):
        sites = self._sites()
        grounds = [
            GroundStation(f"gs{k}", site, "op") if k % 3 == 0
            else UserTerminal(f"u{k}", site, "op")
            for k, site in enumerate(sites)
        ]
        batched = geodetic_points_to_eci(sites, time_s)
        expected = np.stack([g.position_eci(time_s) for g in grounds])
        assert batched.shape == (len(sites), 3)
        assert batched.tobytes() == expected.tobytes()

    def test_empty(self):
        assert geodetic_points_to_eci([], 10.0).shape == (0, 3)
