"""Tests for visibility, footprints, and coverage estimators."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_RADIUS_KM, EARTH_SURFACE_AREA_KM2
from repro.orbits.coordinates import GeodeticPoint, geodetic_to_ecef
from repro.orbits.visibility import (
    cluster_coverage_fraction,
    coverage_fraction,
    elevation_angle,
    footprint_area_km2,
    footprint_half_angle,
    line_of_sight_mask,
    slant_range,
    surface_grid,
    worst_case_coverage_fraction,
)

R = EARTH_RADIUS_KM
ALT = 780.0


def sat_at(lat_deg, lon_deg, altitude_km=ALT):
    """Position vector over a given ground point."""
    return geodetic_to_ecef(GeodeticPoint(lat_deg, lon_deg, altitude_km))


class TestSlantRange:
    def test_simple_distance(self):
        assert slant_range([0, 0, 0], [3, 4, 0]) == pytest.approx(5.0)

    def test_symmetric(self):
        a, b = np.array([1.0, 2, 3]), np.array([4.0, 5, 6])
        assert slant_range(a, b) == slant_range(b, a)


class TestLineOfSight:
    def test_adjacent_satellites_have_los(self):
        # 40 degrees apart at 780 km: the chord stays above the atmosphere
        # (the LOS limit at this altitude is ~51 degrees of separation).
        a = np.array([R + ALT, 0.0, 0.0])
        theta = math.radians(40.0)
        b = (R + ALT) * np.array([math.cos(theta), math.sin(theta), 0.0])
        assert line_of_sight_mask(a, b)

    def test_quarter_orbit_separation_blocked(self):
        # 90 degrees apart the chord dips to (R+ALT)/sqrt(2) < R: blocked.
        a = np.array([R + ALT, 0.0, 0.0])
        b = np.array([0.0, R + ALT, 0.0])
        assert not line_of_sight_mask(a, b)

    def test_antipodal_satellites_blocked(self):
        a = np.array([R + ALT, 0.0, 0.0])
        b = np.array([-(R + ALT), 0.0, 0.0])
        assert not line_of_sight_mask(a, b)

    def test_grazing_altitude_tightens_the_test(self):
        # A pair whose ray grazes just above the default limit fails a
        # stricter limit.
        a = np.array([R + ALT, 0.0, 0.0])
        theta = 2.0 * math.acos((R + 100.0) / (R + ALT))
        b = (R + ALT) * np.array([math.cos(theta), math.sin(theta), 0.0])
        assert line_of_sight_mask(a, b, grazing_altitude_km=80.0)
        assert not line_of_sight_mask(a, b, grazing_altitude_km=150.0)

    def test_same_position(self):
        a = np.array([R + ALT, 0.0, 0.0])
        assert line_of_sight_mask(a, a)


class TestElevation:
    def test_zenith(self):
        ground = geodetic_to_ecef(GeodeticPoint(10.0, 20.0, 0.0))
        sat = sat_at(10.0, 20.0)
        assert elevation_angle(ground, sat) == pytest.approx(
            math.pi / 2, abs=0.01
        )

    def test_far_satellite_below_horizon(self):
        ground = geodetic_to_ecef(GeodeticPoint(0.0, 0.0, 0.0))
        sat = sat_at(0.0, 120.0)
        assert elevation_angle(ground, sat) < 0.0


class TestFootprint:
    def test_half_angle_at_zero_elevation(self):
        lam = footprint_half_angle(ALT, 0.0)
        assert lam == pytest.approx(math.acos(R / (R + ALT)))

    def test_half_angle_shrinks_with_mask(self):
        assert footprint_half_angle(ALT, 25.0) < footprint_half_angle(ALT, 0.0)

    def test_higher_altitude_bigger_footprint(self):
        assert footprint_half_angle(1200.0) > footprint_half_angle(400.0)

    def test_rejects_nonpositive_altitude(self):
        with pytest.raises(ValueError):
            footprint_half_angle(0.0)

    def test_area_formula(self):
        lam = footprint_half_angle(ALT)
        expected = 2 * math.pi * R * R * (1 - math.cos(lam))
        assert footprint_area_km2(ALT) == pytest.approx(expected)

    def test_iridium_footprint_about_five_percent(self):
        assert footprint_area_km2(ALT) / EARTH_SURFACE_AREA_KM2 == pytest.approx(
            0.0545, abs=0.005
        )


class TestWorstCaseCoverage:
    def test_single_satellite(self):
        pos = np.array([[R + ALT, 0.0, 0.0]])
        expected = footprint_area_km2(ALT) / EARTH_SURFACE_AREA_KM2
        assert worst_case_coverage_fraction(pos, ALT) == pytest.approx(expected)

    def test_two_identical_positions_count_once(self):
        p = np.array([R + ALT, 0.0, 0.0])
        single = worst_case_coverage_fraction(np.array([p]), ALT)
        double = worst_case_coverage_fraction(np.array([p, p]), ALT)
        assert double == pytest.approx(single)

    def test_two_antipodal_count_twice(self):
        p = np.array([R + ALT, 0.0, 0.0])
        both = worst_case_coverage_fraction(np.array([p, -p]), ALT)
        one = worst_case_coverage_fraction(np.array([p]), ALT)
        assert both == pytest.approx(2 * one)

    def test_empty_fleet(self):
        assert worst_case_coverage_fraction(np.zeros((0, 3)), ALT) == 0.0

    def test_never_exceeds_one(self, rng):
        from repro.orbits.walker import random_constellation
        c = random_constellation(100, rng)
        assert worst_case_coverage_fraction(c.positions_at(0.0), ALT) <= 1.0

    def test_cluster_reading_lower_bounds_greedy(self, rng):
        from repro.orbits.walker import random_constellation
        c = random_constellation(30, rng)
        pos = c.positions_at(0.0)
        assert (cluster_coverage_fraction(pos, ALT)
                <= worst_case_coverage_fraction(pos, ALT) + 1e-12)


class TestUnionCoverage:
    def test_empty_fleet(self):
        assert coverage_fraction(np.zeros((0, 3)), ALT) == 0.0

    def test_single_satellite_close_to_cap_fraction(self):
        pos = np.array([[R + ALT, 0.0, 0.0]])
        expected = footprint_area_km2(ALT) / EARTH_SURFACE_AREA_KM2
        assert coverage_fraction(pos, ALT, grid_resolution=48) == pytest.approx(
            expected, abs=0.01
        )

    def test_iridium_constellation_covers_earth(self, iridium):
        cov = coverage_fraction(iridium.positions_at(0.0), ALT)
        assert cov > 0.99

    def test_coverage_monotone_in_fleet_size(self, rng):
        from repro.orbits.walker import random_constellation
        c = random_constellation(60, rng)
        pos = c.positions_at(0.0)
        cov_small = coverage_fraction(pos[:10], ALT)
        cov_large = coverage_fraction(pos, ALT)
        assert cov_large >= cov_small

    def test_union_at_least_worst_case(self, rng):
        from repro.orbits.walker import random_constellation
        c = random_constellation(40, rng)
        pos = c.positions_at(0.0)
        assert (coverage_fraction(pos, ALT, grid_resolution=48)
                >= worst_case_coverage_fraction(pos, ALT) - 0.05)


class TestSurfaceGrid:
    def test_weights_sum_to_one(self):
        _points, weights = surface_grid(24)
        assert weights.sum() == pytest.approx(1.0)

    def test_points_are_unit_vectors(self):
        points, _weights = surface_grid(16)
        assert np.allclose(np.linalg.norm(points, axis=1), 1.0)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            surface_grid(1)
