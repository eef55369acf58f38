"""Property-based tests for the orbital substrate."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci, geodetic_to_ecef
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions, solve_kepler_array
from repro.orbits.tle import tle_from_elements
from repro.orbits.visibility import (
    chord_clears_grazing,
    elevation_angle,
    footprint_area_km2,
    footprint_half_angle,
    line_of_sight_mask,
)
from tests.orbits.oracle import ecef_to_geodetic, eci_to_ecef
from tests.orbits.tle_oracle import elements_from_tle

altitudes = st.floats(min_value=300.0, max_value=2000.0)
angles = st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9)
inclinations = st.floats(min_value=0.0, max_value=math.pi)
times = st.floats(min_value=0.0, max_value=86400.0)


def position_at(elements, time_s):
    """One satellite's ECI position at one time, ``(3,)``."""
    return batch_positions(KeplerFleet([elements]), time_s)[0, 0]


class TestKeplerProperties:
    @given(m=st.floats(min_value=0.0, max_value=2 * math.pi),
           e=st.floats(min_value=0.0, max_value=0.95))
    def test_kepler_solution_satisfies_equation(self, m, e):
        (big_e,) = solve_kepler_array(np.array([m]), e)
        # The solver wraps M into [0, 2pi); compare in the same revolution.
        residual = (big_e - e * math.sin(big_e) - m) % (2 * math.pi)
        assert min(residual, 2 * math.pi - residual) < 1e-8

    @given(alt=altitudes, incl=inclinations, raan=angles, anomaly=angles,
           t=times)
    @settings(max_examples=50)
    def test_circular_orbit_radius_invariant(self, alt, incl, raan, anomaly, t):
        el = OrbitalElements.circular(alt, incl, raan, anomaly)
        pos = position_at(el, t)
        assert np.linalg.norm(pos) == pytest.approx(
            EARTH_RADIUS_KM + alt, rel=1e-9
        )

    @given(alt=altitudes, incl=inclinations, t=times)
    @settings(max_examples=30)
    def test_z_bounded_by_inclination(self, alt, incl, t):
        el = OrbitalElements.circular(alt, incl)
        pos = position_at(el, t)
        max_z = (EARTH_RADIUS_KM + alt) * abs(math.sin(incl)) + 1e-6
        assert abs(pos[2]) <= max_z

    @given(alt=altitudes, incl=inclinations, raan=angles, anomaly=angles)
    @settings(max_examples=30)
    def test_period_brings_satellite_back(self, alt, incl, raan, anomaly):
        el = OrbitalElements.circular(alt, incl, raan, anomaly)
        assert np.allclose(
            position_at(el, 0.0), position_at(el, el.period_s), atol=1e-5
        )


class TestCoordinateProperties:
    @given(lat=st.floats(min_value=-89.9, max_value=89.9),
           lon=st.floats(min_value=-179.9, max_value=179.9),
           alt=st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=60)
    def test_geodetic_round_trip(self, lat, lon, alt):
        point = GeodeticPoint(lat, lon, alt)
        recovered = ecef_to_geodetic(geodetic_to_ecef(point))
        assert recovered.latitude_deg == pytest.approx(lat, abs=1e-6)
        assert recovered.longitude_deg == pytest.approx(lon, abs=1e-6)
        assert recovered.altitude_km == pytest.approx(alt, abs=1e-5)

    @given(x=st.floats(min_value=-9000, max_value=9000),
           y=st.floats(min_value=-9000, max_value=9000),
           z=st.floats(min_value=-9000, max_value=9000),
           t=times)
    @settings(max_examples=60)
    def test_eci_ecef_round_trip_and_isometry(self, x, y, z, t):
        vec = np.array([x, y, z])
        rotated = eci_to_ecef(vec, t)
        assert np.linalg.norm(rotated) == pytest.approx(
            np.linalg.norm(vec), abs=1e-6
        )
        assert np.allclose(ecef_to_eci(rotated, t), vec, atol=1e-6)


class TestVisibilityProperties:
    @given(alt=altitudes,
           mask=st.floats(min_value=0.0, max_value=45.0))
    def test_footprint_shrinks_with_mask(self, alt, mask):
        assert footprint_half_angle(alt, mask) <= footprint_half_angle(alt, 0.0)

    @given(alt=altitudes, mask=st.floats(min_value=0.0, max_value=60.0))
    def test_footprint_area_positive_and_bounded(self, alt, mask):
        area = footprint_area_km2(alt, mask)
        assert 0.0 < area < 2 * math.pi * EARTH_RADIUS_KM**2

    @given(alt=altitudes, theta=st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=60)
    def test_los_symmetric(self, alt, theta):
        r = EARTH_RADIUS_KM + alt
        a = np.array([r, 0.0, 0.0])
        b = r * np.array([math.cos(theta), math.sin(theta), 0.0])
        assert line_of_sight_mask(a, b) == line_of_sight_mask(b, a)


class TestFootprintClosedForm:
    """The footprint against its geometry: a ground point on the cap's
    edge sees the satellite at the mask elevation, and the cap's area is
    the spherical-cap formula."""

    ALTITUDES_KM = (300.0, 550.0, 780.0, 1200.0, 2000.0, 35786.0)
    MASKS_DEG = (0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0)

    def test_cap_edge_sees_the_satellite_at_the_mask(self):
        # The sub-satellite point is off every axis so no coordinate of
        # the geometry is exactly zero.
        zenith = np.array([0.3, -0.5, 0.8])
        zenith /= np.linalg.norm(zenith)
        east = np.cross([0.0, 0.0, 1.0], zenith)
        east /= np.linalg.norm(east)
        for altitude in self.ALTITUDES_KM:
            satellite = (EARTH_RADIUS_KM + altitude) * zenith
            for mask in self.MASKS_DEG:
                half_angle = footprint_half_angle(altitude, mask)
                ground = EARTH_RADIUS_KM * (math.cos(half_angle) * zenith
                                            + math.sin(half_angle) * east)
                elevation = elevation_angle(ground, satellite)
                assert abs(elevation - math.radians(mask)) <= 1e-12, (
                    altitude, mask)

    def test_area_is_the_spherical_cap(self):
        radius_km = 6378.137
        for altitude in self.ALTITUDES_KM:
            for mask in self.MASKS_DEG:
                half_angle = footprint_half_angle(altitude, mask)
                cap = (2.0 * math.pi * radius_km**2
                       * (1.0 - math.cos(half_angle)))
                assert footprint_area_km2(altitude, mask) == pytest.approx(
                    cap, rel=1e-12, abs=0.0)


def _unit_rows(rng, count):
    rows = rng.normal(size=(count, 3))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _symmetric_pairs(rng, count, radius, length):
    """Pairs at ``radius``, ``length`` apart, symmetric about the
    segment's closest approach to the Earth's centre."""
    along = _unit_rows(rng, count)
    # Gram-Schmidt a second direction orthogonal to the first.
    across = _unit_rows(rng, count)
    across -= (across * along).sum(axis=-1, keepdims=True) * along
    across /= np.linalg.norm(across, axis=-1, keepdims=True)
    depth = math.sqrt(radius * radius - 0.25 * length * length)
    middle = depth * along
    return middle + 0.5 * length * across, middle - 0.5 * length * across


class TestChordBound:
    """:func:`chord_clears_grazing` against :func:`line_of_sight_mask`."""

    @given(radius=st.floats(min_value=EARTH_RADIUS_KM + 100.0,
                            max_value=EARTH_RADIUS_KM + 2500.0),
           length=st.floats(min_value=100.0, max_value=12000.0),
           grazing=st.sampled_from([0.0, 80.0, 400.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_certified_segments_all_clear(self, radius, length, grazing,
                                          seed):
        assume(chord_clears_grazing(radius, length, grazing))
        rng = np.random.default_rng(seed)
        # Random pairs, plus the worst case: both ends at the lowest
        # radius, the longest length, symmetric about the closest point.
        a = _unit_rows(rng, 400) * (radius + rng.uniform(0.0, 3000.0,
                                                         (400, 1)))
        b = a + (_unit_rows(rng, 400)
                 * rng.uniform(0.0, length, (400, 1)))
        worst_a, worst_b = _symmetric_pairs(rng, 50, radius * (1 + 1e-12),
                                            length * (1 - 1e-12))
        a = np.concatenate([a, worst_a])
        b = np.concatenate([b, worst_b])

        def norm(rows):
            return np.sqrt((rows * rows).sum(axis=-1))

        kept = (norm(a) >= radius) & (norm(b) >= radius) & (
            norm(a - b) <= length)
        assert kept[-50:].all()
        assert line_of_sight_mask(a[kept], b[kept], grazing).all()

    @pytest.mark.parametrize("altitude", [550.0, 780.0, 1200.0])
    def test_bound_is_tight_at_the_chord(self, altitude):
        radius = EARTH_RADIUS_KM + altitude
        limit = EARTH_RADIUS_KM + 80.0
        chord = 2.0 * math.sqrt(radius * radius - limit * limit)
        assert chord_clears_grazing(radius, chord * (1.0 - 1e-6))
        longer = chord * (1.0 + 1e-6)
        assert not chord_clears_grazing(radius, longer)
        a, b = _symmetric_pairs(np.random.default_rng(3), 20, radius,
                                longer)
        assert not line_of_sight_mask(a, b).any()

    def test_paper_settings(self):
        # The Figure 2(b) relay graph: a 6,000 km cap at 780 km is
        # certified (the chord is ~6,175 km), at 550 km it is not.
        assert chord_clears_grazing(EARTH_RADIUS_KM + 780.0, 6000.0)
        assert not chord_clears_grazing(EARTH_RADIUS_KM + 550.0, 6000.0)


class TestTleProperties:
    @given(alt=altitudes, incl=st.floats(min_value=0.01, max_value=math.pi - 0.01),
           raan=st.floats(min_value=0.0, max_value=2 * math.pi - 0.01),
           anomaly=st.floats(min_value=0.0, max_value=2 * math.pi - 0.01))
    @settings(max_examples=40)
    def test_round_trip_preserves_geometry(self, alt, incl, raan, anomaly):
        el = OrbitalElements.circular(alt, incl, raan, anomaly)
        recovered = elements_from_tle(tle_from_elements(el))
        assert recovered.semi_major_axis_km == pytest.approx(
            el.semi_major_axis_km, abs=0.05
        )
        assert recovered.inclination_rad == pytest.approx(
            el.inclination_rad, abs=1e-4
        )
        assert recovered.raan_rad == pytest.approx(el.raan_rad, abs=1e-3)
