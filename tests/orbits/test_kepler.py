"""Tests for Kepler propagation."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_MU_KM3_S2, EARTH_RADIUS_KM
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import (
    KeplerPropagator,
    batch_positions,
    mean_motion,
    solve_kepler,
    solve_kepler_array,
    true_anomaly_from_eccentric,
)


class TestKeplerEquation:
    def test_circular_orbit_identity(self):
        # For e = 0, E = M exactly.
        for m in (0.0, 0.5, math.pi, 5.0):
            assert solve_kepler(m, 0.0) == pytest.approx(m % (2 * math.pi))

    def test_solution_satisfies_equation(self):
        for e in (0.01, 0.3, 0.7, 0.95):
            for m in (0.1, 1.0, 2.5, 4.0, 6.0):
                big_e = solve_kepler(m, e)
                assert big_e - e * math.sin(big_e) == pytest.approx(
                    m % (2 * math.pi), abs=1e-9
                )

    def test_rejects_hyperbolic_eccentricity(self):
        with pytest.raises(ValueError, match="eccentricity"):
            solve_kepler(1.0, 1.0)

    def test_true_anomaly_equals_eccentric_for_circular(self):
        assert true_anomaly_from_eccentric(1.2, 0.0) == pytest.approx(1.2)


class TestMeanMotion:
    def test_mean_motion_formula(self):
        a = EARTH_RADIUS_KM + 780.0
        assert mean_motion(a) == pytest.approx(math.sqrt(EARTH_MU_KM3_S2 / a**3))

    def test_rejects_nonpositive_axis(self):
        with pytest.raises(ValueError):
            mean_motion(0.0)


class TestPropagation:
    def test_radius_constant_for_circular_orbit(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.2)
        prop = KeplerPropagator(el)
        radii = [
            np.linalg.norm(prop.position_at(t))
            for t in np.linspace(0, el.period_s, 17)
        ]
        assert max(radii) - min(radii) < 1e-6
        assert radii[0] == pytest.approx(EARTH_RADIUS_KM + 780.0)

    def test_position_repeats_after_one_period(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0,
                                      mean_anomaly_rad=0.7)
        prop = KeplerPropagator(el)
        p0 = prop.position_at(0.0)
        p1 = prop.position_at(el.period_s)
        assert np.allclose(p0, p1, atol=1e-6)

    def test_velocity_magnitude_is_circular_speed(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.5)
        _, vel = KeplerPropagator(el).state_at(100.0)
        expected = math.sqrt(EARTH_MU_KM3_S2 / el.semi_major_axis_km)
        assert np.linalg.norm(vel) == pytest.approx(expected, rel=1e-9)

    def test_velocity_perpendicular_to_position_for_circular(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.9)
        pos, vel = KeplerPropagator(el).state_at(42.0)
        assert abs(float(pos @ vel)) < 1e-6

    def test_equatorial_orbit_stays_in_equator(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.0)
        prop = KeplerPropagator(el)
        for t in np.linspace(0, el.period_s, 9):
            assert abs(prop.position_at(float(t))[2]) < 1e-9

    def test_polar_orbit_reaches_high_z(self):
        el = OrbitalElements.circular(780.0, inclination_rad=math.pi / 2)
        prop = KeplerPropagator(el)
        z_max = max(
            abs(prop.position_at(float(t))[2])
            for t in np.linspace(0, el.period_s, 33)
        )
        assert z_max == pytest.approx(EARTH_RADIUS_KM + 780.0, rel=1e-3)

    def test_epoch_offset_shifts_phase(self):
        el0 = OrbitalElements.circular(780.0, inclination_rad=1.0, epoch_s=0.0)
        el1 = OrbitalElements.circular(780.0, inclination_rad=1.0, epoch_s=100.0)
        p0 = KeplerPropagator(el0).position_at(0.0)
        p1 = KeplerPropagator(el1).position_at(100.0)
        assert np.allclose(p0, p1)

    def test_positions_at_returns_matrix(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0)
        out = KeplerPropagator(el).positions_at(np.array([0.0, 10.0, 20.0]))
        assert out.shape == (3, 3)


class TestJ2:
    def test_j2_polar_orbit_has_no_raan_drift(self):
        # cos(90 deg) = 0 -> no nodal regression for a perfectly polar orbit.
        el = OrbitalElements.circular(780.0, inclination_rad=math.pi / 2)
        prop = KeplerPropagator(el, include_j2=True)
        assert prop._raan_dot == pytest.approx(0.0, abs=1e-15)

    def test_j2_prograde_orbit_regresses_westward(self):
        el = OrbitalElements.circular(780.0, inclination_rad=math.radians(53.0))
        prop = KeplerPropagator(el, include_j2=True)
        assert prop._raan_dot < 0.0

    def test_j2_retrograde_orbit_precesses_eastward(self):
        el = OrbitalElements.circular(780.0, inclination_rad=math.radians(98.0))
        prop = KeplerPropagator(el, include_j2=True)
        assert prop._raan_dot > 0.0

    def test_sun_synchronous_rate_is_about_one_degree_per_day(self):
        # A ~98 deg orbit at ~780 km precesses close to 0.9856 deg/day.
        el = OrbitalElements.circular(780.0, inclination_rad=math.radians(98.5))
        prop = KeplerPropagator(el, include_j2=True)
        deg_per_day = math.degrees(prop._raan_dot) * 86400.0
        assert 0.5 < deg_per_day < 1.5

    def test_j2_preserves_orbit_radius(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0)
        prop = KeplerPropagator(el, include_j2=True)
        r = np.linalg.norm(prop.position_at(5000.0))
        assert r == pytest.approx(el.semi_major_axis_km, rel=1e-9)


#: Published constants (WGS-84 radius, EGM J2), written out here so the
#: closed-form checks below share nothing with the package's values.
MU_KM3_S2 = 398600.4418
R_EARTH_KM = 6378.137
J2 = 1.08262668e-3
DAY_S = 86400.0
TROPICAL_YEAR_DAYS = 365.2422


def closed_form_raan_rate(a_km, inclination_rad):
    """Secular J2 nodal rate -(3/2) n J2 (R/p)^2 cos i, with p = a (circular)."""
    n = math.sqrt(MU_KM3_S2 / a_km**3)
    return -1.5 * n * J2 * (R_EARTH_KM / a_km) ** 2 * math.cos(inclination_rad)


def node_of_plane(propagator, t, dt_s=5.0):
    """RAAN of the plane through two propagated positions ``dt_s`` apart."""
    normal = np.cross(propagator.position_at(t),
                      propagator.position_at(t + dt_s))
    return math.atan2(normal[0], -normal[1])


def measured_raan_rate(propagator, span_s=10 * DAY_S):
    """Nodal drift over ``span_s``, rad/s, from positions alone.

    The two positions lie in planes rotated apart by the drift between
    them, so the two-point node wobbles around the mean node by up to
    the nodal rate over the mean motion (1e-4 to 1e-3 rad here).  The
    span must be long: over one day the wobble reaches ~0.5% of the
    drift, over ten days it stays under 0.1%.
    """
    drift = node_of_plane(propagator, span_s) - node_of_plane(propagator, 0.0)
    return ((drift + math.pi) % (2 * math.pi) - math.pi) / span_s


def closed_form_perigee_rate(a_km, eccentricity, inclination_rad):
    """Secular J2 apsidal rate (3/4) n J2 (R/p)^2 (5 cos^2 i - 1), with
    p = a (1 - e^2)."""
    n = math.sqrt(MU_KM3_S2 / a_km**3)
    p = a_km * (1.0 - eccentricity**2)
    return (0.75 * n * J2 * (R_EARTH_KM / p) ** 2
            * (5.0 * math.cos(inclination_rad) ** 2 - 1.0))


def perigee_instant(propagator, a_km, start_s, samples=360):
    """The minimum-radius instant of the orbit that begins at ``start_s``:
    sampled over one period, then refined by golden-section search."""
    period_s = 2.0 * math.pi / math.sqrt(MU_KM3_S2 / a_km**3)
    times = start_s + period_s * np.arange(samples + 1) / samples
    k = int(np.argmin(np.linalg.norm(propagator.positions_at(times), axis=1)))
    low, high = times[max(k - 1, 0)], times[min(k + 1, samples)]

    def radius(t):
        return float(np.linalg.norm(propagator.position_at(t)))

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        left = high - shrink * (high - low)
        right = low + shrink * (high - low)
        if radius(left) < radius(right):
            high = right
        else:
            low = left
    return 0.5 * (low + high)


def argument_of_perigee(propagator, a_km, start_s, raan_rate, dt_s=1.0):
    """``(instant, angle)`` of the first perigee after ``start_s``: the
    perigee's angle from the ascending node, in the direction of motion.

    The plane comes from the perigee position and its velocity by
    central difference, less the node's own motion ``raan_rate * z x r``:
    the raw velocity tilts the plane by up to the nodal rate over the
    mean motion (~1e-3 rad), which would not cancel between two
    perigees at different arguments.
    """
    t = perigee_instant(propagator, a_km, start_s)
    perigee = propagator.position_at(t)
    velocity = ((propagator.position_at(t + dt_s)
                 - propagator.position_at(t - dt_s)) / (2.0 * dt_s)
                - raan_rate * np.cross([0.0, 0.0, 1.0], perigee))
    normal = np.cross(perigee, velocity)
    normal /= np.linalg.norm(normal)
    node = np.array([-normal[1], normal[0], 0.0])
    return t, math.atan2(np.dot(np.cross(node, perigee), normal),
                         np.dot(node, perigee))


def measured_perigee_rate(propagator, a_km, span_s=10 * DAY_S):
    """Apsidal drift between the first perigees after 0 and ``span_s``,
    rad/s, from positions alone (the node's rate included)."""
    raan_rate = measured_raan_rate(propagator)
    t0, first = argument_of_perigee(propagator, a_km, 0.0, raan_rate)
    t1, last = argument_of_perigee(propagator, a_km, span_s, raan_rate)
    return ((last - first + math.pi) % (2 * math.pi) - math.pi) / (t1 - t0)


class TestJ2ClosedForm:
    @pytest.mark.parametrize("altitude_km, inclination_deg", [
        (780.0, 53.0),
        (780.0, 98.5),
        (550.0, 30.0),
        (1200.0, 120.0),
    ])
    def test_raan_drift_matches_secular_rate(self, altitude_km,
                                             inclination_deg):
        a = R_EARTH_KM + altitude_km
        inclination = math.radians(inclination_deg)
        prop = KeplerPropagator(
            OrbitalElements(semi_major_axis_km=a, inclination_rad=inclination),
            include_j2=True,
        )
        assert measured_raan_rate(prop) == pytest.approx(
            closed_form_raan_rate(a, inclination), rel=1e-3
        )

    def test_sun_synchronous_inclination_tracks_the_sun(self):
        a = R_EARTH_KM + 780.0
        sun_rate = 2 * math.pi / (TROPICAL_YEAR_DAYS * DAY_S)
        # Solve the closed form for the inclination whose node follows
        # the mean sun: 360 deg per tropical year.
        inclination = math.acos(sun_rate / closed_form_raan_rate(a, 0.0))
        assert math.degrees(inclination) == pytest.approx(98.52, abs=0.01)
        prop = KeplerPropagator(
            OrbitalElements(semi_major_axis_km=a, inclination_rad=inclination),
            include_j2=True,
        )
        assert measured_raan_rate(prop) == pytest.approx(sun_rate, rel=1e-3)

    @pytest.mark.parametrize("a_km, eccentricity, inclination_deg", [
        (7500.0, 0.05, 40.0),
        (7000.0, 0.02, 98.0),
        (8000.0, 0.1, 20.0),
    ])
    def test_perigee_drift_matches_secular_rate(self, a_km, eccentricity,
                                                inclination_deg):
        inclination = math.radians(inclination_deg)
        prop = KeplerPropagator(
            OrbitalElements(semi_major_axis_km=a_km, eccentricity=eccentricity,
                            inclination_rad=inclination, raan_rad=0.7,
                            arg_perigee_rad=1.1, mean_anomaly_rad=2.0),
            include_j2=True,
        )
        # Measured within ~3e-7 here; (R/a)^2 in place of (R/p)^2 is off
        # by 8e-4 even at e = 0.02.
        assert measured_perigee_rate(prop, a_km) == pytest.approx(
            closed_form_perigee_rate(a_km, eccentricity, inclination),
            rel=1e-5,
        )

    def test_perigee_freezes_at_the_critical_inclination(self):
        inclination = math.acos(math.sqrt(1.0 / 5.0))
        assert math.degrees(inclination) == pytest.approx(63.43, abs=0.01)
        prop = KeplerPropagator(
            OrbitalElements(semi_major_axis_km=7500.0, eccentricity=0.05,
                            inclination_rad=inclination, raan_rad=0.7,
                            arg_perigee_rad=1.1, mean_anomaly_rad=2.0),
            include_j2=True,
        )
        assert abs(measured_perigee_rate(prop, 7500.0)) < 1e-11


class TestShapeContracts:
    """The (T, 3) contract: positions_at always returns a matrix."""

    def _prop(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0)
        return KeplerPropagator(el)

    def test_scalar_time_yields_one_row(self):
        out = self._prop().positions_at(120.0)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], self._prop().position_at(120.0))

    def test_python_int_time_yields_one_row(self):
        assert self._prop().positions_at(0).shape == (1, 3)

    def test_empty_time_array_yields_zero_rows(self):
        out = self._prop().positions_at(np.array([]))
        assert out.shape == (0, 3)

    def test_list_input_matches_array_input(self):
        prop = self._prop()
        from_list = prop.positions_at([0.0, 60.0])
        from_array = prop.positions_at(np.array([0.0, 60.0]))
        assert from_list.shape == (2, 3)
        assert np.array_equal(from_list, from_array)

    def test_multidimensional_times_rejected(self):
        with pytest.raises(ValueError, match="scalar or 1-D"):
            self._prop().positions_at(np.zeros((2, 2)))

    def test_batch_positions_shape_and_agreement(self):
        props = [self._prop(), self._prop()]
        times = np.array([0.0, 300.0, 600.0])
        batched = batch_positions(props, times)
        assert batched.shape == (2, 3, 3)
        for i, prop in enumerate(props):
            assert np.allclose(batched[i], prop.positions_at(times),
                               atol=1e-9)

    def test_batch_positions_empty_fleet(self):
        assert batch_positions([], np.array([0.0, 1.0])).shape == (0, 2, 3)

    def test_solve_kepler_array_matches_scalar(self):
        mean_anomalies = np.linspace(0.0, 2.0 * math.pi, 17)
        for ecc in (0.0, 0.01, 0.3, 0.85):
            vectorized = solve_kepler_array(mean_anomalies, ecc)
            scalar = np.array([solve_kepler(m, ecc) for m in mean_anomalies])
            assert np.allclose(vectorized, scalar, atol=1e-9)

    def test_solve_kepler_array_preserves_input_shape(self):
        grid = np.linspace(0.0, 6.0, 12).reshape(3, 4)
        assert solve_kepler_array(grid, 0.1).shape == (3, 4)


class TestBitwiseShapeIndependence:
    """Grid width must not change a single bit of any solved state.

    The batched epoch engine concatenates trials and primes whole grids,
    so the same (satellite, time) pair gets solved through 1-wide,
    T-wide, and fleet-flattened paths — all of which must agree exactly
    (elementwise ufuncs are exactly rounded and the frame rotation runs
    through a materialized-contiguous matrix; see ``_batch_states_flat``).
    """

    def _props(self, count=5):
        return [
            KeplerPropagator(OrbitalElements.circular(
                500.0 + 60.0 * i, inclination_rad=0.3 + 0.2 * i,
                raan_rad=0.5 * i, mean_anomaly_rad=0.9 * i,
            ))
            for i in range(count)
        ]

    def test_grid_solve_bitwise_equals_per_time(self):
        times = np.linspace(0.0, 7200.0, 9)
        for prop in self._props():
            grid = prop.positions_at(times)
            for k, t in enumerate(times):
                assert np.array_equal(grid[k], prop.positions_at(float(t))[0])

    def test_batch_positions_bitwise_equals_per_satellite(self):
        props = self._props()
        times = np.linspace(0.0, 7200.0, 6)
        batched = batch_positions(props, times)
        for i, prop in enumerate(props):
            assert np.array_equal(batched[i], prop.positions_at(times))

    def test_batch_positions_bitwise_independent_of_fleet_size(self):
        # The flat path lumps every (satellite, time) pair into one array;
        # slicing a bigger fleet must reproduce a smaller one's bits.
        props = self._props(7)
        times = np.linspace(0.0, 3600.0, 4)
        full = batch_positions(props, times)
        subset = batch_positions(props[:3], times)
        assert np.array_equal(full[:3], subset)

    def test_states_at_velocities_bitwise_stable(self):
        prop = self._props(1)[0]
        times = np.linspace(0.0, 5400.0, 5)
        _, velocities = prop.states_at(times)
        for k, t in enumerate(times):
            _, single = prop.states_at(float(t))
            assert np.array_equal(velocities[k], single[0])
