"""Tests for Kepler propagation: every position comes from one stacked
fleet through :func:`~repro.orbits.kepler.batch_positions`."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_MU_KM3_S2, EARTH_RADIUS_KM
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import (
    KeplerFleet,
    batch_positions,
    solve_kepler_array,
    true_anomaly_from_eccentric_array,
)
from tests.orbits.oracle import KeplerPropagator, solve_kepler


def track(elements, times_s):
    """One satellite's ECI positions over ``times_s``, ``(T, 3)``."""
    return batch_positions(KeplerFleet([elements]), times_s)[0]


class TestKeplerEquation:
    def test_circular_orbit_identity(self):
        # For e = 0, E = M exactly.
        m = np.array([0.0, 0.5, math.pi, 5.0])
        assert np.array_equal(solve_kepler_array(m, 0.0), m % (2 * math.pi))

    def test_solution_satisfies_equation(self):
        m = np.array([0.1, 1.0, 2.5, 4.0, 6.0])
        for e in (0.01, 0.3, 0.7, 0.95):
            big_e = solve_kepler_array(m, e)
            assert np.allclose(big_e - e * np.sin(big_e), m % (2 * math.pi),
                               rtol=0.0, atol=1e-9)

    def test_rejects_hyperbolic_eccentricity(self):
        with pytest.raises(ValueError, match="eccentricity"):
            solve_kepler_array(np.array([1.0]), 1.0)

    def test_true_anomaly_equals_eccentric_for_circular(self):
        (nu,) = true_anomaly_from_eccentric_array(np.array([1.2]), 0.0)
        assert nu == pytest.approx(1.2)


class TestMeanMotion:
    def test_mean_motion_formula(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.0)
        a = EARTH_RADIUS_KM + 780.0
        assert el.mean_motion_rad_s == pytest.approx(
            math.sqrt(EARTH_MU_KM3_S2 / a**3))


class TestPropagation:
    def test_radius_constant_for_circular_orbit(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.2)
        radii = np.linalg.norm(track(el, np.linspace(0, el.period_s, 17)),
                               axis=1)
        assert radii.max() - radii.min() < 1e-6
        assert radii[0] == pytest.approx(EARTH_RADIUS_KM + 780.0)

    def test_position_repeats_after_one_period(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0,
                                      mean_anomaly_rad=0.7)
        p0, p1 = track(el, [0.0, el.period_s])
        assert np.allclose(p0, p1, atol=1e-6)

    def test_velocity_magnitude_is_circular_speed(self):
        # The track's speed, by a central difference 10 ms wide (the
        # chord is shorter than the arc by a relative 4e-12 here).
        el = OrbitalElements.circular(780.0, inclination_rad=0.5)
        before, after = track(el, [99.995, 100.005])
        expected = math.sqrt(EARTH_MU_KM3_S2 / el.semi_major_axis_km)
        assert np.linalg.norm(after - before) / 0.01 == pytest.approx(
            expected, rel=1e-7)

    def test_velocity_perpendicular_to_position_for_circular(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.9)
        before, position, after = track(el, [41.995, 42.0, 42.005])
        velocity = (after - before) / 0.01
        cosine = float(position @ velocity) / (
            np.linalg.norm(position) * np.linalg.norm(velocity))
        assert abs(cosine) < 1e-9

    def test_equatorial_orbit_stays_in_equator(self):
        el = OrbitalElements.circular(780.0, inclination_rad=0.0)
        z = track(el, np.linspace(0, el.period_s, 9))[:, 2]
        assert np.abs(z).max() < 1e-9

    def test_polar_orbit_reaches_high_z(self):
        el = OrbitalElements.circular(780.0, inclination_rad=math.pi / 2)
        z_max = np.abs(track(el, np.linspace(0, el.period_s, 33))[:, 2]).max()
        assert z_max == pytest.approx(EARTH_RADIUS_KM + 780.0, rel=1e-3)

    def test_epoch_offset_shifts_phase(self):
        el0 = OrbitalElements.circular(780.0, inclination_rad=1.0, epoch_s=0.0)
        el1 = OrbitalElements.circular(780.0, inclination_rad=1.0, epoch_s=100.0)
        positions = batch_positions(KeplerFleet([el0, el1]), [0.0, 100.0])
        assert np.allclose(positions[0, 0], positions[1, 1])

    def test_positions_at_returns_matrix(self):
        el = OrbitalElements.circular(780.0, inclination_rad=1.0)
        assert track(el, np.array([0.0, 10.0, 20.0])).shape == (3, 3)


class TestShapeContracts:
    """The ``(N, T, 3)`` contract: batch_positions always returns a grid."""

    def _fleet(self):
        return KeplerFleet([OrbitalElements.circular(780.0,
                                                     inclination_rad=1.0)])

    def test_scalar_time_yields_one_row(self):
        out = batch_positions(self._fleet(), 120.0)
        assert out.shape == (1, 1, 3)
        assert np.array_equal(out, batch_positions(self._fleet(), [120.0]))

    def test_python_int_time_yields_one_row(self):
        assert batch_positions(self._fleet(), 0).shape == (1, 1, 3)

    def test_empty_time_array_yields_zero_rows(self):
        out = batch_positions(self._fleet(), np.array([]))
        assert out.shape == (1, 0, 3)

    def test_list_input_matches_array_input(self):
        fleet = self._fleet()
        from_list = batch_positions(fleet, [0.0, 60.0])
        from_array = batch_positions(fleet, np.array([0.0, 60.0]))
        assert from_list.shape == (1, 2, 3)
        assert np.array_equal(from_list, from_array)

    def test_multidimensional_times_rejected(self):
        with pytest.raises(ValueError, match="scalar or 1-D"):
            batch_positions(self._fleet(), np.zeros((2, 2)))

    def test_batch_positions_shape_and_agreement(self):
        elements = self._fleet().elements * 2
        times = np.array([0.0, 300.0, 600.0])
        batched = batch_positions(KeplerFleet(elements), times)
        assert batched.shape == (2, 3, 3)
        for i, el in enumerate(elements):
            assert np.allclose(batched[i],
                               KeplerPropagator(el).positions_at(times),
                               atol=1e-9)

    def test_batch_positions_empty_fleet(self):
        fleet = KeplerFleet([])
        assert batch_positions(fleet, np.array([0.0, 1.0])).shape == (0, 2, 3)

    def test_batch_positions_multidimensional_times_rejected(self):
        # The times are checked before an empty fleet returns early.
        with pytest.raises(ValueError, match="scalar or 1-D"):
            batch_positions(KeplerFleet([]), np.zeros((2, 2)))

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
    """Fleet size and grid width must not change a single bit.

    Sweeps propagate whole epoch grids, networks one instant at a time,
    beacon ranking every heard beacon at once and contact-edge bisection
    one satellite at one time, so the same (satellite, time) pair gets
    solved through 1-wide, T-wide and fleet-flattened calls -- all of
    which must agree exactly, and equal the per-satellite solve kept in
    ``tests/orbits/oracle.py`` (elementwise ufuncs are
    shape-independent and the frame rotation runs through
    materialized-contiguous matrices; see ``KeplerFleet``).
    """

    def _elements(self, count=5):
        return [
            OrbitalElements.circular(
                500.0 + 60.0 * i, inclination_rad=0.3 + 0.2 * i,
                raan_rad=0.5 * i, mean_anomaly_rad=0.9 * i,
            )
            for i in range(count)
        ]

    def test_grid_solve_bitwise_equals_per_time(self):
        # A whole fleet's grid against one satellite at one time.
        elements = self._elements()
        times = np.linspace(0.0, 7200.0, 9)
        grid = batch_positions(KeplerFleet(elements), times)
        for i, el in enumerate(elements):
            for k, t in enumerate(times):
                assert np.array_equal(grid[i, k], track(el, float(t))[0])

    def test_batch_positions_bitwise_equals_per_satellite(self):
        elements = self._elements()
        times = np.linspace(0.0, 7200.0, 6)
        batched = batch_positions(KeplerFleet(elements), times)
        for i, el in enumerate(elements):
            assert np.array_equal(batched[i],
                                  KeplerPropagator(el).positions_at(times))

    def test_batch_positions_bitwise_independent_of_fleet_size(self):
        # The flat path lumps every (satellite, time) pair into one array;
        # slicing a bigger fleet must reproduce a smaller one's bits.
        elements = self._elements(7)
        times = np.linspace(0.0, 3600.0, 4)
        full = batch_positions(KeplerFleet(elements), times)
        subset = batch_positions(KeplerFleet(elements[:3]), times)
        assert np.array_equal(full[:3], subset)

    def test_batch_positions_bitwise_independent_of_grid_width(self):
        # A fleet stacked once serves a grid and its columns alike.
        fleet = KeplerFleet(self._elements(7))
        times = np.linspace(0.0, 3600.0, 5)
        grid = batch_positions(fleet, times)
        for k, t in enumerate(times):
            assert np.array_equal(grid[:, k], batch_positions(fleet, t)[:, 0])
