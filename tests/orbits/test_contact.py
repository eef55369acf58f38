"""Tests for contact-window prediction."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_ROTATION_RAD_S
from repro.orbits.contact import ContactWindow, contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerPropagator


@pytest.fixture(scope="module")
def equatorial_prop():
    """An equatorial orbit passing over the (0, 0) ground point at epoch."""
    el = OrbitalElements.circular(780.0, inclination_rad=0.0)
    return KeplerPropagator(el)


class TestContactWindow:
    def test_duration_and_contains(self):
        w = ContactWindow(0, 100.0, 400.0, 1.0)
        assert w.duration_s == 300.0
        assert w.contains(100.0)
        assert w.contains(250.0)
        assert not w.contains(401.0)


class TestContactWindows:
    def test_equatorial_pass_detected(self, equatorial_prop):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_prop], 0.0, 3000.0,
            step_s=10.0, min_elevation_deg=10.0,
        )
        assert len(windows) >= 1
        first = windows[0]
        # The satellite starts overhead, so the first window starts at 0.
        assert first.start_s == pytest.approx(0.0, abs=1.0)
        assert first.max_elevation_rad > math.radians(60.0)

    def test_window_durations_are_minutes_scale(self, equatorial_prop):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_prop], 0.0, 12000.0, step_s=10.0,
        )
        for w in windows:
            assert 60.0 < w.duration_s < 1500.0

    def test_polar_ground_station_never_sees_equatorial_orbit(self, equatorial_prop):
        ground = GeodeticPoint(85.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_prop], 0.0, 6100.0, step_s=30.0,
        )
        assert windows == []

    def test_higher_mask_gives_shorter_windows(self, equatorial_prop):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        loose = contact_windows(ground, [equatorial_prop], 0.0, 3000.0,
                                min_elevation_deg=5.0)
        tight = contact_windows(ground, [equatorial_prop], 0.0, 3000.0,
                                min_elevation_deg=40.0)
        assert sum(w.duration_s for w in tight) < sum(
            w.duration_s for w in loose
        )

    def test_windows_sorted_by_start(self, iridium):
        ground = GeodeticPoint(-1.29, 36.82, 0.0)
        windows = contact_windows(
            ground, iridium.propagators()[:20], 0.0, 4000.0, step_s=20.0,
        )
        starts = [w.start_s for w in windows]
        assert starts == sorted(starts)

    def test_rejects_bad_interval(self, equatorial_prop):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            contact_windows(ground, [equatorial_prop], 100.0, 100.0)
        with pytest.raises(ValueError):
            contact_windows(ground, [equatorial_prop], 0.0, 100.0, step_s=0.0)

    def test_iridium_gives_frequent_contacts(self, iridium):
        # The full reference fleet should serve a mid-latitude user with
        # several windows within one orbit.
        ground = GeodeticPoint(45.0, 10.0, 0.0)
        windows = contact_windows(
            ground, iridium.propagators(), 0.0, 6100.0,
            step_s=30.0, min_elevation_deg=25.0,
        )
        assert len(windows) >= 3


class TestOverheadPassDuration:
    """A J2-free circular orbit passing straight over a station stays
    above the mask for ``2 lambda / rate``, where ``lambda = arccos(r_g
    cos e / a) - e`` is the Earth-central half-angle of the pass and
    ``rate`` the satellite's angular rate relative to the station."""

    @pytest.mark.parametrize("mask_deg", [0.0, 10.0, 25.0])
    @pytest.mark.parametrize("altitude_km", [550.0, 780.0, 1200.0])
    @pytest.mark.parametrize("plane", ["polar", "equatorial"])
    def test_duration_matches_circular_orbit_formula(self, plane,
                                                     altitude_km, mask_deg):
        if plane == "polar":
            # Over the north pole, which Earth rotation does not move;
            # the scan runs equator to equator.
            ground = GeodeticPoint(90.0, 0.0, 0.0)
            elements = OrbitalElements.circular(
                altitude_km, inclination_rad=math.pi / 2.0)
            rate = elements.mean_motion_rad_s
            horizon_s = math.pi / rate
        else:
            # Starting opposite the station, the scan runs one full
            # relative revolution.
            ground = GeodeticPoint(0.0, 0.0, 0.0)
            elements = OrbitalElements.circular(
                altitude_km, inclination_rad=0.0, mean_anomaly_rad=math.pi)
            rate = elements.mean_motion_rad_s - EARTH_ROTATION_RAD_S
            horizon_s = 2.0 * math.pi / rate
        mask = math.radians(mask_deg)
        station_radius_km = float(np.linalg.norm(ground.ecef()))
        half_angle = math.acos(station_radius_km * math.cos(mask)
                               / elements.semi_major_axis_km) - mask

        (window,) = contact_windows(ground, [KeplerPropagator(elements)],
                                    0.0, horizon_s,
                                    min_elevation_deg=mask_deg)

        assert window.duration_s == pytest.approx(2.0 * half_angle / rate,
                                                  abs=1e-3)
