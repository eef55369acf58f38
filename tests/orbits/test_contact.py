"""Tests for contact-window prediction."""

import math

import numpy as np
import pytest

from repro.orbits.constants import EARTH_ROTATION_RAD_S
from repro.orbits.contact import ContactWindow, contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.elements import OrbitalElements


@pytest.fixture(scope="module")
def equatorial_orbit():
    """An equatorial orbit passing over the (0, 0) ground point at epoch."""
    return OrbitalElements.circular(780.0, inclination_rad=0.0)


class TestContactWindow:
    def test_duration_and_contains(self):
        w = ContactWindow(0, 100.0, 400.0, 1.0)
        assert w.duration_s == 300.0
        assert w.contains(100.0)
        assert w.contains(250.0)
        assert not w.contains(401.0)


class TestContactWindows:
    def test_equatorial_pass_detected(self, equatorial_orbit):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_orbit], 0.0, 3000.0,
            step_s=10.0, min_elevation_deg=10.0,
        )
        assert len(windows) >= 1
        first = windows[0]
        # The satellite starts overhead, so the first window starts at 0.
        assert first.start_s == pytest.approx(0.0, abs=1.0)
        assert first.max_elevation_rad > math.radians(60.0)

    def test_window_durations_are_minutes_scale(self, equatorial_orbit):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_orbit], 0.0, 12000.0, step_s=10.0,
        )
        for w in windows:
            assert 60.0 < w.duration_s < 1500.0

    def test_polar_ground_station_never_sees_equatorial_orbit(self, equatorial_orbit):
        ground = GeodeticPoint(85.0, 0.0, 0.0)
        windows = contact_windows(
            ground, [equatorial_orbit], 0.0, 6100.0, step_s=30.0,
        )
        assert windows == []

    def test_higher_mask_gives_shorter_windows(self, equatorial_orbit):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        loose = contact_windows(ground, [equatorial_orbit], 0.0, 3000.0,
                                min_elevation_deg=5.0)
        tight = contact_windows(ground, [equatorial_orbit], 0.0, 3000.0,
                                min_elevation_deg=40.0)
        assert sum(w.duration_s for w in tight) < sum(
            w.duration_s for w in loose
        )

    def test_windows_sorted_by_start(self, iridium):
        ground = GeodeticPoint(-1.29, 36.82, 0.0)
        windows = contact_windows(
            ground, iridium.elements[:20], 0.0, 4000.0, step_s=20.0,
        )
        starts = [w.start_s for w in windows]
        assert starts == sorted(starts)

    def test_rejects_bad_interval(self, equatorial_orbit):
        ground = GeodeticPoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            contact_windows(ground, [equatorial_orbit], 100.0, 100.0)
        with pytest.raises(ValueError):
            contact_windows(ground, [equatorial_orbit], 0.0, 100.0, step_s=0.0)

    def test_iridium_gives_frequent_contacts(self, iridium):
        # The full reference fleet should serve a mid-latitude user with
        # several windows within one orbit.
        ground = GeodeticPoint(45.0, 10.0, 0.0)
        windows = contact_windows(
            ground, iridium, 0.0, 6100.0,
            step_s=30.0, min_elevation_deg=25.0,
        )
        assert len(windows) >= 3


class TestScanEndsAtEnd:
    """The scan grid ends at ``end_s``: a span that is not a multiple of
    the step reports no window, or window end, past it."""

    NAIROBI = GeodeticPoint(-1.29, 36.82, 0.0)

    def test_open_window_ends_at_end_s(self, iridium):
        # Satellite 11 is overhead from t = 0; a 30 s grid would sample
        # 120 s and report the window to there.
        windows = contact_windows(self.NAIROBI, iridium, 0.0,
                                  100.0, step_s=30.0, min_elevation_deg=10.0)
        assert windows == [ContactWindow(11, 0.0, 100.0,
                                         windows[0].max_elevation_rad)]

    def test_no_window_starts_after_end_s(self, iridium):
        # Satellite 21 rises at ~156 s, after the 137 s span; a 45 s grid
        # would sample 180 s and report it.
        windows = contact_windows(self.NAIROBI, iridium, 0.0,
                                  137.0, step_s=45.0, min_elevation_deg=10.0)
        assert [(w.satellite_index, w.start_s, w.end_s)
                for w in windows] == [(11, 0.0, 137.0)]

    @pytest.mark.parametrize("start_s, end_s, step_s", [
        (0.0, 100.0, 30.0), (0.0, 137.0, 45.0), (0.0, 2000.0, 45.0),
        (10.0, 1000.0, 70.0), (0.0, 0.3, 0.1),
    ])
    def test_windows_lie_within_the_span(self, iridium, start_s, end_s,
                                         step_s):
        windows = contact_windows(self.NAIROBI, iridium,
                                  start_s, end_s, step_s=step_s,
                                  min_elevation_deg=10.0)
        assert windows
        for window in windows:
            assert start_s <= window.start_s <= window.end_s <= end_s


class TestOverheadPassDuration:
    """A circular orbit passing straight over a station stays
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

        (window,) = contact_windows(ground, [elements],
                                    0.0, horizon_s,
                                    min_elevation_deg=mask_deg)

        assert window.duration_s == pytest.approx(2.0 * half_angle / rate,
                                                  abs=1e-3)


class TestAblationSchedulePinned:
    """The handover ablation's schedule (Nairobi under the Iridium-like
    fleet, 0-5,400 s, 10 s steps, 25 degree mask), recorded as exact
    floats when the scan propagated per satellite and bisected with a
    scalar solve.  One fleet-wide ``batch_positions`` call and
    one-satellite bisection must reproduce every window.  The peak
    elevations come from the coarse scan, whose ground track then
    rotated component-wise; two of them moved in the last bits when it
    took the per-time rotation product, so they are pinned to 1e-12."""

    WINDOWS = [
        (11, 0.0, 39.324072897434235, 0.5333763684764452),
        (21, 316.9747993350029, 550.7323309779167, 0.5711654118154439),
        (20, 951.7629799246788, 1010.8279791474342, 0.4430468097269708),
        (27, 3009.1254779696465, 3159.392131268978, 0.48338696005078613),
        (26, 3500.158630311489, 3763.847392499447, 0.6246301132608965),
        (25, 4018.216174542904, 4341.273539960384, 0.814608800103722),
        (24, 4549.070564210415, 4905.879595577717, 1.071784853259755),
        (23, 5089.09099906683, 5400.0, 1.3965383540337108),
    ]

    def test_windows_equal_the_recorded_schedule(self, iridium):
        windows = contact_windows(GeodeticPoint(-1.29, 36.82), iridium,
                                  0.0, 5400.0, step_s=10.0,
                                  min_elevation_deg=25.0)
        assert len(windows) == len(self.WINDOWS)
        assert [(w.satellite_index, w.start_s, w.end_s) for w in windows] \
            == [row[:3] for row in self.WINDOWS]
        for window, row in zip(windows, self.WINDOWS):
            assert window.max_elevation_rad == pytest.approx(row[3],
                                                             rel=1e-12)
