"""Tests for the co-channel interference model."""

import math

import numpy as np
import pytest

from repro.phy.interference import (
    angular_separation_rad,
    interference_pairs,
    received_power_dbw,
)
from repro.phy.rf import RFTerminal, standard_ku_user_terminal

R_ORBIT = 6378.137 + 780.0


class TestAngularSeparation:
    def test_same_direction_zero(self):
        ground = np.array([6378.0, 0, 0])
        sat = np.array([R_ORBIT, 0, 0])
        assert angular_separation_rad(ground, sat, sat) == 0.0

    def test_opposite_horizon_satellites_large(self):
        ground = np.array([6378.0, 0, 0])
        a = np.array([6378.0 + 200.0, 2000.0, 0.0])
        b = np.array([6378.0 + 200.0, -2000.0, 0.0])
        assert angular_separation_rad(ground, a, b) > math.radians(90.0)


class TestReceivedPower:
    def _terminals(self):
        space = RFTerminal(band_name="ku_downlink", tx_power_w=20.0,
                           antenna_gain_dbi=32.0)
        return space, standard_ku_user_terminal()

    def test_off_axis_weaker_than_boresight(self):
        space, user = self._terminals()
        boresight = received_power_dbw(space, user, 1000.0, 0.0, 6.0)
        off = received_power_dbw(space, user, 1000.0, 12.0, 6.0)
        assert off < boresight

    def test_sidelobe_floor(self):
        space, user = self._terminals()
        far_off = received_power_dbw(space, user, 1000.0, 90.0, 6.0)
        farther_off = received_power_dbw(space, user, 1000.0, 150.0, 6.0)
        assert far_off == pytest.approx(farther_off)


class TestInterferencePairs:
    def test_close_pair_detected(self):
        ground_points = [np.array([6378.137, 0.0, 0.0])]
        # 1 deg central angle -> ~111 km lateral -> ~8 deg apparent
        # separation from the subsatellite point: inside the 10 deg limit.
        theta = math.radians(1.0)
        sats = [
            np.array([R_ORBIT, 0.0, 0.0]),
            R_ORBIT * np.array([math.cos(theta), math.sin(theta), 0.0]),
        ]
        assert interference_pairs(ground_points, sats,
                                  min_separation_deg=10.0) == [(0, 1)]

    def test_separated_pair_clear(self):
        ground_points = [np.array([6378.137, 0.0, 0.0])]
        theta = math.radians(25.0)  # far outside any discrimination limit
        sats = [
            np.array([R_ORBIT, 0.0, 0.0]),
            R_ORBIT * np.array([math.cos(theta), math.sin(theta), 0.0]),
        ]
        assert interference_pairs(ground_points, sats,
                                  min_separation_deg=10.0) == []

    def test_invisible_satellite_ignored(self):
        ground_points = [np.array([6378.137, 0.0, 0.0])]
        sats = [
            np.array([R_ORBIT, 0.0, 0.0]),
            np.array([-R_ORBIT, 0.0, 0.0]),  # other side of the Earth
        ]
        assert interference_pairs(ground_points, sats) == []
