"""Tests for the beacon protocol."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.interop import medium_spacecraft
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.orbits.elements import OrbitalElements
from repro.orbits.visibility import elevation_angle, slant_range
from tests.orbits.oracle import KeplerPropagator


@pytest.fixture
def overhead_spec():
    # Equatorial orbit crossing (0, 0) at epoch.
    elements = OrbitalElements.circular(780.0, inclination_rad=0.0)
    return medium_spacecraft("sat-over", "op-a", elements)


@pytest.fixture
def far_spec():
    elements = OrbitalElements.circular(
        780.0, inclination_rad=0.0, mean_anomaly_rad=math.pi
    )
    return medium_spacecraft("sat-far", "op-b", elements)


class TestBeacon:
    def test_from_spec_carries_capabilities(self, overhead_spec):
        beacon = Beacon.from_spec(overhead_spec, timestamp_s=5.0)
        assert beacon.satellite_id == "sat-over"
        assert beacon.supports_optical
        assert "s_band" in beacon.isl_bands
        assert beacon.free_isl_slots == overhead_spec.max_concurrent_isls

    def test_position_propagates_advertised_elements(self, overhead_spec):
        # At epoch the advertised orbit puts the satellite straight over
        # (0, 0): its ranked range is the orbit's altitude.
        evaluator = BeaconEvaluator(min_elevation_deg=0.0)
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        ((range_km, _beacon),) = evaluator.rank(user_eci, 0.0)
        assert range_km == pytest.approx(780.0)
        assert np.linalg.norm(user_eci) == pytest.approx(EARTH_RADIUS_KM)


class TestBeaconEvaluator:
    def test_latest_beacon_wins(self, overhead_spec):
        evaluator = BeaconEvaluator()
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        evaluator.receive(Beacon.from_spec(overhead_spec, 10.0))
        assert len(evaluator.heard) == 1
        assert evaluator.heard[0].timestamp_s == 10.0

    def test_ranks_nearest_first(self, overhead_spec, far_spec):
        evaluator = BeaconEvaluator(min_elevation_deg=0.0)
        evaluator.receive(Beacon.from_spec(far_spec, 0.0))
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        ranked = evaluator.rank(user_eci, 0.0)
        assert ranked[0][1].satellite_id == "sat-over"

    def test_elevation_mask_filters(self, far_spec):
        evaluator = BeaconEvaluator(min_elevation_deg=25.0)
        evaluator.receive(Beacon.from_spec(far_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert evaluator.rank(user_eci, 0.0) == []

    def test_full_satellites_skipped(self, overhead_spec):
        overhead_spec.max_concurrent_isls = 0  # no slot free
        evaluator = BeaconEvaluator(min_elevation_deg=0.0)
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert evaluator.rank(user_eci, 0.0) == []

    def test_require_free_slot_can_be_disabled(self, overhead_spec):
        overhead_spec.max_concurrent_isls = 0  # no slot free
        evaluator = BeaconEvaluator(min_elevation_deg=0.0,
                                    require_free_slot=False)
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert len(evaluator.rank(user_eci, 0.0)) == 1


class TestRankAgainstOracle:
    """``rank`` propagates every candidate beacon in one fleet; the order
    and the ranges must be those of propagating each beacon on its own
    through the oracle (``tests/orbits/oracle.py``) and ranking with the
    scalar elevation and slant range, bit for bit."""

    SITES = [GeodeticPoint(-1.29, 36.82), GeodeticPoint(45.0, 10.0),
             GeodeticPoint(-33.9, 151.2)]
    TIMES = [0.0, 600.0, 1800.0, 4321.5]

    @staticmethod
    def _oracle_rank(beacons, receiver, time_s, mask_deg):
        ranked = []
        for beacon in beacons:
            if beacon.free_isl_slots == 0:
                continue
            (position,) = KeplerPropagator(beacon.elements).positions_at(
                time_s)
            if elevation_angle(receiver, position) < math.radians(mask_deg):
                continue
            ranked.append((slant_range(receiver, position),
                           beacon.satellite_id))
        return sorted(ranked, key=lambda item: item[0])

    def test_order_and_ranges_equal_the_oracle(self, medium_fleet):
        beacons = [Beacon.from_spec(spec, 0.0) for spec in medium_fleet]
        # Every fifth satellite is full, so the filter runs before the
        # one propagation.
        beacons = [dataclasses.replace(b, free_isl_slots=0) if i % 5 == 0
                   else b for i, b in enumerate(beacons)]
        evaluator = BeaconEvaluator(min_elevation_deg=0.0)
        for beacon in beacons:
            evaluator.receive(beacon)
        assert len(evaluator.heard) == 66
        sizes = []
        for site in self.SITES:
            for time_s in self.TIMES:
                receiver = ecef_to_eci(site.ecef(), time_s)
                ranked = [(distance, beacon.satellite_id) for distance, beacon
                          in evaluator.rank(receiver, time_s)]
                assert ranked == self._oracle_rank(beacons, receiver,
                                                   time_s, 0.0)
                sizes.append(len(ranked))
        # Most instants rank several beacons, so the order is exercised.
        assert sum(size >= 2 for size in sizes) >= len(sizes) // 2
