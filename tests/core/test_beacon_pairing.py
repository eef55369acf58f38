"""Tests for the beacon protocol."""

import math

import numpy as np
import pytest

from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.interop import medium_spacecraft
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.orbits.elements import OrbitalElements


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
        assert beacon.free_isl_slots == overhead_spec.power.max_concurrent_isls

    def test_free_slots_reflect_active_isls(self, overhead_spec):
        overhead_spec.power.activate_isl("x", 10.0)
        beacon = Beacon.from_spec(overhead_spec, 0.0)
        assert beacon.free_isl_slots == (
            overhead_spec.power.max_concurrent_isls - 1
        )

    def test_position_propagates_advertised_elements(self, overhead_spec):
        beacon = Beacon.from_spec(overhead_spec, 0.0)
        pos = beacon.position_at(0.0)
        assert np.linalg.norm(pos) == pytest.approx(EARTH_RADIUS_KM + 780.0)


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
        best = evaluator.best(user_eci, 0.0)
        assert best.satellite_id == "sat-over"

    def test_elevation_mask_filters(self, far_spec):
        evaluator = BeaconEvaluator(min_elevation_deg=25.0)
        evaluator.receive(Beacon.from_spec(far_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert evaluator.best(user_eci, 0.0) is None

    def test_full_satellites_skipped(self, overhead_spec):
        for i in range(overhead_spec.power.max_concurrent_isls):
            overhead_spec.power.activate_isl(f"l{i}", 10.0)
        evaluator = BeaconEvaluator(min_elevation_deg=0.0)
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert evaluator.best(user_eci, 0.0) is None

    def test_require_free_slot_can_be_disabled(self, overhead_spec):
        for i in range(overhead_spec.power.max_concurrent_isls):
            overhead_spec.power.activate_isl(f"l{i}", 10.0)
        evaluator = BeaconEvaluator(min_elevation_deg=0.0,
                                    require_free_slot=False)
        evaluator.receive(Beacon.from_spec(overhead_spec, 0.0))
        user_eci = ecef_to_eci(GeodeticPoint(0.0, 0.0).ecef(), 0.0)
        assert evaluator.best(user_eci, 0.0) is not None
