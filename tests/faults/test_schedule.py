"""Tests for the seeded fault-schedule generators."""

import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.faults.model import FaultKind
from repro.faults.schedule import (
    ground_station_outage_schedule,
    link_flap_schedule,
    plane_loss_event,
    plane_members,
    satellite_mtbf_schedule,
    satellite_outage_event,
)
from repro.orbits.walker import walker_star
from tests.fixtures import provider_withdrawal_event

SATS = [f"sat-x-{i}" for i in range(6)]


class TestRenewalSchedules:
    def test_same_seed_same_schedule(self):
        first = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                        mttr_s=300.0, seed=11)
        second = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                         mttr_s=300.0, seed=11)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        first = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                        mttr_s=300.0, seed=11)
        second = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                         mttr_s=300.0, seed=12)
        assert first.to_json() != second.to_json()

    def test_events_within_horizon(self):
        schedule = satellite_mtbf_schedule(SATS, 3600.0, mtbf_s=600.0,
                                           mttr_s=120.0, seed=3)
        assert schedule.events
        assert all(0.0 <= e.start_s < 3600.0 for e in schedule.events)
        assert all(e.kind is FaultKind.SATELLITE for e in schedule.events)

    def test_permanent_mttr_one_failure_per_satellite(self):
        schedule = satellite_mtbf_schedule(SATS, 100000.0, mtbf_s=600.0,
                                           mttr_s=None, seed=3)
        per_sat = {}
        for event in schedule.events:
            assert event.permanent
            per_sat[event.targets[0]] = per_sat.get(event.targets[0], 0) + 1
        assert all(count == 1 for count in per_sat.values())

    def test_zero_mttr_instant_repairs(self):
        schedule = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=900.0,
                                           mttr_s=0.0, seed=5)
        assert schedule.events
        assert all(e.duration_s == 0.0 for e in schedule.events)

    def test_rejects_nonpositive_mtbf(self):
        with pytest.raises(ValueError):
            satellite_mtbf_schedule(SATS, 3600.0, mtbf_s=0.0, mttr_s=60.0)

    def test_rejects_negative_mttr(self):
        with pytest.raises(ValueError):
            satellite_mtbf_schedule(SATS, 3600.0, mtbf_s=600.0, mttr_s=-1.0)

    def test_accepts_generator(self):
        rng = np.random.default_rng(11)
        from_rng = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                           mttr_s=300.0, seed=rng)
        from_int = satellite_mtbf_schedule(SATS, 7200.0, mtbf_s=1800.0,
                                           mttr_s=300.0, seed=11)
        assert from_rng.to_json() == from_int.to_json()

    def test_ground_station_schedule_kind(self):
        schedule = ground_station_outage_schedule(
            ["gs-a", "gs-b"], 7200.0, mtbf_s=1200.0, mttr_s=600.0, seed=2)
        assert all(e.kind is FaultKind.GROUND_STATION
                   for e in schedule.events)

    def test_link_flap_schedule_targets(self):
        schedule = link_flap_schedule(
            [("sat-b", "sat-a")], 7200.0, mtbf_s=600.0, mttr_s=30.0, seed=2)
        assert schedule.events
        assert all(e.kind is FaultKind.ISL_LINK for e in schedule.events)
        assert all(e.targets == ("sat-a|sat-b",) for e in schedule.events)


class TestCorrelatedEvents:
    @pytest.fixture(scope="class")
    def fleet(self):
        return build_fleet(walker_star(12, 3), "acme", SizeClass.SMALL)

    def test_plane_members_partition_fleet(self, fleet):
        planes = plane_members(fleet)
        assert len(planes) == 3
        members = [sat for group in planes.values() for sat in group]
        assert sorted(members) == sorted(s.satellite_id for s in fleet)

    def test_plane_loss_event_takes_whole_plane(self, fleet):
        event = plane_loss_event(fleet, 1, start_s=100.0, duration_s=600.0)
        assert event.kind is FaultKind.PLANE
        assert len(event.targets) == 4
        planes = plane_members(fleet)
        assert set(event.targets) == set(planes[sorted(planes)[1]])

    def test_plane_loss_rejects_bad_index(self, fleet):
        with pytest.raises(ValueError):
            plane_loss_event(fleet, 3, start_s=0.0)

    def test_provider_withdrawal_event(self):
        event = provider_withdrawal_event("acme", start_s=50.0)
        assert event.kind is FaultKind.PROVIDER
        assert event.targets == ("acme",)
        assert event.permanent

    def test_satellite_outage_event(self):
        event = satellite_outage_event(["s1", "s2"])
        assert event.start_s == 0.0
        assert event.permanent
        assert event.targets == ("s1", "s2")


class TestRegionalBlackout:
    """Geographic footprint helpers and the blackout fault event."""

    @pytest.fixture
    def stations(self):
        from repro.ground.station import default_station_network
        return default_station_network()

    def test_great_circle_zero_for_same_point(self):
        from repro.faults.schedule import great_circle_km
        assert great_circle_km(-1.3, 36.8, -1.3, 36.8) == 0.0

    def test_great_circle_known_distance(self):
        from repro.faults.schedule import great_circle_km
        # Nairobi to Bahrain, roughly 3300 km.
        distance = great_circle_km(-1.3, 36.8, 26.1, 50.6)
        assert 3100.0 < distance < 3500.0

    def test_great_circle_antipodal_half_circumference(self):
        from repro.faults.schedule import EARTH_RADIUS_KM, great_circle_km
        distance = great_circle_km(0.0, 0.0, 0.0, 180.0)
        assert distance == pytest.approx(np.pi * EARTH_RADIUS_KM)

    def test_stations_within_zero_radius_empty(self, stations):
        from repro.faults.schedule import stations_within
        assert stations_within(stations, -1.3, 36.8, 0.0) == []
        assert stations_within(stations, -1.3, 36.8, -5.0) == []

    def test_stations_within_regional_footprint(self, stations):
        from repro.faults.schedule import stations_within
        assert stations_within(stations, -1.3, 36.8, 1500.0) == [
            "gs-nairobi"
        ]

    def test_stations_within_grows_with_radius(self, stations):
        from repro.faults.schedule import stations_within
        near = set(stations_within(stations, -1.3, 36.8, 1500.0))
        far = set(stations_within(stations, -1.3, 36.8, 4000.0))
        assert near < far

    def test_blackout_event_targets_and_kind(self, stations):
        from repro.faults.schedule import regional_blackout_event
        event = regional_blackout_event(stations, -1.3, 36.8, 1500.0,
                                        start_s=600.0, duration_s=1800.0)
        assert event.kind is FaultKind.GROUND_STATION
        assert event.targets == ("gs-nairobi",)
        assert event.start_s == 600.0
        assert event.duration_s == 1800.0
        assert event.cause == "regional-blackout"
        assert event.fault_id == "blackout-1500km"

    def test_blackout_event_permanent_by_default(self, stations):
        from repro.faults.schedule import regional_blackout_event
        event = regional_blackout_event(stations, -1.3, 36.8, 1500.0,
                                        start_s=0.0)
        assert event.permanent

    def test_blackout_empty_footprint_rejected(self, stations):
        from repro.faults.schedule import regional_blackout_event
        with pytest.raises(ValueError, match="no ground station"):
            regional_blackout_event(stations, 90.0, 0.0, 100.0,
                                    start_s=0.0)
