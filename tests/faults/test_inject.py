"""Tests for the fault injector against a live network."""

import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.faults.inject import FaultInjector
from repro.faults.model import FaultEvent, FaultKind, FaultSchedule
from repro.faults.schedule import satellite_outage_event
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_star
from repro.simulation.engine import SimulationEngine
from tests.fixtures import has_faults, provider_withdrawal_event


@pytest.fixture()
def small_network():
    fleet = build_fleet(walker_star(12, 3), "acme", SizeClass.SMALL)
    network = OpenSpaceNetwork(fleet, default_station_network())
    yield network
    network.clear_fault_state()


def _sat_event(network, count=1, fault_id="f", duration_s=None):
    ids = [spec.satellite_id for spec in network.satellites[:count]]
    return satellite_outage_event(ids, duration_s=duration_s,
                                  fault_id=fault_id)


class TestApplyRepair:
    def test_apply_masks_satellite(self, small_network):
        injector = FaultInjector(small_network)
        event = _sat_event(small_network, fault_id="one")
        assert injector.apply(event) == 1
        sat_id = event.targets[0]
        assert sat_id in small_network.failed_satellites
        snap = small_network.snapshot(0.0)
        assert sat_id not in snap.graph

    def test_repair_restores(self, small_network):
        injector = FaultInjector(small_network)
        event = _sat_event(small_network, fault_id="one")
        injector.apply(event)
        assert injector.repair(event) == 1
        assert not has_faults(small_network)
        assert event.targets[0] in small_network.snapshot(0.0).graph

    def test_apply_is_idempotent_per_fault(self, small_network):
        injector = FaultInjector(small_network)
        event = _sat_event(small_network, fault_id="one")
        assert injector.apply(event) == 1
        assert injector.apply(event) == 0
        assert injector.applied_count == 1

    def test_repair_of_inactive_fault_is_noop(self, small_network):
        injector = FaultInjector(small_network)
        assert injector.repair(_sat_event(small_network)) == 0

    def test_refcount_overlapping_faults(self, small_network):
        # Two faults hold the same satellite: it must stay down until the
        # second repairs, and it must never be counted failed twice.
        injector = FaultInjector(small_network)
        sat_id = small_network.satellites[0].satellite_id
        first = satellite_outage_event([sat_id], fault_id="a")
        second = satellite_outage_event([sat_id], fault_id="b")
        assert injector.apply(first) == 1
        assert injector.apply(second) == 0  # already down: not re-failed
        assert injector.repair(first) == 0  # "b" still holds it
        assert sat_id in small_network.failed_satellites
        assert injector.repair(second) == 1
        assert sat_id not in small_network.failed_satellites

    def test_unknown_targets_skipped_not_raised(self, small_network):
        injector = FaultInjector(small_network)
        event = FaultEvent(fault_id="ghost", kind=FaultKind.SATELLITE,
                           targets=("sat-nobody-0",), start_s=0.0)
        assert injector.apply(event) == 0
        assert injector.skipped_targets == 1
        assert not has_faults(small_network)

    def test_provider_event_expands_to_owned_fleet(self, small_network):
        injector = FaultInjector(small_network)
        event = provider_withdrawal_event("acme", start_s=0.0)
        failed = injector.apply(event)
        assert failed == len(small_network.satellites)
        assert injector.repair(event) == failed

    def test_unknown_provider_skipped(self, small_network):
        injector = FaultInjector(small_network)
        event = provider_withdrawal_event("nobody", start_s=0.0)
        assert injector.apply(event) == 0
        assert injector.skipped_targets == 1

    def test_station_fault_masks_gateway(self, small_network):
        injector = FaultInjector(small_network)
        station_id = small_network.ground_stations[0].station_id
        event = FaultEvent(fault_id="gw", kind=FaultKind.GROUND_STATION,
                           targets=(station_id,), start_s=0.0)
        injector.apply(event)
        assert station_id in small_network.failed_stations

    def test_link_fault_in_either_order_holds_one_link(self, small_network):
        first, second = sorted(spec.satellite_id
                               for spec in small_network.satellites[:2])
        forward = FaultEvent(fault_id="ab", kind=FaultKind.ISL_LINK,
                             targets=(f"{first}|{second}",), start_s=0.0)
        backward = FaultEvent(fault_id="ba", kind=FaultKind.ISL_LINK,
                              targets=(f"{second}|{first}",), start_s=0.0)
        injector = FaultInjector(small_network)
        assert injector.apply(forward) == 1
        assert injector.apply(backward) == 0
        assert injector.failed_links == {(first, second)}
        assert injector.failed_elements_of(backward) == (
            set(), {(first, second)})
        injector.repair(forward)
        assert injector.failed_links == {(first, second)}
        injector.repair(backward)
        assert not has_faults(small_network)


class TestEngineScheduling:
    def test_transitions_run_in_sim_time(self, small_network):
        injector = FaultInjector(small_network)
        event = _sat_event(small_network, fault_id="timed",
                           duration_s=50.0)
        schedule = FaultSchedule(events=[
            FaultEvent(fault_id="timed", kind=event.kind,
                       targets=event.targets, start_s=10.0,
                       duration_s=50.0),
        ], horizon_s=100.0)
        engine = SimulationEngine()
        seen = []

        def hook(time_s, transition, inj):
            seen.append((time_s, transition.phase,
                         len(inj.failed_satellites)))

        assert injector.schedule_on(engine, schedule, hook=hook) == 2
        engine.run_until(100.0)
        assert seen == [(10.0, "fail", 1), (60.0, "repair", 0)]
        assert not has_faults(small_network)

    def test_until_s_drops_late_transitions(self, small_network):
        injector = FaultInjector(small_network)
        schedule = FaultSchedule(events=[
            _sat_event(small_network, fault_id="late"),
        ])
        late = FaultSchedule(events=[
            FaultEvent(fault_id="late", kind=FaultKind.SATELLITE,
                       targets=schedule.events[0].targets,
                       start_s=500.0, duration_s=None),
        ])
        engine = SimulationEngine()
        assert injector.schedule_on(engine, late, until_s=100.0) == 0

    def test_apply_static_union_state(self, small_network):
        injector = FaultInjector(small_network)
        sats = [s.satellite_id for s in small_network.satellites]
        schedule = FaultSchedule(events=[
            satellite_outage_event(sats[:2], fault_id="a"),
            satellite_outage_event(sats[1:3], fault_id="b"),
        ])
        assert sum(injector.apply(event, now_s=event.start_s)
                   for event in schedule) == 3
        assert small_network.failed_satellites == frozenset(sats[:3])


class TestChannelNotification:
    def test_apply_and_repair_bump_channel_epoch(self, small_network):
        from repro.reliability.channel import LossyControlChannel

        channel = LossyControlChannel(network=small_network)
        injector = FaultInjector(small_network, channel=channel)
        event = _sat_event(small_network, fault_id="epoch")
        injector.apply(event)
        assert channel.fault_epoch == 1
        injector.repair(event)
        assert channel.fault_epoch == 2

    def test_channel_sees_masks_through_network(self, small_network):
        from repro.reliability.channel import LossyControlChannel

        channel = LossyControlChannel(network=small_network)
        injector = FaultInjector(small_network, channel=channel)
        snap = small_network.snapshot(0.0)
        links = snap.isl_snapshot.links
        sat_id = snap.nodes[int(links.node_a[0])]
        neighbor = snap.nodes[int(links.node_b[0])]
        event = satellite_outage_event([sat_id], fault_id="mask")
        before = channel.hop_model(snap, sat_id, neighbor)
        assert before.loss_probability < 1.0
        injector.apply(event)
        # Even over the stale pre-fault snapshot, the live masks sever it.
        after = channel.hop_model(snap, sat_id, neighbor)
        assert after.loss_probability == 1.0


class TestNetworkFaultState:
    def test_set_fault_state_rejects_unknown_satellite(self, small_network):
        with pytest.raises(ValueError):
            small_network.set_fault_state(failed_satellites=["sat-bogus"])

    def test_link_fault_removes_edge(self, small_network):
        snap = small_network.snapshot(0.0)
        edge = next(iter(snap.isl_snapshot.graph.edges()))
        small_network.set_fault_state(failed_links=[tuple(sorted(edge))])
        masked = small_network.snapshot(0.0)
        assert not masked.graph.has_edge(*edge)

    def test_clear_fault_state(self, small_network):
        sat_id = small_network.satellites[0].satellite_id
        small_network.set_fault_state(failed_satellites=[sat_id])
        assert has_faults(small_network)
        small_network.clear_fault_state()
        assert not has_faults(small_network)
