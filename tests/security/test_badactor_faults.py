"""Bad-actor quarantine composed with fault injection.

The quarantine path removes a provider's fleet *before* the network is
built; the fault injector removes elements *inside* a built network.  These
two removal mechanisms must compose without double-removing anything: a
fault aimed at an already-quarantined satellite is skipped (the element
simply is not there), and overlapping faults on the same element keep it
down until every holder releases it.
"""

import pytest

from repro.core.federation import Federation, Operator
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.faults.inject import FaultInjector
from repro.faults.schedule import satellite_outage_event
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_star
from repro.security.badactor import BadActorMonitor
from tests.fixtures import has_faults, provider_withdrawal_event


def _federation_with_quarantined_evil():
    monitor = BadActorMonitor()
    federation = Federation(monitor=monitor)
    federation.admit(Operator(
        "good", satellites=build_fleet(walker_star(8, 2), "good",
                                       SizeClass.SMALL)))
    federation.admit(Operator(
        "evil", satellites=build_fleet(walker_star(4, 2), "evil",
                                       SizeClass.SMALL)))
    monitor.report("evil", "interception_attempt")
    monitor.report("evil", "forged_certificate")
    assert monitor.is_quarantined("evil")
    return federation


@pytest.fixture()
def quarantined_setup():
    federation = _federation_with_quarantined_evil()
    network = OpenSpaceNetwork(federation.all_satellites(),
                               default_station_network())
    yield federation, network
    network.clear_fault_state()


class TestQuarantinePlusFaults:
    def test_quarantined_fleet_absent_from_network(self, quarantined_setup):
        federation, network = quarantined_setup
        owners = {spec.owner for spec in network.satellites}
        assert owners == {"good"}

    def test_fault_on_quarantined_satellite_skipped(self, quarantined_setup):
        federation, network = quarantined_setup
        evil_sats = [
            spec.satellite_id
            for spec in federation.all_satellites(include_quarantined=True)
            if spec.owner == "evil"
        ]
        injector = FaultInjector(network)
        event = satellite_outage_event(evil_sats, fault_id="on-quarantined")
        # Targets already gone: counted and skipped, never double-removed.
        assert injector.apply(event) == 0
        assert injector.skipped_targets == len(evil_sats)
        assert not has_faults(network)
        assert injector.repair(event) == 0

    def test_withdrawal_of_quarantined_provider_skipped(
            self, quarantined_setup):
        _federation, network = quarantined_setup
        injector = FaultInjector(network)
        assert injector.apply(
            provider_withdrawal_event("evil", start_s=0.0)) == 0
        assert injector.skipped_targets == 1

    def test_mixed_fault_hits_only_present_targets(self, quarantined_setup):
        federation, network = quarantined_setup
        all_sats = federation.all_satellites(include_quarantined=True)
        good = next(s for s in all_sats if s.owner == "good")
        evil = next(s for s in all_sats if s.owner == "evil")
        injector = FaultInjector(network)
        event = satellite_outage_event(
            [good.satellite_id, evil.satellite_id], fault_id="mixed")
        assert injector.apply(event) == 1
        assert network.failed_satellites == frozenset({good.satellite_id})
        assert injector.skipped_targets == 1
        assert injector.repair(event) == 1
        assert not has_faults(network)

    def test_overlapping_withdrawal_and_outage_no_early_return(
            self, quarantined_setup):
        # A provider-wide withdrawal and a per-satellite outage both hold
        # one satellite: repairing either alone must not resurrect it.
        federation, network = quarantined_setup
        sat_id = network.satellites[0].satellite_id
        injector = FaultInjector(network)
        withdrawal = provider_withdrawal_event("good", start_s=0.0,
                                               fault_id="w")
        outage = satellite_outage_event([sat_id], fault_id="o")
        injector.apply(withdrawal)
        assert injector.apply(outage) == 0  # already down
        injector.repair(withdrawal)
        assert network.failed_satellites == frozenset({sat_id})
        injector.repair(outage)
        assert not has_faults(network)
