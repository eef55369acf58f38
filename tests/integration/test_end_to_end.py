"""Integration tests: whole-stack OpenSpace flows.

Each test exercises several subsystems together, mirroring the lifecycle
the paper describes: federation assembly, user association with roaming
authentication, routed traffic with ledger settlement, predictive
handovers, and bad-actor cutoff reshaping the live network.
"""

import numpy as np
import pytest

from repro.core.association import AssociationProtocol
from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.federation import Federation, Operator
from repro.core.handover import HandoverScheme, HandoverSimulator
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.economics.ledger import TrafficLedger
from repro.economics.peering import PeeringAdvisor
from repro.economics.settlement import SettlementEngine
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.contact import contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.routing.qos import QosRequirement, QosRouter
from repro.security.auth import RadiusServer
from repro.security.badactor import BadActorMonitor


@pytest.fixture(scope="module")
def federation():
    """Three operators splitting the reference constellation."""
    constellation = iridium_like()
    elements = list(constellation)
    fed = Federation()
    stations = default_station_network()
    for index, name in enumerate(("alpha", "beta", "gamma")):
        fleet = [
            # Interleave ownership so every region mixes operators.
            spec for i, spec in enumerate(
                build_fleet(constellation, name, SizeClass.MEDIUM,
                            id_prefix="sat")
            ) if i % 3 == index
        ]
        fed.admit(Operator(
            name, satellites=fleet,
            ground_stations=stations[index * 5:(index + 1) * 5],
        ))
    return fed


@pytest.fixture(scope="module")
def live_network(federation):
    return OpenSpaceNetwork.from_federation(federation)


class TestFederatedLifecycle:
    def test_federated_fleet_fully_connected(self, live_network):
        import networkx as nx
        snap = live_network.snapshot(0.0)
        sats = snap.nodes_of_kind("satellite")
        sat_graph = snap.isl_snapshot.graph
        assert nx.is_connected(sat_graph)
        assert len(sats) == 66

    def test_cross_operator_isls_exist(self, live_network):
        snap = live_network.snapshot(0.0)
        graph = snap.isl_snapshot.graph
        cross = [
            (u, v) for u, v in graph.edges
            if graph.nodes[u]["owner"] != graph.nodes[v]["owner"]
        ]
        assert cross, "interleaved fleets must form cross-operator ISLs"

    def test_roaming_user_full_association(self, federation, live_network):
        # A beta-subscribed user served by whatever satellite is overhead.
        server = RadiusServer("beta", b"beta-secret",
                              authority=federation.operator("beta").authority)
        server.enroll("wanjiru", b"pw")
        protocol = AssociationProtocol(
            radius_servers={"beta": server},
            auth_anchors={"beta": federation.operator("beta")
                          .ground_stations[0].station_id},
        )
        user = UserTerminal("wanjiru", GeodeticPoint(-1.29, 36.82), "beta",
                            min_elevation_deg=10.0)
        evaluator = BeaconEvaluator(min_elevation_deg=10.0)
        for spec in live_network.satellites:
            evaluator.receive(Beacon.from_spec(spec, 0.0))
        snap = live_network.snapshot(0.0)
        result = protocol.associate(user, snap, evaluator, 0.0, b"pw")
        assert result.succeeded
        # The certificate roams: every operator can verify it.
        cert = server.authority.issue("wanjiru", now_s=0.0)
        federation.trust_store.verify(cert, now_s=10.0)

    def test_end_to_end_user_to_gateway_with_settlement(self, live_network):
        user = UserTerminal("u-settle", GeodeticPoint(14.5, 3.0), "alpha",
                            min_elevation_deg=10.0)
        snap = live_network.snapshot(0.0, users=[user])
        metrics = snap.nearest_ground_station_route(user.user_id)
        assert metrics is not None
        # File the transfer in the ledger using the path's operators.
        ledger = TrafficLedger()
        ledger.file_path_transfer(
            "t-1", "alpha", metrics.operators, gigabytes=2.0, time_s=0.0,
        )
        assert ledger.cross_verify() == []
        invoices = SettlementEngine().invoices_from_ledger(ledger)
        foreign = [op for op in metrics.operators if op != "alpha"]
        assert len(invoices) == len(set(foreign))

    def test_qos_differentiation_across_federated_fleet(self, live_network):
        snap = live_network.snapshot(0.0)
        sats = snap.nodes_of_kind("satellite")
        router = QosRouter()
        best_effort = router.route(snap, sats[0], sats[40],
                                   QosRequirement())
        premium = router.route(snap, sats[0], sats[40],
                               QosRequirement(min_bandwidth_bps=50e6))
        assert best_effort.admitted
        # The MEDIUM fleet is all-laser, so premium should also admit and
        # ride at least as much bandwidth.
        assert premium.admitted
        assert (premium.metrics.bottleneck_capacity_bps
                >= best_effort.metrics.bottleneck_capacity_bps)

    def test_pass_handover_cycle_with_real_windows(self, live_network):
        site = GeodeticPoint(-1.29, 36.82)
        constellation = iridium_like()
        windows = contact_windows(
            site, constellation, 0.0, 3600.0,
            step_s=20.0, min_elevation_deg=25.0,
        )
        assert windows
        sim = HandoverSimulator()
        predictive = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 3600.0)
        reauth = sim.run(windows, HandoverScheme.REAUTHENTICATE, 0.0, 3600.0)
        assert predictive.availability >= reauth.availability
        assert predictive.handover_count == reauth.handover_count

    def test_bad_actor_cutoff_reshapes_network(self, federation):
        shared = federation.monitor
        monitor = federation.monitor = BadActorMonitor()
        monitor.report("gamma", "interception_attempt")
        monitor.report("gamma", "forged_certificate")
        assert monitor.is_quarantined("gamma")
        try:
            reduced = OpenSpaceNetwork.from_federation(federation)
            assert len(reduced.satellites) == 44
            owners = {s.owner for s in reduced.satellites}
            assert "gamma" not in owners
            # Service persists on the remaining fleet.
            user = UserTerminal("u-q", GeodeticPoint(-1.29, 36.82), "alpha",
                                min_elevation_deg=10.0)
            latencies = [
                reduced.user_to_internet_latency_s(user, t)
                for t in (0.0, 600.0, 1200.0, 1800.0)
            ]
            assert any(l is not None for l in latencies)
        finally:
            # Other tests share the module fixture's monitor.
            federation.monitor = shared

    def test_peering_emerges_from_symmetric_federated_traffic(self, live_network):
        rng = np.random.default_rng(8)
        ledger = TrafficLedger()
        users = [
            UserTerminal(f"u{i}", GeodeticPoint(
                float(rng.uniform(-55, 55)), float(rng.uniform(-180, 180))),
                ["alpha", "beta"][i % 2], min_elevation_deg=10.0)
            for i in range(12)
        ]
        snap = live_network.snapshot(0.0, users=users)
        for index, user in enumerate(users):
            metrics = snap.nearest_ground_station_route(user.user_id)
            if metrics is None:
                continue
            ledger.file_path_transfer(
                f"t{index}", user.home_provider, metrics.operators,
                gigabytes=5.0, time_s=float(index),
            )
        advisor = PeeringAdvisor(min_mutual_gb=5.0, min_symmetry=0.2)
        recommendations = advisor.recommendations(ledger)
        assert recommendations  # symmetric federated traffic exists
