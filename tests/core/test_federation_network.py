"""Tests for the federation registry and the OpenSpaceNetwork facade."""

import networkx as nx
import pytest

from repro.core.federation import Federation, Operator
from repro.core.interop import (
    InteropError,
    SizeClass,
    build_fleet,
    medium_spacecraft,
)
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint


@pytest.fixture
def two_operator_federation(iridium):
    fed = Federation()
    elements = list(iridium)
    fleet_a = build_fleet(iridium.subset(33), "op-a", SizeClass.MEDIUM)
    fed.admit(Operator("op-a", satellites=fleet_a,
                       ground_stations=default_station_network()[:8]))
    fleet_b = [
        medium_spacecraft(f"sat-op-b-{i}", "op-b", el)
        for i, el in enumerate(elements[33:])
    ]
    fed.admit(Operator("op-b", satellites=fleet_b,
                       ground_stations=default_station_network()[8:]))
    return fed


class TestFederation:
    def test_admission_and_lookup(self, two_operator_federation):
        fed = two_operator_federation
        assert fed.member_names == ["op-a", "op-b"]
        assert fed.operator("op-a").satellite_count == 33
        assert fed.total_satellite_count == 66

    def test_duplicate_admission_rejected(self, two_operator_federation):
        with pytest.raises(ValueError, match="already admitted"):
            two_operator_federation.admit(Operator("op-a"))

    def test_owner_mismatch_rejected(self, iridium):
        fed = Federation()
        fleet = build_fleet(iridium.subset(2), "op-x", SizeClass.SMALL)
        with pytest.raises(InteropError, match="declares owner"):
            fed.admit(Operator("op-y", satellites=fleet))

    def test_noncompliant_fleet_rejected(self, iridium):
        from repro.core.interop import SpacecraftSpec
        from repro.phy.optical import OpticalTerminal
        fed = Federation()
        bad = SpacecraftSpec(
            satellite_id="bad", owner="op-z", size_class=SizeClass.MEDIUM,
            elements=iridium.elements[0],
            isl_terminals=[OpticalTerminal()],
            laser_boresights_deg=[0.0],
        )
        with pytest.raises(InteropError, match="mandatory RF"):
            fed.admit(Operator("op-z", satellites=[bad]))

    def test_trust_store_populated(self, two_operator_federation):
        fed = two_operator_federation
        for name in ("op-a", "op-b"):
            cert = fed.operator(name).authority.issue("alice", now_s=0.0)
            fed.trust_store.verify(cert, now_s=1.0)

    def test_quarantine_excludes_assets(self, two_operator_federation):
        fed = two_operator_federation
        fed.monitor.report("op-b", "interception_attempt")
        fed.monitor.report("op-b", "forged_certificate")
        assert fed.monitor.is_quarantined("op-b")
        active_sats = fed.all_satellites()
        assert all(s.owner == "op-a" for s in active_sats)
        assert len(fed.all_satellites(include_quarantined=True)) == 66
        assert all(
            gs.owner != "op-b" for gs in fed.all_ground_stations()
        )

    def test_certificates_roam_across_operators(self, two_operator_federation):
        fed = two_operator_federation
        cert = fed.operator("op-a").authority.issue("alice", now_s=0.0)
        # op-b verifies through the shared trust store.
        fed.trust_store.verify(cert, now_s=10.0)


class TestOpenSpaceNetwork:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one satellite"):
            OpenSpaceNetwork([])

    def test_snapshot_node_kinds(self, network):
        snap = network.snapshot(0.0)
        kinds = nx.get_node_attributes(snap.graph, "kind")
        assert set(kinds.values()) == {"satellite", "ground_station"}
        assert len(snap.nodes_of_kind("ground_station")) == 15
        assert len(snap.nodes_of_kind("satellite")) == 66

    def test_ground_edges_have_tariff_and_queue(self, network):
        snap = network.snapshot(0.0)
        ground_edges = [
            data for _u, _v, data in snap.graph.edges(data=True)
            if data.get("kind") == "ground_link"
        ]
        assert ground_edges
        for data in ground_edges:
            assert data["tariff_per_gb"] >= 0.0
            assert data["queue_delay_s"] >= 0.0
            assert data["capacity_bps"] > 0.0

    def test_user_attachment(self, network):
        user = UserTerminal("u1", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)
        snap = network.snapshot(0.0, users=[user])
        assert "u1" in snap.graph
        assert snap.graph.degree("u1") >= 1

    def test_nearest_ground_station_route(self, network):
        user = UserTerminal("u1", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)
        snap = network.snapshot(0.0, users=[user])
        metrics = snap.nearest_ground_station_route("u1")
        assert metrics is not None
        # Nairobi has a gateway nearby: expect a short path.
        assert metrics.total_delay_ms < 100.0

    def test_user_to_internet_latency(self, network):
        user = UserTerminal("u1", GeodeticPoint(45.0, 10.0), "acme",
                            min_elevation_deg=10.0)
        latency = network.user_to_internet_latency_s(user, 0.0)
        assert latency is not None
        assert 0.002 < latency < 0.2

    def test_from_federation(self, two_operator_federation):
        net = OpenSpaceNetwork.from_federation(two_operator_federation)
        snap = net.snapshot(0.0)
        owners = {
            data["owner"] for _n, data in snap.graph.nodes(data=True)
            if data["kind"] == "satellite"
        }
        assert owners == {"op-a", "op-b"}

    def test_quarantine_shrinks_network(self, two_operator_federation):
        fed = two_operator_federation
        fed.monitor.report("op-b", "interception_attempt")
        fed.monitor.report("op-b", "forged_certificate")
        net = OpenSpaceNetwork.from_federation(fed)
        assert len(net.satellites) == 33

    def test_topology_changes_over_time(self, network):
        early = network.snapshot(0.0)
        late = network.snapshot(1800.0)
        assert (set(early.graph.edges) != set(late.graph.edges))

    def test_route_unreachable_returns_none(self, medium_fleet):
        # No ground stations: routing to one cannot succeed.
        net = OpenSpaceNetwork(medium_fleet[:5], [])
        snap = net.snapshot(0.0)
        assert snap.nearest_ground_station_route(
            medium_fleet[0].satellite_id
        ) is None
