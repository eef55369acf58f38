"""Tests for regional regulation and data-sovereignty policy."""

import networkx as nx
import pytest

from repro.core.policy import PolicyRegistry, Region, policy_adjacency
from repro.ground.station import default_station_network
from repro.orbits.coordinates import GeodeticPoint
from repro.routing.metrics import DELAY_ONLY, path_metrics
from tests.routing import oracle
from tests.routing.oracle import GraphSnapshot


class TestRegion:
    def test_contains_basic(self):
        region = Region("test", -10.0, 10.0, -20.0, 20.0)
        assert region.contains(GeodeticPoint(0.0, 0.0))
        assert not region.contains(GeodeticPoint(11.0, 0.0))
        assert not region.contains(GeodeticPoint(0.0, 21.0))

    def test_antimeridian_wrap(self):
        pacific = Region("pacific", -30.0, 30.0, 150.0, -150.0)
        assert pacific.contains(GeodeticPoint(0.0, 170.0))
        assert pacific.contains(GeodeticPoint(0.0, -170.0))
        assert not pacific.contains(GeodeticPoint(0.0, 0.0))

    def test_invalid_lat_box(self):
        with pytest.raises(ValueError, match="min_lat"):
            Region("bad", 10.0, -10.0, 0.0, 1.0)


class TestPolicyRegistry:
    @pytest.fixture
    def registry(self):
        return PolicyRegistry()

    def test_default_world_partition(self, registry):
        assert registry.region_of(GeodeticPoint(50.1, 8.7)).name == "europe"
        assert registry.region_of(GeodeticPoint(-1.29, 36.82)).name == "africa"
        assert registry.region_of(GeodeticPoint(40.0, -100.0)).name == (
            "north-america"
        )

    def test_open_seas(self, registry):
        # Middle of the South Pacific.
        assert registry.region_of(GeodeticPoint(-40.0, -120.0)) is None

    def test_region_by_name(self, registry):
        by_name = {region.name: region for region in registry.regions}
        assert by_name["europe"].data_residency
        assert "atlantis" not in by_name

    def test_duplicate_names_rejected(self):
        region = Region("x", 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            PolicyRegistry([region, region])

    def test_station_regions(self, registry):
        mapping = registry.station_regions(default_station_network())
        assert mapping["gs-frankfurt"] == "europe"
        assert mapping["gs-nairobi"] == "africa"
        assert mapping["gs-svalbard"] == "polar"

    def test_eu_residency_restricts_gateways(self, registry):
        stations = default_station_network()
        allowed = registry.compliant_gateways(GeodeticPoint(50.1, 8.7),
                                              stations)
        assert allowed == {"gs-frankfurt", "gs-ireland"}

    def test_non_residency_region_unrestricted(self, registry):
        stations = default_station_network()
        allowed = registry.compliant_gateways(GeodeticPoint(-1.29, 36.82),
                                              stations)
        assert len(allowed) == len(stations)


class TestApplyPolicyToGraph:
    """The policy as a node mask on the snapshot's CSR compile."""

    def test_noncompliant_gateways_removed(self):
        g = nx.Graph()
        g.add_node("u", kind="user")
        g.add_node("s", kind="satellite")
        g.add_node("g-eu", kind="ground_station")
        g.add_node("g-us", kind="ground_station")
        g.add_edge("u", "s", delay_s=0.01)
        g.add_edge("s", "g-eu", delay_s=0.01)
        g.add_edge("s", "g-us", delay_s=0.005)
        adjacency = policy_adjacency(GraphSnapshot(g), {"g-eu"}, DELAY_ONLY)
        search = adjacency.single_source("u")
        # The masked gateway keeps its index but no edge reaches it, so
        # any path found is compliant by construction.
        assert search.path("u", "g-us") is None
        assert search.path("u", "g-eu") == ["u", "s", "g-eu"]

    def test_policy_may_cost_latency(self, network):
        """EU residency forces an EU gateway even when farther."""
        from repro.ground.user import UserTerminal
        registry = PolicyRegistry()
        user = UserTerminal("eu-user", GeodeticPoint(38.9, -77.4 + 120.0),
                            "acme", min_elevation_deg=10.0)
        # Place the user inside Europe for the residency constraint.
        user.location = GeodeticPoint(48.9, 2.35)  # Paris
        snap = network.snapshot(0.0, users=[user])
        unconstrained = snap.nearest_ground_station_route(user.user_id)
        allowed = registry.compliant_gateways(
            user.location, network.ground_stations
        )
        adjacency = policy_adjacency(snap, allowed, DELAY_ONLY)
        # At t = 0 Paris reaches Frankfurt over compliant hops; a lost
        # path is a policy regression, not a reason to skip.
        path = adjacency.shortest_path(user.user_id, "gs-frankfurt")
        assert path is not None
        # The referee: networkx over the view without the other gateways.
        view = nx.subgraph_view(
            snap.graph, filter_node=lambda node: node in allowed
            or snap.graph.nodes[node]["kind"] != "ground_station")
        assert path == nx.dijkstra_path(view, user.user_id, "gs-frankfurt",
                                        weight=oracle.delay_weight)
        constrained = path_metrics(snap, path)
        assert constrained.path[-1] in allowed
        assert (constrained.total_delay_s
                >= unconstrained.total_delay_s - 1e-9)
