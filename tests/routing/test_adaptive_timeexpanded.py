"""Tests for load-adaptive routing and time-expanded store-and-forward."""

import networkx as nx
import pytest

from repro.routing.adaptive import (
    LoadAdaptiveRouter,
    StaticNearestRouter,
    gateway_load_profile,
)
from repro.routing.timeexpanded import TimeExpandedRouter
from repro.simulation.flowsim import FlowSimulator, link_capacities
from repro.simulation.traffic import FlowSpec
from tests.routing.oracle import GraphSnapshot


@pytest.fixture
def two_gateway_snap():
    """Near-thin gateway g1 vs far-fat gateway g2."""
    g = nx.Graph()
    g.add_node("u", kind="user")
    g.add_node("s", kind="satellite")
    g.add_node("g1", kind="ground_station")
    g.add_node("g2", kind="ground_station")
    g.add_edge("u", "s", delay_s=0.003, capacity_bps=1e9)
    g.add_edge("s", "g1", delay_s=0.003, capacity_bps=20e6)
    g.add_edge("s", "g2", delay_s=0.020, capacity_bps=1e9)
    return GraphSnapshot(g)


class TestStaticNearestRouter:
    def test_always_nearest(self, two_gateway_snap):
        router = StaticNearestRouter(two_gateway_snap)
        flow = FlowSpec("f1", "u", 0.0, 1e6)
        path = router(flow, [])
        assert path == ["u", "s", "g1"]

    def test_unknown_user(self, two_gateway_snap):
        flow = FlowSpec("f1", "ghost", 0.0, 1e6)
        assert StaticNearestRouter(two_gateway_snap)(flow, []) is None

    def test_no_gateways(self):
        g = nx.Graph()
        g.add_node("u", kind="user")
        flow = FlowSpec("f1", "u", 0.0, 1e6)
        assert StaticNearestRouter(GraphSnapshot(g))(flow, []) is None


class TestLoadAdaptiveRouter:
    def test_idle_network_takes_nearest(self, two_gateway_snap):
        router = LoadAdaptiveRouter(two_gateway_snap)
        flow = FlowSpec("f1", "u", 0.0, 1e6)
        path = router(flow, [])
        assert path == ["u", "s", "g1"]
        assert router.diversions == 0

    def test_diverts_under_load(self, two_gateway_snap):
        """The paper's Q2 behaviour: re-route to a farther idle gateway."""
        router = LoadAdaptiveRouter(two_gateway_snap,
                                    assumed_flow_rate_bps=10e6)
        sim = FlowSimulator(link_capacities(two_gateway_snap), router)
        flows = [FlowSpec(f"f{i}", "u", i * 0.01, 40e6) for i in range(12)]
        result = sim.run(flows)
        profile = gateway_load_profile(result.completed, two_gateway_snap)
        assert profile.get("g2", 0) > 0, "no flow diverted to the idle gateway"
        assert router.diversions > 0

    def test_adaptive_beats_static_under_congestion(self, two_gateway_snap):
        flows = [FlowSpec(f"f{i}", "u", i * 0.01, 40e6) for i in range(12)]
        capacities = link_capacities(two_gateway_snap)
        static = FlowSimulator(
            capacities, StaticNearestRouter(two_gateway_snap)
        ).run(flows)
        adaptive = FlowSimulator(
            capacities, LoadAdaptiveRouter(two_gateway_snap)
        ).run(flows)
        assert (adaptive.mean_completion_time_s()
                < static.mean_completion_time_s())

    def test_unknown_user_returns_none(self, two_gateway_snap):
        flow = FlowSpec("f1", "ghost", 0.0, 1e6)
        assert LoadAdaptiveRouter(two_gateway_snap)(flow, []) is None


class TestNearestGatewayTie:
    def test_first_listed_of_two_equal_cost_gateways(self):
        # Listed first but named last: neither a last-index argmin nor a
        # by-name order picks it.
        g = nx.Graph()
        g.add_node("u", kind="user")
        g.add_node("s", kind="satellite")
        for gateway in ("g-zulu", "g-alpha"):
            g.add_node(gateway, kind="ground_station")
            g.add_edge("s", gateway, delay_s=0.004, capacity_bps=1e9)
        g.add_edge("u", "s", delay_s=0.003, capacity_bps=1e9)
        flow = FlowSpec("f1", "u", 0.0, 1e6)
        snap = GraphSnapshot(g)
        adaptive = LoadAdaptiveRouter(snap)
        assert StaticNearestRouter(snap)(flow, []) == ["u", "s", "g-zulu"]
        assert adaptive(flow, []) == ["u", "s", "g-zulu"]
        assert adaptive.diversions == 0


def contact_epoch(time_s, edges):
    """One contact epoch over a, b, c: ``(u, v, delay)`` contacts."""
    graph = nx.Graph()
    graph.add_nodes_from(["a", "b", "c"])
    for u, v, delay in edges:
        graph.add_edge(u, v, delay_s=delay)
    return GraphSnapshot(graph, time_s)


class TestTimeExpandedRouter:
    @pytest.fixture
    def intermittent(self):
        """a-b contact in epoch 0; b-c contact only in epoch 2."""
        return [
            contact_epoch(0.0, [("a", "b", 0.01)]),
            contact_epoch(60.0, []),
            contact_epoch(120.0, [("b", "c", 0.01)]),
        ]

    def test_store_and_forward_delivery(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("a", "c", departure_s=0.0)
        assert route is not None
        # Bundle hops a->b at epoch 0, waits 2 epochs, hops b->c.
        assert route.epochs_waited == 2
        assert route.arrival_s == pytest.approx(120.0 + 0.02)
        hop_pairs = [(u, v) for _t, u, v in route.hops]
        assert hop_pairs == [("a", "b"), ("b", "c")]

    def test_instantaneous_path_when_available(self):
        snaps = [contact_epoch(0.0, [("a", "b", 0.01), ("b", "c", 0.01)])]
        router = TimeExpandedRouter(snaps)
        route = router.earliest_arrival("a", "c", 0.0)
        assert route.epochs_waited == 0
        assert route.delivery_delay_s == pytest.approx(0.02)

    def test_undeliverable_within_horizon(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        # c never hears from anyone before epoch 2; departing from c,
        # nothing reaches a... actually c-b at epoch 2 then b cannot reach
        # a (a-b contact was epoch 0 only).
        assert router.earliest_arrival("c", "a", 0.0) is None

    def test_departure_in_later_epoch(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        # Departing after the a-b contact epoch has passed: undeliverable.
        assert router.earliest_arrival("a", "c", 125.0) is None

    def test_departure_before_plan_rejected(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        with pytest.raises(ValueError, match="precedes"):
            router.earliest_arrival("a", "c", -5.0)

    def test_unknown_entities(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        assert router.earliest_arrival("ghost", "c", 0.0) is None
        assert router.earliest_arrival("a", "ghost", 0.0) is None

    def test_delivery_ratio(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        ratio = router.delivery_ratio(
            [("a", "c"), ("c", "a"), ("a", "b")], 0.0
        )
        assert ratio == pytest.approx(2 / 3)

    def test_unordered_snapshots_rejected(self, intermittent):
        with pytest.raises(ValueError, match="time-ordered"):
            TimeExpandedRouter([intermittent[2], intermittent[0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeExpandedRouter([])
