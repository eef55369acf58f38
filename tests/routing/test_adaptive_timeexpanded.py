"""Tests for load-adaptive routing and time-expanded store-and-forward."""

import networkx as nx
import numpy as np
import pytest

from repro.core.interop import SizeClass
from repro.orbits.coordinates import GeodeticPoint
from repro.routing.adaptive import (
    LoadAdaptiveRouter,
    StaticNearestRouter,
    gateway_load_profile,
)
from repro.routing.timeexpanded import TimeExpandedRouter
from repro.simulation.flowsim import FlowSimulator
from repro.simulation.scenario import Scenario
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
        router = LoadAdaptiveRouter(two_gateway_snap)
        sim = FlowSimulator(two_gateway_snap, router)
        flows = [FlowSpec(f"f{i}", "u", i * 0.01, 40e6) for i in range(12)]
        result = sim.run(flows)
        profile = gateway_load_profile(result.completed, two_gateway_snap)
        assert profile.get("g2", 0) > 0, "no flow diverted to the idle gateway"
        assert router.diversions > 0

    def test_adaptive_beats_static_under_congestion(self, two_gateway_snap):
        flows = [FlowSpec(f"f{i}", "u", i * 0.01, 40e6) for i in range(12)]
        static = FlowSimulator(
            two_gateway_snap, StaticNearestRouter(two_gateway_snap)
        ).run(flows)
        adaptive = FlowSimulator(
            two_gateway_snap, LoadAdaptiveRouter(two_gateway_snap)
        ).run(flows)
        assert (adaptive.mean_completion_time_s()
                < static.mean_completion_time_s())

    def test_unknown_user_returns_none(self, two_gateway_snap):
        flow = FlowSpec("f1", "ghost", 0.0, 1e6)
        assert LoadAdaptiveRouter(two_gateway_snap)(flow, []) is None


def hotspot_snap():
    """The adaptive-routing ablation's flash crowd: eight users around
    Nairobi on a 66-satellite, two-operator fleet, every ground link
    throttled to at most 150 Mbps."""
    scenario = Scenario(
        name="hotspot", satellite_count=66,
        operator_names=("op-a", "op-b"), size_mix=(SizeClass.MEDIUM,),
        user_count=8, seed=23,
    )
    network = scenario.build_network()
    population = scenario.build_population()
    rng = np.random.default_rng(23)
    for user in population.users:
        user.location = GeodeticPoint(-1.29 + float(rng.normal(0, 1.0)),
                                      36.82 + float(rng.normal(0, 1.0)))
        user.min_elevation_deg = 10.0
    snap = network.snapshot(0.0, users=population.users)
    stations = set(snap.nodes_of_kind("ground_station"))
    at_station = np.array([node in stations for node in snap.nodes])
    edges = snap.edges
    ground = at_station[edges.u] | at_station[edges.v]
    snap.edges = edges._replace(capacity_bps=np.where(
        ground, np.minimum(edges.capacity_bps, 150e6), edges.capacity_bps))
    return snap


def rounded(values):
    """Floats at ten significant digits (the digests' rounding)."""
    return [float(f"{value:.10g}") for value in values]


class TestHotspotPinned:
    """The ablation's 40-flow hotspot, pinned to the completion times,
    rates, gateways and diversions the per-flow allocator produced."""

    @pytest.fixture(scope="class")
    def runs(self):
        snap = hotspot_snap()
        flows = [FlowSpec(f"f{i}", f"user-{i % 8}", start_s=i * 0.05,
                          size_bytes=40e6) for i in range(40)]
        static = FlowSimulator(snap, StaticNearestRouter(snap)).run(flows)
        router = LoadAdaptiveRouter(snap)
        adaptive = FlowSimulator(snap, router).run(flows)
        return snap, static, adaptive, router

    def test_static_run(self, runs):
        snap, static, _, _ = runs
        assert [f.spec.flow_id for f in static.completed] == [
            f"f{i}" for i in range(40)]
        assert rounded(f.completion_time_s for f in static.completed) == [
            78.77624726, 80.67624726, 81.57624726, 82.14291392,
            82.54291392, 82.84291392, 83.07624726, 83.26196154,
            83.41196154, 83.53418376, 83.63418376, 83.71600195,
            83.78266861, 83.83651477, 83.87937191, 83.91270524,
            83.93770524, 83.9553523, 83.96646341, 83.97172657,
            83.97172657, 83.96696466, 83.95787376, 83.94483028,
            83.92816361, 83.90816361, 83.88508669, 83.85916076,
            83.83058933, 83.79955485, 83.76622152, 83.73073765,
            83.69323765, 83.65384371, 83.61266724, 83.56981009,
            83.52536565, 83.4794197, 83.43205128, 83.38333333,
        ]
        assert rounded([static.mean_completion_time_s(),
                        static.mean_throughput_bps()]) == [
            83.38333333, 3838273.409]
        assert gateway_load_profile(static.completed, snap) == {
            "gs-nairobi": 40}

    def test_adaptive_run(self, runs):
        snap, _, adaptive, router = runs
        assert sorted(f.spec.flow_id for f in adaptive.completed) == sorted(
            f"f{i}" for i in range(40))
        assert rounded(f.completion_time_s for f in adaptive.completed) == (
            [2.133333333] * 26 + [
                27.64057304, 28.84057304, 29.09057304, 29.22390637,
                29.29890637, 29.33890637, 29.35557304, 29.35557304,
                29.34307304, 29.32085082, 29.29085082, 29.25448718,
                29.21282051, 29.16666667,
            ])
        assert rounded([adaptive.mean_completion_time_s(),
                        adaptive.mean_throughput_bps()]) == [
            11.58, 101346536.1]
        assert gateway_load_profile(adaptive.completed, snap) == {
            "gs-nairobi": 1, "gs-mumbai": 2, "gs-bahrain": 1,
            "gs-frankfurt": 2, "gs-svalbard": 6, "gs-capetown": 2,
            "gs-ireland": 2, "gs-santiago": 2, "gs-tokyo": 1,
            "gs-saopaulo": 1, "gs-virginia": 2, "gs-anchorage": 3,
            "gs-oregon": 1, "gs-sydney": 14,
        }
        assert router.diversions == 39


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
