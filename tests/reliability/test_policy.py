"""Tests for graceful-degradation policies (routing + handover)."""

import networkx as nx
import pytest

from repro.core.handover import HandoverScheme, HandoverSimulator
from repro.orbits.contact import ContactWindow
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import (
    NO_RETRY,
    CircuitBreakerRegistry,
    ReliableExchange,
    RetryPolicy,
)
from repro.reliability.policy import (
    ResilientRouter,
    RouteResolution,
    reselect_timeline,
)
from repro.routing.proactive import ProactiveRouter
from tests.fixtures import perfect_channel


class FakeSnapshot:
    def __init__(self, time_s, edges):
        self.time_s = time_s
        self.graph = nx.Graph()
        for u, v, delay in edges:
            self.graph.add_edge(u, v, delay_s=delay, capacity_bps=1e9)


@pytest.fixture
def proactive():
    router = ProactiveRouter()
    router.precompute([
        FakeSnapshot(0.0, [("a", "b", 0.01), ("b", "c", 0.01)]),
    ], horizon_s=100.0)
    return router


@pytest.fixture
def graph():
    snapshot = FakeSnapshot(0.0, [("a", "b", 0.01), ("b", "c", 0.01)])
    return snapshot.graph


class TestDissemination:
    def test_no_exchange_trivially_succeeds(self, proactive, graph):
        router = ResilientRouter(proactive)
        results = router.disseminate(graph, "a", ["b", "c"])
        assert all(result.ok for result in results.values())
        assert router.undisseminated == set()

    def test_lossless_push_disseminates(self, proactive, graph):
        router = ResilientRouter(
            proactive, exchange=ReliableExchange(NO_RETRY),
            channel=perfect_channel(),
        )
        results = router.disseminate(graph, "a", ["b", "c"])
        assert all(result.ok for result in results.values())

    def test_total_loss_marks_undisseminated(self, proactive, graph):
        router = ResilientRouter(
            proactive,
            exchange=ReliableExchange(
                RetryPolicy(max_attempts=2, jitter_fraction=0.0)),
            channel=LossyControlChannel(base_loss=1.0, seed=3),
        )
        results = router.disseminate(graph, "a", ["c"])
        assert not results["c"].ok
        assert "c" in router.undisseminated

    def test_unreachable_source_reported(self, proactive, graph):
        graph.add_node("island")
        router = ResilientRouter(
            proactive, exchange=ReliableExchange(NO_RETRY),
            channel=perfect_channel(),
        )
        results = router.disseminate(graph, "a", ["island"])
        assert results["island"].reason == "unreachable"
        assert "island" in router.undisseminated

    def test_later_success_clears_degraded_mode(self, proactive, graph):
        channel = LossyControlChannel(base_loss=1.0, seed=3)
        router = ResilientRouter(
            proactive, exchange=ReliableExchange(
                RetryPolicy(max_attempts=1, jitter_fraction=0.0)),
            channel=channel,
        )
        router.disseminate(graph, "a", ["c"])
        assert "c" in router.undisseminated
        channel.base_loss = 0.0
        router.disseminate(graph, "a", ["c"])
        assert "c" not in router.undisseminated


class TestRouteFallback:
    def test_disseminated_source_uses_proactive(self, proactive, graph):
        router = ResilientRouter(proactive)
        resolution = router.route("a", "c", 10.0, graph=graph)
        assert resolution.mode == "proactive"
        assert resolution.metrics.path == ["a", "b", "c"]
        assert not resolution.degraded

    def test_undisseminated_source_falls_back(self, proactive, graph):
        router = ResilientRouter(proactive)
        router.undisseminated.add("a")
        resolution = router.route("a", "c", 10.0, graph=graph)
        assert resolution.mode == "on_demand_fallback"
        assert resolution.metrics.path == ["a", "b", "c"]
        assert resolution.extra_delay_s > 0.0
        assert resolution.degraded
        assert router.fallback_count == 1

    def test_table_miss_falls_back(self, proactive, graph):
        router = ResilientRouter(proactive)
        graph.add_edge("c", "d", delay_s=0.01, capacity_bps=1e9)
        resolution = router.route("a", "d", 10.0, graph=graph)
        assert resolution.mode == "on_demand_fallback"
        assert resolution.metrics.path == ["a", "b", "c", "d"]

    def test_miss_without_graph_is_terminal(self, proactive):
        router = ResilientRouter(proactive)
        router.undisseminated.add("a")
        resolution = router.route("a", "c", 10.0)
        assert resolution.mode == "unreachable"
        assert resolution.metrics is None

    def test_unreachable_target_reported(self, proactive, graph):
        router = ResilientRouter(proactive)
        graph.add_node("island")
        resolution = router.route("a", "island", 10.0, graph=graph)
        assert resolution.mode == "unreachable"

    def test_resolution_dataclass_shape(self):
        resolution = RouteResolution(metrics=None, mode="unreachable")
        assert not resolution.degraded
        assert resolution.extra_delay_s == 0.0


class TestReselectTimeline:
    def test_delegates_to_simulator(self):
        windows = [
            ContactWindow(0, 0.0, 300.0, 1.0),
            ContactWindow(1, 100.0, 400.0, 1.0),
        ]
        sim = HandoverSimulator()
        timeline = reselect_timeline(sim, windows, [(0, 150.0, 400.0)],
                                     HandoverScheme.PREDICTIVE, 0.0, 400.0)
        assert timeline.events[-1].to_satellite == 1

    def test_everything_masked_degrades_to_gap(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        sim = HandoverSimulator()
        timeline = reselect_timeline(sim, windows,
                                     [(0, 0.0, float("inf"))],
                                     HandoverScheme.PREDICTIVE, 0.0, 100.0)
        assert timeline.coverage_gap_s == 100.0
        assert timeline.events == []


class TestPackageExports:
    def test_reexports(self):
        import repro.reliability as reliability

        for name in ("LossyControlChannel", "ReliableExchange",
                     "RetryPolicy", "NO_RETRY", "CircuitBreaker",
                     "CircuitBreakerRegistry", "BreakerState",
                     "ResilientRouter", "reselect_timeline"):
            assert hasattr(reliability, name), name


def test_breaker_registry_shared_across_exchanges(graph, proactive):
    registry = CircuitBreakerRegistry(failure_threshold=1)
    auth = ReliableExchange(NO_RETRY, registry, name="auth")
    plan = ReliableExchange(NO_RETRY, registry, name="plan")
    auth.run("shared-link", lambda _i: (False, 0.0), now_s=0.0)
    refused = plan.run("shared-link", lambda _i: (True, 0.01), now_s=1.0)
    assert refused.reason == "circuit-open"
