"""Tests for edge cost models and route metrics."""

import networkx as nx
import pytest

from repro.routing.metrics import (
    DELAY_ONLY,
    EdgeCostModel,
    PROPAGATION_ONLY,
    path_metrics,
)
from tests.routing import oracle
from tests.routing.oracle import GraphSnapshot


@pytest.fixture
def toy_graph():
    """A 4-node graph with a fast-direct and a cheap-detour path."""
    g = nx.Graph()
    g.add_edge("a", "b", delay_s=0.010, capacity_bps=100e6, owner="op1")
    g.add_edge("b", "d", delay_s=0.010, capacity_bps=100e6, owner="op1")
    g.add_edge("a", "c", delay_s=0.005, capacity_bps=1e6, owner="op2",
               tariff_per_gb=10.0, queue_delay_s=0.050)
    g.add_edge("c", "d", delay_s=0.005, capacity_bps=1e6, owner="op2")
    return g


class TestEdgeCostModel:
    def test_propagation_only_uses_delay(self):
        data = {"delay_s": 0.02, "queue_delay_s": 5.0, "tariff_per_gb": 9.0}
        assert PROPAGATION_ONLY.edge_cost(data) == pytest.approx(0.02 + 5.0)

    def test_queue_weight(self):
        model = EdgeCostModel(queue_weight=2.0)
        assert model.edge_cost({"delay_s": 0.01, "queue_delay_s": 0.1}) == (
            pytest.approx(0.21)
        )

    def test_tariff_weight(self):
        model = EdgeCostModel(tariff_weight=0.01)
        assert model.edge_cost({"delay_s": 0.0, "tariff_per_gb": 5.0}) == (
            pytest.approx(0.05)
        )

    def test_bottleneck_penalty(self):
        model = EdgeCostModel(min_capacity_bps=10e6, bottleneck_penalty_s=1.0)
        assert model.edge_cost({"delay_s": 0.0, "capacity_bps": 1e6}) == 1.0
        assert model.edge_cost({"delay_s": 0.0, "capacity_bps": 50e6}) == 0.0

    def test_missing_attributes_default_sanely(self):
        assert EdgeCostModel().edge_cost({}) == 0.0


class TestPathMetrics:
    def test_aggregates_along_path(self, toy_graph):
        metrics = path_metrics(GraphSnapshot(toy_graph), ["a", "c", "d"])
        assert metrics.propagation_delay_s == pytest.approx(0.010)
        assert metrics.queue_delay_s == pytest.approx(0.050)
        assert metrics.total_tariff_per_gb == pytest.approx(10.0)
        assert metrics.bottleneck_capacity_bps == 1e6
        assert metrics.hop_count == 2
        assert metrics.total_delay_ms == pytest.approx(60.0)

    def test_operators_deduplicated_in_order(self, toy_graph):
        snap = GraphSnapshot(toy_graph)
        metrics = path_metrics(snap, ["a", "c", "d"])
        assert metrics.operators == ["op2"]
        cross = path_metrics(snap, ["a", "b", "d"])
        assert cross.operators == ["op1"]

    def test_rejects_short_path(self, toy_graph):
        with pytest.raises(ValueError, match="at least two"):
            path_metrics(GraphSnapshot(toy_graph), ["a"])

    def test_rejects_missing_edge(self, toy_graph):
        with pytest.raises(ValueError, match="not present"):
            path_metrics(GraphSnapshot(toy_graph), ["a", "d"])

    def test_arrays_price_as_the_graph_form(self, toy_graph):
        snap = GraphSnapshot(toy_graph)
        for path in (["a", "c", "d"], ["d", "b", "a", "c"], ["c", "a"]):
            assert path_metrics(snap, path) == oracle.path_metrics(
                toy_graph, path)


class TestShortestPath:
    def test_picks_lowest_total_cost(self, toy_graph):
        # Under propagation+queue cost, the b-route (20 ms) beats the
        # c-route (10 ms prop + 50 ms queue).
        adjacency = GraphSnapshot(toy_graph).csr_adjacency()
        assert adjacency.shortest_path("a", "d") == ["a", "b", "d"]

    def test_pure_delay_model_prefers_detour(self, toy_graph):
        adjacency = GraphSnapshot(toy_graph).csr_adjacency(DELAY_ONLY)
        assert adjacency.shortest_path("a", "d") == ["a", "c", "d"]

    def test_unreachable_returns_none(self, toy_graph):
        toy_graph.add_node("island")
        adjacency = GraphSnapshot(toy_graph).csr_adjacency()
        assert adjacency.shortest_path("a", "island") is None

    def test_unknown_node_returns_none(self, toy_graph):
        adjacency = GraphSnapshot(toy_graph).csr_adjacency()
        assert adjacency.shortest_path("a", "ghost") is None
        assert adjacency.shortest_path("ghost", "a") is None
