"""Tests for heterogeneity/QoS-aware routing."""

import networkx as nx
import pytest

from repro.isl.link import LinkTechnology
from repro.routing.qos import (
    BEST_EFFORT,
    PREMIUM,
    QosRequirement,
    QosRouter,
    STANDARD,
)


class FakeLink:
    def __init__(self, technology):
        self.technology = technology


@pytest.fixture
def hetero_graph():
    """Two parallel routes: thin cheap RF and fat expensive optical."""
    g = nx.Graph()
    g.add_edge("src", "rf1", delay_s=0.008, capacity_bps=2e6, owner="op-a",
               tariff_per_gb=0.02, link=FakeLink(LinkTechnology.RF_SBAND))
    g.add_edge("rf1", "dst", delay_s=0.008, capacity_bps=2e6, owner="op-a",
               tariff_per_gb=0.02, link=FakeLink(LinkTechnology.RF_SBAND))
    g.add_edge("src", "opt1", delay_s=0.012, capacity_bps=1e9, owner="op-b",
               tariff_per_gb=0.10, link=FakeLink(LinkTechnology.OPTICAL))
    g.add_edge("opt1", "dst", delay_s=0.012, capacity_bps=1e9, owner="op-b",
               tariff_per_gb=0.10, link=FakeLink(LinkTechnology.OPTICAL))
    return g


class TestRequirement:
    def test_bandwidth_filter(self):
        req = QosRequirement(min_bandwidth_bps=10e6)
        assert not req.admits_edge({"capacity_bps": 2e6})
        assert req.admits_edge({"capacity_bps": 100e6})

    def test_tariff_filter(self):
        req = QosRequirement(max_tariff_per_gb=0.05)
        assert not req.admits_edge({"tariff_per_gb": 0.10})
        assert req.admits_edge({"tariff_per_gb": 0.02})
        assert req.admits_edge({})  # no tariff attribute = free

    def test_forbidden_operator(self):
        req = QosRequirement(forbidden_operators=frozenset({"evil"}))
        assert not req.admits_edge({"owner": "evil"})
        assert req.admits_edge({"owner": "good"})

    def test_optical_only(self):
        req = QosRequirement(require_optical_only=True)
        assert req.admits_edge({"link": FakeLink(LinkTechnology.OPTICAL)})
        assert not req.admits_edge({"link": FakeLink(LinkTechnology.RF_UHF)})
        assert not req.admits_edge({})  # no link info = not provably optical


class TestRouter:
    def test_best_effort_takes_cheapest(self, hetero_graph):
        result = QosRouter().route(hetero_graph, "src", "dst", BEST_EFFORT)
        assert result.admitted
        assert result.metrics.path == ["src", "rf1", "dst"]

    def test_premium_forced_onto_optical(self, hetero_graph):
        result = QosRouter().route(hetero_graph, "src", "dst", PREMIUM)
        assert result.admitted
        assert result.metrics.path == ["src", "opt1", "dst"]
        assert result.metrics.bottleneck_capacity_bps == 1e9

    def test_impossible_bandwidth_rejected(self, hetero_graph):
        req = QosRequirement(min_bandwidth_bps=10e9)
        result = QosRouter().route(hetero_graph, "src", "dst", req)
        assert not result.admitted
        assert "no path satisfies" in result.rejection_reason

    def test_delay_bound_enforced_end_to_end(self, hetero_graph):
        req = QosRequirement(max_end_to_end_delay_s=0.001)
        result = QosRouter().route(hetero_graph, "src", "dst", req)
        assert not result.admitted
        assert "exceeds" in result.rejection_reason
        assert result.metrics is not None  # best path is still reported

    def test_unknown_endpoint(self, hetero_graph):
        result = QosRouter().route(hetero_graph, "src", "ghost", BEST_EFFORT)
        assert not result.admitted
        assert "endpoint" in result.rejection_reason

    def test_forbidden_operator_detours(self, hetero_graph):
        req = QosRequirement(forbidden_operators=frozenset({"op-a"}))
        result = QosRouter().route(hetero_graph, "src", "dst", req)
        assert result.admitted
        assert result.metrics.operators == ["op-b"]

    def test_optical_only_class(self, hetero_graph):
        req = QosRequirement(require_optical_only=True)
        result = QosRouter().route(hetero_graph, "src", "dst", req)
        assert result.admitted
        assert result.metrics.path == ["src", "opt1", "dst"]

    def test_admissible_service_classes(self, hetero_graph):
        router = QosRouter()
        classes = [BEST_EFFORT, STANDARD, PREMIUM,
                   QosRequirement(min_bandwidth_bps=10e9)]
        admitted = [
            requirement for requirement in classes
            if router.route(hetero_graph, "src", "dst", requirement).admitted
        ]
        assert BEST_EFFORT in admitted
        assert PREMIUM in admitted
        assert len(admitted) == 3

    def test_tariff_aware_cost_model_avoids_expensive_route(self, hetero_graph):
        from repro.routing.metrics import EdgeCostModel
        router = QosRouter(EdgeCostModel(tariff_weight=1.0))
        result = router.route(hetero_graph, "src", "dst", BEST_EFFORT)
        assert result.metrics.path == ["src", "rf1", "dst"]
