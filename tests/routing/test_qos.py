"""Tests for heterogeneity/QoS-aware routing."""

import networkx as nx
import numpy as np
import pytest

from repro.core.interop import SizeClass
from repro.routing.qos import (
    BEST_EFFORT,
    PREMIUM,
    QosRequirement,
    QosRouter,
    STANDARD,
)
from repro.simulation.scenario import Scenario
from tests.routing import oracle
from tests.routing.oracle import GraphSnapshot


@pytest.fixture
def hetero_snap():
    """Two parallel routes: thin cheap RF and fat expensive optical."""
    g = nx.Graph()
    g.add_edge("src", "rf1", delay_s=0.008, capacity_bps=2e6, owner="op-a",
               tariff_per_gb=0.02)
    g.add_edge("rf1", "dst", delay_s=0.008, capacity_bps=2e6, owner="op-a",
               tariff_per_gb=0.02)
    g.add_edge("src", "opt1", delay_s=0.012, capacity_bps=1e9, owner="op-b",
               tariff_per_gb=0.10)
    g.add_edge("opt1", "dst", delay_s=0.012, capacity_bps=1e9, owner="op-b",
               tariff_per_gb=0.10)
    return GraphSnapshot(g)


class TestRequirement:
    def test_bandwidth_filter(self, hetero_snap):
        # A 10 Mbps floor prices the 2 Mbps RF hops out of the search.
        req = QosRequirement(min_bandwidth_bps=10e6)
        result = QosRouter().route(hetero_snap, "src", "dst", req)
        assert result.metrics.path == ["src", "opt1", "dst"]
        assert result.metrics.bottleneck_capacity_bps >= 10e6


class TestRouter:
    def test_best_effort_takes_cheapest(self, hetero_snap):
        result = QosRouter().route(hetero_snap, "src", "dst", BEST_EFFORT)
        assert result.admitted
        assert result.metrics.path == ["src", "rf1", "dst"]

    def test_premium_forced_onto_optical(self, hetero_snap):
        result = QosRouter().route(hetero_snap, "src", "dst", PREMIUM)
        assert result.admitted
        assert result.metrics.path == ["src", "opt1", "dst"]
        assert result.metrics.bottleneck_capacity_bps == 1e9

    def test_impossible_bandwidth_rejected(self, hetero_snap):
        req = QosRequirement(min_bandwidth_bps=10e9)
        result = QosRouter().route(hetero_snap, "src", "dst", req)
        assert not result.admitted
        assert "no path satisfies" in result.rejection_reason

    def test_delay_bound_enforced_end_to_end(self, hetero_snap):
        req = QosRequirement(max_end_to_end_delay_s=0.001)
        result = QosRouter().route(hetero_snap, "src", "dst", req)
        assert not result.admitted
        assert "exceeds" in result.rejection_reason
        assert result.metrics is not None  # best path is still reported

    def test_unknown_endpoint(self, hetero_snap):
        result = QosRouter().route(hetero_snap, "src", "ghost", BEST_EFFORT)
        assert not result.admitted
        assert "endpoint" in result.rejection_reason

    def test_admissible_service_classes(self, hetero_snap):
        router = QosRouter()
        classes = [BEST_EFFORT, STANDARD, PREMIUM,
                   QosRequirement(min_bandwidth_bps=10e9)]
        admitted = [
            requirement for requirement in classes
            if router.route(hetero_snap, "src", "dst", requirement).admitted
        ]
        assert BEST_EFFORT in admitted
        assert PREMIUM in admitted
        assert len(admitted) == 3

    def test_tariff_aware_cost_model_avoids_expensive_route(self, hetero_snap):
        from repro.routing.metrics import EdgeCostModel
        router = QosRouter(EdgeCostModel(tariff_weight=1.0))
        result = router.route(hetero_snap, "src", "dst", BEST_EFFORT)
        assert result.metrics.path == ["src", "rf1", "dst"]


class TestGraphReferee:
    def test_routes_match_the_graph_view(self):
        # On a mixed RF/laser federation with users, every QoS route is
        # the networkx referee's path over the snapshot's graph view,
        # with inadmissible edges hidden, and prices as the graph form.
        scenario = Scenario(
            name="qos-referee", satellite_count=24,
            operator_names=("op-a", "op-b"),
            size_mix=(SizeClass.SMALL, SizeClass.MEDIUM), user_count=4,
            seed=5,
        )
        network = scenario.build_network()
        snap = network.snapshot(600.0,
                                users=scenario.build_population().users)
        router = QosRouter()
        sources = snap.nodes_of_kind("user") + snap.nodes[:4]
        targets = snap.nodes_of_kind("ground_station")[:5]
        rng = np.random.default_rng(3)
        routed = 0
        for requirement in (BEST_EFFORT, STANDARD, PREMIUM):
            def weight(_u, _v, data, floor=requirement.min_bandwidth_bps):
                if data["capacity_bps"] < floor:
                    return None
                return router.cost_model.edge_cost(data)

            for source in sources:
                target = targets[int(rng.integers(len(targets)))]
                result = router.route(snap, source, target, requirement)
                expected = oracle.path(snap.graph, source, target, weight)
                if expected is None:
                    assert result.metrics is None
                    continue
                routed += 1
                assert result.metrics.path == expected
                assert result.metrics == oracle.path_metrics(snap.graph,
                                                             expected)
        assert routed > 0
