"""Tests for the flow-level simulator and max-min fair sharing."""

import networkx as nx
import pytest

from repro.simulation.flowsim import (
    ActiveFlow,
    FlowSimulator,
    link_capacities,
    max_min_fair_rates,
)
from repro.simulation.traffic import FlowSpec
from tests.routing.oracle import GraphSnapshot


def make_flow(flow_id, path, size_bytes=1e6, start_s=0.0):
    spec = FlowSpec(flow_id, path[0], start_s, size_bytes)
    edges = [
        (u, v) if u <= v else (v, u) for u, v in zip(path[:-1], path[1:])
    ]
    return ActiveFlow(spec=spec, path=list(path), edges=edges,
                      remaining_bytes=size_bytes, admitted_at_s=start_s)


class TestMaxMinFair:
    def test_single_flow_gets_bottleneck(self):
        flow = make_flow("f1", ["a", "b", "c"])
        capacities = {("a", "b"): 10e6, ("b", "c"): 4e6}
        max_min_fair_rates([flow], capacities)
        assert flow.rate_bps == pytest.approx(4e6)

    def test_two_flows_share_common_link(self):
        f1 = make_flow("f1", ["a", "b"])
        f2 = make_flow("f2", ["a", "b"])
        max_min_fair_rates([f1, f2], {("a", "b"): 10e6})
        assert f1.rate_bps == pytest.approx(5e6)
        assert f2.rate_bps == pytest.approx(5e6)

    def test_classic_three_flow_example(self):
        # f1: A-B (cap 10), f2: B-C (cap 4), f3: A-B-C.
        # f3 is bottlenecked at B-C: f2=f3=2; f1 then gets 10-2=8.
        f1 = make_flow("f1", ["a", "b"])
        f2 = make_flow("f2", ["b", "c"])
        f3 = make_flow("f3", ["a", "b", "c"])
        capacities = {("a", "b"): 10e6, ("b", "c"): 4e6}
        max_min_fair_rates([f1, f2, f3], capacities)
        assert f2.rate_bps == pytest.approx(2e6)
        assert f3.rate_bps == pytest.approx(2e6)
        assert f1.rate_bps == pytest.approx(8e6)

    def test_rates_never_exceed_any_capacity(self):
        flows = [make_flow(f"f{i}", ["a", "b", "c"]) for i in range(5)]
        capacities = {("a", "b"): 7e6, ("b", "c"): 3e6}
        max_min_fair_rates(flows, capacities)
        for edge, cap in capacities.items():
            used = sum(f.rate_bps for f in flows if edge in f.edges)
            assert used <= cap * (1 + 1e-9)

    def test_empty_flow_set(self):
        max_min_fair_rates([], {("a", "b"): 1e6})  # must not raise

    def test_single_shared_bottleneck_splits_evenly(self):
        flows = [make_flow(f"f{i}", ["a", "b"]) for i in range(4)]
        max_min_fair_rates(flows, {("a", "b"): 8e6})
        for flow in flows:
            assert flow.rate_bps == pytest.approx(2e6)

    def test_zero_capacity_link_starves_its_flows(self):
        dead = make_flow("dead", ["a", "b"])
        alive = make_flow("alive", ["b", "c"])
        max_min_fair_rates([dead, alive],
                           {("a", "b"): 0.0, ("b", "c"): 5e6})
        assert dead.rate_bps == pytest.approx(0.0)
        assert alive.rate_bps == pytest.approx(5e6)

    def test_flow_crossing_no_finite_capacity_is_unconstrained(self):
        capped = make_flow("capped", ["a", "b"])
        free = make_flow("free", ["b", "c"])
        max_min_fair_rates([capped, free],
                           {("a", "b"): 5e6, ("b", "c"): float("inf")})
        assert capped.rate_bps == pytest.approx(5e6)
        assert free.rate_bps == float("inf")

    def test_fairness_invariant_no_flow_below_fair_share(self):
        # On every edge, a flow's rate may fall below the edge's equal
        # split only because it is bottlenecked elsewhere — never below
        # the smallest equal split along its own path.
        flows = [
            make_flow("f1", ["a", "b"]),
            make_flow("f2", ["a", "b", "c"]),
            make_flow("f3", ["b", "c", "d"]),
            make_flow("f4", ["a", "b", "c", "d"]),
        ]
        capacities = {("a", "b"): 9e6, ("b", "c"): 6e6, ("c", "d"): 4e6}
        max_min_fair_rates(flows, capacities)
        shares_per_edge = {
            edge: sum(1 for f in flows if edge in f.edges)
            for edge in capacities
        }
        for flow in flows:
            fair_share = min(
                capacities[edge] / shares_per_edge[edge]
                for edge in flow.edges
            )
            assert flow.rate_bps >= fair_share * (1 - 1e-9)


@pytest.fixture
def simple_links():
    """The 8 Mbps links of a user-satellite-gateway chain."""
    g = nx.Graph()
    g.add_node("u", kind="user")
    g.add_node("s", kind="satellite")
    g.add_node("g1", kind="ground_station")
    g.add_edge("u", "s", delay_s=0.003, capacity_bps=8e6)
    g.add_edge("s", "g1", delay_s=0.003, capacity_bps=8e6)
    return link_capacities(GraphSnapshot(g))


def fixed_router(path):
    def route(_flow, _active):
        return path
    return route


class TestFlowSimulator:
    def test_single_flow_completion_time(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6)]  # 8 Mb over 8 Mbps = 1 s
        result = sim.run(flows)
        assert len(result.completed) == 1
        assert result.completed[0].completion_time_s == pytest.approx(1.0)
        assert result.completed[0].mean_rate_bps == pytest.approx(8e6)
        assert result.completed[0].path == ("u", "s", "g1")

    def test_two_overlapping_flows_share(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6), FlowSpec("f2", "u", 0.0, 1e6)]
        result = sim.run(flows)
        assert len(result.completed) == 2
        # Fair sharing: both finish at 2 s.
        for record in result.completed:
            assert record.finish_s == pytest.approx(2.0)
        assert result.peak_concurrent_flows == 2

    def test_staggered_arrivals(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6), FlowSpec("f2", "u", 0.5, 1e6)]
        result = sim.run(flows)
        by_id = {r.spec.flow_id: r for r in result.completed}
        # f1 runs alone 0-0.5 s (4 Mb done), then shares at 4 Mbps until
        # its remaining 4 Mb finish at 1.5 s; f2 then runs alone at
        # 8 Mbps and its remaining 4 Mb finish at 2.0 s.
        assert by_id["f1"].finish_s == pytest.approx(1.5)
        assert by_id["f2"].finish_s == pytest.approx(2.0)

    def test_uncapacitated_path_completes_at_admission(self):
        # An edge without capacity_bps has infinite capacity, so the
        # flow is never starved: it finishes the instant it arrives.
        graph = nx.Graph()
        graph.add_edge("u", "s")
        sim = FlowSimulator(link_capacities(GraphSnapshot(graph)),
                            fixed_router(["u", "s"]))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert len(result.completed) == 1
        assert result.rejected == []
        assert result.completed[0].finish_s == 0.0

    def test_rejection_when_no_route(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(None))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert result.acceptance_ratio == 0.0
        assert len(result.rejected) == 1
        assert not result.rejected[0].completed

    def test_unknown_edge_raises(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(["u", "g1"]))
        with pytest.raises(ValueError, match="without a capacity"):
            sim.run([FlowSpec("f1", "u", 0.0, 1e6)])

    def test_capacity_keys_in_either_order(self):
        sim = FlowSimulator({("s", "u"): 8e6}, fixed_router(["u", "s"]))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert result.completed[0].completion_time_s == pytest.approx(1.0)

    def test_empty_workload(self, simple_links):
        result = FlowSimulator(
            simple_links, fixed_router(["u", "s", "g1"])
        ).run([])
        assert result.acceptance_ratio == 0.0
        assert result.completed == []

    def test_aggregate_metrics(self, simple_links):
        sim = FlowSimulator(simple_links, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec(f"f{i}", "u", float(i), 1e6) for i in range(4)]
        result = sim.run(flows)
        assert result.acceptance_ratio == 1.0
        assert result.mean_completion_time_s() > 0.0
        assert result.mean_throughput_bps() > 0.0
