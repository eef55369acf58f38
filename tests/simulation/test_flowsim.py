"""Tests for the flow-level simulator and max-min fair sharing."""

import networkx as nx
import numpy as np
import pytest

from repro.demand.fluid import waterfill_rates
from repro.simulation.flowsim import FlowSimulator
from repro.simulation.traffic import FlowSpec
from tests.routing.oracle import GraphSnapshot
from tests.simulation.oracle import max_min_fair_rates


def allocate(paths, capacities):
    """Max-min fair rates of flows along node ``paths``, from the
    referee, after holding the simulator's allocator (the waterfill at
    infinite demand) to them within 1e-12 relative."""
    links = [[tuple(sorted(hop)) for hop in zip(path[:-1], path[1:])]
             for path in paths]
    rates = max_min_fair_rates(links, capacities)
    slot = {link: i for i, link in enumerate(capacities)}
    fluid, _, converged = waterfill_rates(
        np.full(len(paths), np.inf),
        np.array([flow for flow, hops in enumerate(links) for _ in hops],
                 dtype=np.int64),
        np.array([slot[link] for hops in links for link in hops],
                 dtype=np.int64),
        np.array(list(capacities.values())),
    )
    assert converged
    referee = np.array(rates)
    assert np.array_equal(np.isinf(fluid), np.isinf(referee))
    finite = np.isfinite(referee)
    assert np.all(np.abs(fluid[finite] - referee[finite])
                  <= 1e-12 * np.abs(referee[finite]))
    return rates


class TestMaxMinFair:
    def test_single_flow_gets_bottleneck(self):
        capacities = {("a", "b"): 10e6, ("b", "c"): 4e6}
        (rate,) = allocate([["a", "b", "c"]], capacities)
        assert rate == pytest.approx(4e6)

    def test_two_flows_share_common_link(self):
        rates = allocate([["a", "b"], ["a", "b"]], {("a", "b"): 10e6})
        assert rates == [pytest.approx(5e6), pytest.approx(5e6)]

    def test_classic_three_flow_example(self):
        # f1: A-B (cap 10), f2: B-C (cap 4), f3: A-B-C.
        # f3 is bottlenecked at B-C: f2=f3=2; f1 then gets 10-2=8.
        capacities = {("a", "b"): 10e6, ("b", "c"): 4e6}
        f1, f2, f3 = allocate([["a", "b"], ["b", "c"], ["a", "b", "c"]],
                              capacities)
        assert f2 == pytest.approx(2e6)
        assert f3 == pytest.approx(2e6)
        assert f1 == pytest.approx(8e6)

    def test_rates_never_exceed_any_capacity(self):
        paths = [["a", "b", "c"]] * 5
        capacities = {("a", "b"): 7e6, ("b", "c"): 3e6}
        rates = allocate(paths, capacities)
        for cap in capacities.values():
            assert sum(rates) <= cap * (1 + 1e-9)

    def test_empty_flow_set(self):
        assert allocate([], {("a", "b"): 1e6}) == []

    def test_single_shared_bottleneck_splits_evenly(self):
        rates = allocate([["a", "b"]] * 4, {("a", "b"): 8e6})
        assert rates == [pytest.approx(2e6)] * 4

    def test_zero_capacity_link_starves_its_flows(self):
        dead, alive = allocate([["a", "b"], ["b", "c"]],
                               {("a", "b"): 0.0, ("b", "c"): 5e6})
        assert dead == pytest.approx(0.0)
        assert alive == pytest.approx(5e6)

    def test_flow_crossing_no_finite_capacity_is_unconstrained(self):
        capped, free = allocate([["a", "b"], ["b", "c"]],
                                {("a", "b"): 5e6, ("b", "c"): float("inf")})
        assert capped == pytest.approx(5e6)
        assert free == float("inf")

    def test_fairness_invariant_no_flow_below_fair_share(self):
        # On every edge, a flow's rate may fall below the edge's equal
        # split only because it is bottlenecked elsewhere — never below
        # the smallest equal split along its own path.
        paths = [["a", "b"], ["a", "b", "c"], ["b", "c", "d"],
                 ["a", "b", "c", "d"]]
        capacities = {("a", "b"): 9e6, ("b", "c"): 6e6, ("c", "d"): 4e6}
        rates = allocate(paths, capacities)
        links = [set(zip(path[:-1], path[1:])) for path in paths]
        shares_per_edge = {
            edge: sum(1 for hops in links if edge in hops)
            for edge in capacities
        }
        for rate, hops in zip(rates, links):
            fair_share = min(
                capacities[edge] / shares_per_edge[edge] for edge in hops
            )
            assert rate >= fair_share * (1 - 1e-9)


@pytest.fixture
def simple_snap():
    """A user-satellite-gateway chain of 8 Mbps links."""
    g = nx.Graph()
    g.add_node("u", kind="user")
    g.add_node("s", kind="satellite")
    g.add_node("g1", kind="ground_station")
    g.add_edge("u", "s", delay_s=0.003, capacity_bps=8e6)
    g.add_edge("s", "g1", delay_s=0.003, capacity_bps=8e6)
    return GraphSnapshot(g)


def fixed_router(path):
    def route(_flow, _active):
        return path
    return route


class TestFlowSimulator:
    def test_single_flow_completion_time(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6)]  # 8 Mb over 8 Mbps = 1 s
        result = sim.run(flows)
        assert len(result.completed) == 1
        assert result.completed[0].completion_time_s == pytest.approx(1.0)
        assert result.completed[0].mean_rate_bps == pytest.approx(8e6)
        assert result.completed[0].path == ("u", "s", "g1")

    def test_two_overlapping_flows_share(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6), FlowSpec("f2", "u", 0.0, 1e6)]
        result = sim.run(flows)
        assert len(result.completed) == 2
        # Fair sharing: both finish at 2 s.
        for record in result.completed:
            assert record.finish_s == pytest.approx(2.0)
        assert result.peak_concurrent_flows == 2

    def test_staggered_arrivals(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec("f1", "u", 0.0, 1e6), FlowSpec("f2", "u", 0.5, 1e6)]
        result = sim.run(flows)
        by_id = {r.spec.flow_id: r for r in result.completed}
        # f1 runs alone 0-0.5 s (4 Mb done), then shares at 4 Mbps until
        # its remaining 4 Mb finish at 1.5 s; f2 then runs alone at
        # 8 Mbps and its remaining 4 Mb finish at 2.0 s.
        assert by_id["f1"].finish_s == pytest.approx(1.5)
        assert by_id["f2"].finish_s == pytest.approx(2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_uncapacitated_path_completes_at_admission(self):
        # An edge without capacity_bps has infinite capacity, so the
        # flow is never starved: it finishes the instant it arrives, at
        # an infinite rate the allocator reaches without computing
        # inf - inf.
        graph = nx.Graph()
        graph.add_edge("u", "s")
        sim = FlowSimulator(GraphSnapshot(graph), fixed_router(["u", "s"]))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert len(result.completed) == 1
        assert result.rejected == []
        assert result.completed[0].finish_s == 0.0

    def test_rejection_when_no_route(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(None))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert result.acceptance_ratio == 0.0
        assert len(result.rejected) == 1
        assert not result.rejected[0].completed

    def test_unknown_edge_raises(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(["u", "g1"]))
        with pytest.raises(ValueError, match="no links of the snapshot"):
            sim.run([FlowSpec("f1", "u", 0.0, 1e6)])

    def test_capacity_keys_in_either_order(self):
        # The snapshot lists the link s-u; the route crosses it u -> s.
        graph = nx.Graph()
        graph.add_edge("s", "u", capacity_bps=8e6)
        sim = FlowSimulator(GraphSnapshot(graph), fixed_router(["u", "s"]))
        result = sim.run([FlowSpec("f1", "u", 0.0, 1e6)])
        assert result.completed[0].completion_time_s == pytest.approx(1.0)

    def test_empty_workload(self, simple_snap):
        result = FlowSimulator(
            simple_snap, fixed_router(["u", "s", "g1"])
        ).run([])
        assert result.acceptance_ratio == 0.0
        assert result.completed == []

    def test_aggregate_metrics(self, simple_snap):
        sim = FlowSimulator(simple_snap, fixed_router(["u", "s", "g1"]))
        flows = [FlowSpec(f"f{i}", "u", float(i), 1e6) for i in range(4)]
        result = sim.run(flows)
        assert result.acceptance_ratio == 1.0
        assert result.mean_completion_time_s() > 0.0
        assert result.mean_throughput_bps() > 0.0
