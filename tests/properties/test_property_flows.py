"""Property-based tests for flow simulation and time-expanded routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand.fluid import waterfill_rates
from repro.simulation.flowsim import (
    ActiveFlow,
    FlowSimulator,
    max_min_fair_rates,
)
from repro.simulation.traffic import FlowSpec

#: Finite link capacities and flow demands, with zeros and integer ties
#: (no subnormals: a subnormal capacity's fair share underflows to 0).
AMOUNTS = st.one_of(st.integers(min_value=0, max_value=4).map(float),
                    st.floats(min_value=0.0, max_value=1e9,
                              allow_subnormal=False))


@st.composite
def sharing_instances(draw):
    """1-40 flows over 1-12 links, each flow on at most 4 of them."""
    edge_count = draw(st.integers(min_value=1, max_value=12))
    flow_count = draw(st.integers(min_value=1, max_value=40))
    capacity = np.array(draw(st.lists(AMOUNTS, min_size=edge_count,
                                      max_size=edge_count)))
    demand = np.array(draw(st.lists(AMOUNTS, min_size=flow_count,
                                    max_size=flow_count)))
    paths = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=edge_count - 1),
                 max_size=4, unique=True),
        min_size=flow_count, max_size=flow_count))
    return capacity, demand, paths


def waterfill(capacity, demand, paths):
    entry_flow = [flow for flow, path in enumerate(paths) for _ in path]
    entry_edge = [edge for path in paths for edge in path]
    rates, _, converged = waterfill_rates(
        demand, np.array(entry_flow, dtype=np.int64),
        np.array(entry_edge, dtype=np.int64), capacity)
    assert converged
    return rates


def flowsim_rates(capacity, paths):
    flows = [
        ActiveFlow(spec=FlowSpec(f"f{index}", "u", 0.0, 1e6), path=[],
                   edges=[(f"e{edge}", "x") for edge in path],
                   remaining_bytes=1e6, admitted_at_s=0.0)
        for index, path in enumerate(paths)
    ]
    max_min_fair_rates(flows, {(f"e{edge}", "x"): float(cap)
                               for edge, cap in enumerate(capacity)})
    return np.array([flow.rate_bps for flow in flows])


def assert_max_min_certificate(rates, demand, paths, capacity):
    """Every flow held below its demand crosses a saturated link on
    which no other flow gets more."""
    load = np.zeros(capacity.size)
    top = np.zeros(capacity.size)
    for flow, path in enumerate(paths):
        for edge in path:
            load[edge] += rates[flow]
            top[edge] = max(top[edge], rates[flow])
    saturated = load >= capacity * (1.0 - 1e-9)
    for flow, path in enumerate(paths):
        if rates[flow] < demand[flow]:
            assert any(saturated[edge]
                       and rates[flow] >= top[edge] * (1.0 - 1e-9)
                       for edge in path), (flow, rates, load)


def line_flow(flow_id, size_bytes, start_s=0.0):
    spec = FlowSpec(flow_id, "u", start_s, size_bytes)
    return ActiveFlow(spec=spec, path=["u", "s", "g"],
                      edges=[("s", "u"), ("g", "s")],
                      remaining_bytes=size_bytes, admitted_at_s=start_s)


class TestMaxMinFairProperties:
    @given(count=st.integers(min_value=1, max_value=12),
           capacity=st.floats(min_value=1e5, max_value=1e9))
    def test_identical_flows_get_equal_rates(self, count, capacity):
        flows = [line_flow(f"f{i}", 1e6) for i in range(count)]
        max_min_fair_rates(flows, {("s", "u"): capacity,
                                   ("g", "s"): capacity})
        rates = [f.rate_bps for f in flows]
        assert max(rates) - min(rates) < 1e-6 * capacity
        assert sum(rates) <= capacity * (1 + 1e-9)

    @given(counts=st.lists(st.integers(min_value=1, max_value=6),
                           min_size=2, max_size=4),
           capacity=st.floats(min_value=1e6, max_value=1e8))
    @settings(max_examples=40)
    def test_no_link_oversubscribed(self, counts, capacity):
        # Flows over a shared chain of links of varying lengths.
        nodes = [f"n{i}" for i in range(len(counts) + 1)]
        capacities = {}
        for u, v in zip(nodes[:-1], nodes[1:]):
            key = (u, v) if u <= v else (v, u)
            capacities[key] = capacity
        flows = []
        for index, span in enumerate(counts):
            path = nodes[: span + 1]
            edges = [
                (u, v) if u <= v else (v, u)
                for u, v in zip(path[:-1], path[1:])
            ]
            spec = FlowSpec(f"f{index}", path[0], 0.0, 1e6)
            flows.append(ActiveFlow(spec=spec, path=path, edges=edges,
                                    remaining_bytes=1e6, admitted_at_s=0.0))
        max_min_fair_rates(flows, capacities)
        for key, cap in capacities.items():
            used = sum(f.rate_bps for f in flows if key in f.edges)
            assert used <= cap * (1 + 1e-9)
        assert all(f.rate_bps > 0.0 for f in flows)

    @given(instance=sharing_instances())
    @settings(max_examples=100, deadline=None)
    def test_both_allocators_are_max_min_fair_and_agree(self, instance):
        capacity, demand, paths = instance
        rates = waterfill(capacity, demand, paths)
        assert np.all(rates <= demand)
        assert_max_min_certificate(rates, demand, paths, capacity)
        unbounded = np.full(demand.size, np.inf)
        flowsim = flowsim_rates(capacity, paths)
        assert_max_min_certificate(flowsim, unbounded, paths, capacity)
        # With no demand cap the max-min allocation is unique, so the
        # two allocators may differ only by rounding.
        fluid = waterfill(capacity, unbounded, paths)
        assert np.array_equal(np.isinf(fluid), np.isinf(flowsim))
        finite = np.isfinite(fluid)
        assert np.all(np.abs(fluid[finite] - flowsim[finite])
                      <= 1e-12 * np.maximum(np.abs(fluid[finite]),
                                            np.abs(flowsim[finite])))


class TestFlowSimulatorProperties:
    @given(sizes=st.lists(st.floats(min_value=1e4, max_value=5e6),
                          min_size=1, max_size=8),
           starts=st.lists(st.floats(min_value=0.0, max_value=5.0),
                           min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_conservation_all_admitted_flows_complete(self, sizes, starts):
        count = min(len(sizes), len(starts))
        flows = [
            FlowSpec(f"f{i}", "u", starts[i], sizes[i]) for i in range(count)
        ]
        sim = FlowSimulator({("u", "g"): 10e6}, lambda f, a: ["u", "g"])
        result = sim.run(flows)
        assert len(result.completed) == count
        # Every flow finishes no earlier than its serial transfer time.
        for record in result.completed:
            serial = record.spec.size_bytes * 8.0 / 10e6
            assert record.completion_time_s >= serial * (1 - 1e-9)

    @given(sizes=st.lists(st.floats(min_value=1e5, max_value=5e6),
                          min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_makespan_at_least_total_work(self, sizes):
        flows = [FlowSpec(f"f{i}", "u", 0.0, s) for i, s in enumerate(sizes)]
        result = FlowSimulator({("u", "g"): 8e6},
                               lambda f, a: ["u", "g"]).run(flows)
        makespan = max(r.finish_s for r in result.completed)
        total_work_s = sum(sizes) * 8.0 / 8e6
        assert makespan == pytest.approx(total_work_s, rel=1e-6)
