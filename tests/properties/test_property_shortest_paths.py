"""Property-based tests: CSR shortest paths against the networkx oracle.

Over random graphs — float and zero delays, disconnected parts, excluded
nodes, undirected and directed graphs, cost models and weight callables
that drop edges with ``None`` or ``inf`` — every CSR distance must equal
the oracle's bit for bit, and every reconstructed path must start and
end where asked, avoid excluded nodes, and sum to exactly its distance.
"""

import math

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.csr import CsrAdjacency, delay_weight
from repro.routing.metrics import EdgeCostModel
from tests.routing import oracle

#: Delays mix exact ties (and zeros) with arbitrary floats.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _flagged_weight(_u, _v, data):
    """Delay, except ``None`` for dropped and ``inf`` for cut edges."""
    if data["flag"] == "drop":
        return None
    if data["flag"] == "cut":
        return math.inf
    return data["delay_s"]


@st.composite
def routing_cases(draw):
    """``(graph, weight, excluded)`` for one random routing problem."""
    directed = draw(st.booleans())
    graph = nx.DiGraph() if directed else nx.Graph()
    count = draw(st.integers(min_value=1, max_value=12))
    graph.add_nodes_from(f"n{i}" for i in range(count))
    edges = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1),
                  _DELAYS, _DELAYS,
                  st.sampled_from(["keep", "keep", "drop", "cut"])),
        max_size=30,
    ))
    for u, v, delay, queue, flag in edges:
        if u != v:
            graph.add_edge(f"n{u}", f"n{v}", delay_s=delay,
                           queue_delay_s=queue, tariff_per_gb=queue * 3.0,
                           capacity_bps=1e6 + delay * 1e8, flag=flag)
    kind = draw(st.sampled_from(["delay", "model", "callable"]))
    if kind == "delay":
        weight = delay_weight
    elif kind == "model":
        weight = EdgeCostModel(
            queue_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
            tariff_weight=draw(st.sampled_from([0.0, 0.002])),
            min_capacity_bps=draw(st.sampled_from([0.0, 5e7])),
            bottleneck_penalty_s=draw(st.sampled_from([0.0, 0.3])),
        )
    else:
        weight = _flagged_weight
    excluded = draw(st.sets(st.sampled_from(sorted(graph.nodes)),
                            max_size=max(0, count - 1)))
    return graph, weight, excluded


class TestCsrMatchesOracle:
    @given(case=routing_cases())
    @settings(max_examples=80, deadline=None)
    def test_distances_bit_equal_and_paths_sum_to_them(self, case):
        graph, weight, excluded = case
        adjacency = CsrAdjacency.from_graph(graph, weight=weight,
                                            exclude=excluded)
        assert set(adjacency.nodes) == set(graph.nodes) - excluded
        sources = list(adjacency.nodes)
        paths = adjacency.shortest_paths(sources)
        for source in sources:
            dist, _paths = oracle.dijkstra(graph, source, weight=weight,
                                           exclude=excluded)
            for target in adjacency.nodes:
                got = paths.distance(source, target)
                assert got == dist.get(target, math.inf)
                path = paths.path(source, target)
                if not math.isfinite(got):
                    assert path is None
                    continue
                assert path[0] == source and path[-1] == target
                assert not excluded.intersection(path)
                assert oracle.path_cost(graph, path, weight=weight) == got
