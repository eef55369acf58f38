"""Property-based tests: CSR shortest paths against the networkx oracle.

Over random graphs — float and zero delays, disconnected parts, excluded
nodes, undirected and directed graphs, cost models and weight callables
that drop edges with ``None`` or ``inf`` — every CSR distance must equal
the oracle's bit for bit, and every reconstructed path must start and
end where asked, avoid excluded nodes, and sum to exactly its distance.
The nearest-target route map must return, for every source, what one
forward search per source returns.
"""

import math

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import EdgeCostModel
from tests.routing import oracle
from tests.routing.oracle import delay_weight

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


#: Integer weights tie exactly (zeros included), decimal ones tie up to
#: float association order, uniform ones almost never tie.
_NEAREST_WEIGHTS = {
    "integer": st.integers(min_value=0, max_value=3).map(float),
    "decimal": st.sampled_from([0.1, 0.2, 0.3, 0.7]),
    "uniform": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
}


@st.composite
def nearest_target_cases(draw):
    """``(graph, targets)``: 2-40 nodes, often in several parts."""
    graph = nx.DiGraph() if draw(st.booleans()) else nx.Graph()
    count = draw(st.integers(min_value=2, max_value=40))
    names = [f"n{i}" for i in range(count)]
    graph.add_nodes_from(names)
    weights = _NEAREST_WEIGHTS[draw(st.sampled_from(sorted(_NEAREST_WEIGHTS)))]
    edges = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1),
                  weights),
        max_size=3 * count,
    ))
    for u, v, delay in edges:
        if u != v:
            graph.add_edge(names[u], names[v], delay_s=delay)
    targets = draw(st.lists(st.sampled_from(names), min_size=1,
                            max_size=count, unique=True))
    return graph, targets


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


def _association_near_tie():
    """n1's two routes to n0 both cost 1.0 exactly.  Summed from n1
    (forward), 0.7 + 0.2 + 0.1 = 0.9999999999999999 beats 0.7 + 0.3 = 1.0;
    summed from n0 (reverse), 0.3 beats 0.1 + 0.2 = 0.30000000000000004.
    Only the margin ``tau`` keeps the certificate from trusting the
    reverse tree here."""
    graph = nx.Graph()
    graph.add_nodes_from(["n0", "n1", "n2", "n3"])
    for u, v, delay in (("n0", "n3", 0.1), ("n0", "n2", 0.3),
                        ("n1", "n2", 0.7), ("n2", "n3", 0.2)):
        graph.add_edge(u, v, delay_s=delay)
    return graph, ["n0"]


class TestNearestTargetPaths:
    @given(case=nearest_target_cases())
    @example(case=_association_near_tie())
    @settings(max_examples=200, deadline=None)
    def test_equals_one_forward_search_per_source(self, case):
        graph, targets = case
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        sources = list(adjacency.nodes)
        assert (adjacency.nearest_target_paths(sources, targets)
                == oracle.nearest_paths(adjacency, sources, targets))

    def test_certificate_covers_the_whole_chain(self):
        # Nine hops from n9 to g, then a free hop to the first-listed
        # target g0: forward, every route ends at g0, so the tie at the
        # far end of n9's chain must send n9 to the forward search.
        graph = nx.Graph()
        nx.add_path(graph, [f"n{i}" for i in range(9, 0, -1)] + ["g"],
                    delay_s=1.0)
        graph.add_edge("g", "g0", delay_s=0.0)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        sources = list(adjacency.nodes)
        paths = adjacency.nearest_target_paths(sources, ["g0", "g"])
        assert paths == oracle.nearest_paths(adjacency, sources, ["g0", "g"])
        assert paths[0] == [f"n{i}" for i in range(9, 0, -1)] + ["g", "g0"]

    def test_no_sources_or_no_targets(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", delay_s=1.0)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        assert adjacency.nearest_target_paths([], ["a"]) == []
        assert adjacency.nearest_target_paths(["a", "b"], []) == [None, None]
