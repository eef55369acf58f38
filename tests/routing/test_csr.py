"""Tests for the compiled-sparse (CSR) shortest-path implementation.

Covers the edge cases — disconnected components, single-node and empty
graphs, non-string node ids, fault-masked exclusion — plus structure
clones that reprice an unchanged edge set, equality with the networkx
oracle on distances and path costs, and source-only rows searching
exactly like the leaf layout they replace.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.csr import (
    NO_PREDECESSOR,
    CsrAdjacency,
    block_diagonal_dijkstra,
)
from repro.routing.metrics import EdgeCostModel
from tests.routing import oracle
from tests.routing.oracle import delay_weight


def line_graph():
    graph = nx.Graph()
    graph.add_edge("a", "b", delay_s=0.01)
    graph.add_edge("b", "c", delay_s=0.02)
    graph.add_edge("a", "c", delay_s=0.05)
    return graph


class TestCsrAdjacencyBuild:
    def test_empty_graph(self):
        adjacency = CsrAdjacency.from_graph(nx.Graph(), weight=delay_weight)
        assert adjacency.node_count == 0
        assert adjacency.entry_count == 0

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node("only")
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.shortest_paths(["only"])
        assert paths.path("only", "only") == ["only"]
        assert paths.distance("only", "only") == 0.0
        assert paths.reachable_count("only") == 0

    def test_non_string_node_ids(self):
        graph = nx.Graph()
        graph.add_edge(1, (2, "b"), delay_s=0.5)
        graph.add_edge((2, "b"), 3, delay_s=0.25)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.single_source(1)
        assert paths.path(1, 3) == [1, (2, "b"), 3]
        assert paths.distance(1, 3) == 0.75

    def test_excluded_nodes_absent_from_index(self):
        graph = line_graph()
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight,
                                            exclude={"b"})
        assert "b" not in adjacency
        assert adjacency.node_count == 2
        # The only a-c connection not through b is the direct edge.
        paths = adjacency.single_source("a")
        assert paths.path("a", "c") == ["a", "c"]
        assert paths.distance("a", "c") == 0.05

    def test_zero_weight_edges_survive(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", delay_s=0.0)
        graph.add_edge("b", "c", delay_s=0.0)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.single_source("a")
        assert paths.path("a", "c") == ["a", "b", "c"]
        assert paths.distance("a", "c") == 0.0

    def test_weight_callable_none_drops_edge(self):
        graph = line_graph()

        def no_direct(u, v, data):
            if {u, v} == {"a", "c"}:
                return None
            return data["delay_s"]

        adjacency = CsrAdjacency.from_graph(graph, weight=no_direct)
        paths = adjacency.single_source("a")
        assert paths.path("a", "c") == ["a", "b", "c"]

    def test_directed_graph(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", delay_s=1.0)
        graph.add_edge("b", "c", delay_s=1.0)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        forward = adjacency.single_source("a")
        backward = adjacency.single_source("c")
        assert forward.path("a", "c") == ["a", "b", "c"]
        assert backward.path("c", "a") is None

    def test_deterministic_build(self):
        graph = line_graph()
        one = CsrAdjacency.from_graph(graph, weight=delay_weight)
        two = CsrAdjacency.from_graph(graph, weight=delay_weight)
        assert np.array_equal(one.indptr, two.indptr)
        assert np.array_equal(one.indices, two.indices)
        assert np.array_equal(one.data, two.data)


class TestDisconnected:
    def test_island_matches_networkx_no_path(self):
        graph = line_graph()
        graph.add_node("island")
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.single_source("a")
        assert paths.path("a", "island") is None
        assert math.isinf(paths.distance("a", "island"))
        with pytest.raises(nx.NetworkXNoPath):
            nx.dijkstra_path(graph, "a", "island", weight="delay_s")
        # The one-pair query agrees with the oracle: None, no exception.
        assert adjacency.shortest_path("a", "island") is None
        assert oracle.path(graph, "a", "island") is None

    def test_two_components(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", delay_s=1.0)
        graph.add_edge("x", "y", delay_s=1.0)
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.shortest_paths(["a", "x"])
        assert paths.path("a", "y") is None
        assert paths.path("x", "y") == ["x", "y"]
        assert paths.reachable_targets("a") == ["b"]

    def test_unknown_endpoints(self):
        adjacency = CsrAdjacency.from_graph(line_graph(), weight=delay_weight)
        assert adjacency.shortest_path("a", "ghost") is None
        assert adjacency.shortest_path("ghost", "a") is None


class TestNetworkxEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graph_distances_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        graph = nx.gnp_random_graph(24, 0.2, seed=seed)
        for _u, _v, data in graph.edges(data=True):
            data["delay_s"] = float(rng.uniform(0.001, 0.1))
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.shortest_paths(list(graph.nodes))
        for source in graph.nodes:
            nx_dist, _nx_paths = oracle.dijkstra(graph, source,
                                                 weight=delay_weight)
            for target in graph.nodes:
                expected = nx_dist.get(target, float("inf"))
                assert paths.distance(source, target) == expected

    @pytest.mark.parametrize("seed", [5, 6])
    def test_random_graph_path_costs_equal(self, seed):
        rng = np.random.default_rng(seed)
        graph = nx.gnp_random_graph(18, 0.25, seed=seed)
        for _u, _v, data in graph.edges(data=True):
            data["delay_s"] = float(rng.uniform(0.001, 0.1))

        def path_cost(path):
            return oracle.path_cost(graph, path, weight=delay_weight)

        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        paths = adjacency.shortest_paths(list(graph.nodes))
        for source in graph.nodes:
            for target in graph.nodes:
                if source == target:
                    continue
                csr_path = paths.path(source, target)
                nx_path = oracle.path(graph, source, target,
                                      weight=delay_weight)
                if nx_path is None:
                    assert csr_path is None
                    continue
                assert csr_path is not None
                # Equal-cost paths may differ; their costs may not.
                assert path_cost(csr_path) == pytest.approx(
                    path_cost(nx_path), abs=0.0, rel=1e-12)

    def test_cost_model_weights(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", delay_s=0.01, queue_delay_s=0.5,
                       tariff_per_gb=2.0, capacity_bps=1e9)
        graph.add_edge("b", "c", delay_s=0.01, capacity_bps=1e9)
        graph.add_edge("a", "c", delay_s=0.018, capacity_bps=1e9)
        model = EdgeCostModel(queue_weight=1.0, tariff_weight=0.002)
        adjacency = CsrAdjacency.from_graph(graph, weight=model)
        assert (adjacency.shortest_path("a", "c")
                == oracle.path(graph, "a", "c", model)
                == ["a", "c"])

    def test_multi_source_matches_single_source(self):
        graph = line_graph()
        adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
        multi = adjacency.shortest_paths(["a", "b"])
        for source in ("a", "b"):
            single = adjacency.single_source(source)
            for target in graph.nodes:
                assert (multi.distance(source, target)
                        == single.distance(source, target))
                assert (multi.path(source, target)
                        == single.path(source, target))

    def test_single_source_memoized(self):
        adjacency = CsrAdjacency.from_graph(line_graph(),
                                            weight=delay_weight)
        assert adjacency.single_source("a") is adjacency.single_source("a")


#: Edge weights with zeros and repeats, so searches meet equal-cost ties.
TIE_WEIGHTS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.0])


@st.composite
def graphs_with_sources(draw):
    """A CSR graph of 1-40 nodes plus 1-4 sources of 0-4 entries each:
    ``(adjacency, [(neighbours, weights), ...])``."""
    count = draw(st.integers(min_value=1, max_value=40))
    directed = draw(st.booleans())
    node = st.integers(min_value=0, max_value=count - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * count))
    if directed:
        edges = sorted({(u, v) for u, v in pairs if u != v})
    else:
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = [draw(TIE_WEIGHTS) for _ in edges]
    adjacency = CsrAdjacency.from_edges(
        list(range(count)),
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
        np.array(weights, dtype=np.float64),
        directed=directed,
    )
    sources = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        neighbours = draw(st.lists(node, max_size=4, unique=True))
        sources.append((neighbours, [draw(TIE_WEIGHTS) for _ in neighbours]))
    return adjacency, sources


class TestSourceRows:
    @settings(max_examples=200, deadline=None)
    @given(case=graphs_with_sources())
    def test_source_rows_search_like_leaf_blocks(self, case):
        # The leaf layout (each source appended as a leaf, every leaf in
        # one block-diagonal search) is the referee: dist and pred over
        # the base nodes must agree bit for bit.
        adjacency, sources = case
        count = adjacency.node_count
        names = [f"s{k}" for k in range(len(sources))]
        extended = adjacency.with_source_rows(
            names,
            np.concatenate([np.full(len(neighbours), k, dtype=np.int64)
                            for k, (neighbours, _) in enumerate(sources)]),
            np.concatenate([np.asarray(neighbours, dtype=np.int64)
                            for neighbours, _ in sources]),
            np.concatenate([np.asarray(weights, dtype=np.float64)
                            for _, weights in sources]),
        )
        assert extended.node_count == count + len(sources)
        assert np.array_equal(extended.indptr[:count + 1], adjacency.indptr)
        searches = extended.shortest_paths(names)

        blocks = [adjacency.append_leaf_arrays(
                      np.asarray(neighbours, dtype=np.int64),
                      np.asarray(weights, dtype=np.float64))
                  for neighbours, weights in sources]
        dist, pred, offsets = block_diagonal_dijkstra(
            blocks, [count] * len(sources))
        for k, offset in enumerate(offsets.tolist()):
            # The source row holds the leaf row's entries, in its order.
            leaf_indptr, leaf_indices, leaf_data = blocks[k]
            start, stop = extended.indptr[count + k:count + k + 2]
            assert np.array_equal(extended.indices[start:stop],
                                  leaf_indices[leaf_indptr[count]:])
            assert (extended.data[start:stop].tobytes()
                    == leaf_data[leaf_indptr[count]:].tobytes())
            leaf_dist = dist[k, offset:offset + count]
            leaf_pred = pred[k, offset:offset + count].astype(np.int64)
            inside = leaf_pred != NO_PREDECESSOR
            leaf_pred[inside] -= offset
            leaf_pred[leaf_pred == count] = count + k
            assert searches.dist[k, :count].tobytes() == leaf_dist.tobytes()
            assert np.array_equal(searches.pred[k, :count], leaf_pred)
