"""Tests for the compiled-sparse (CSR) shortest-path implementation.

Covers the edge cases — disconnected components, single-node and empty
graphs, non-string node ids, fault-masked exclusion — plus structure
clones that reprice an unchanged edge set, and equality with the
networkx oracle on distances and path costs.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.routing.csr import CsrAdjacency, delay_weight, shortest_path_csr
from repro.routing.metrics import EdgeCostModel
from tests.routing import oracle


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
        # The shared helper agrees with the oracle: None, no exception.
        assert shortest_path_csr(graph, "a", "island") is None
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
        graph = line_graph()
        assert shortest_path_csr(graph, "a", "ghost") is None
        assert shortest_path_csr(graph, "ghost", "a") is None


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
        assert (shortest_path_csr(graph, "a", "c", model)
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
