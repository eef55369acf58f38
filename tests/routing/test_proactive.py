"""Tests for proactive (precomputed) routing."""

import bisect
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.routing.proactive import ProactiveRouter, RoutingTable
from tests.routing import oracle
from tests.routing.oracle import GraphSnapshot


def fake_snapshot(time_s, edges, nodes=()):
    """A hand-drawn snapshot: ``(u, v, delay)`` edges of 10 Mbps."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for u, v, delay in edges:
        graph.add_edge(u, v, delay_s=delay, capacity_bps=10e6)
    return GraphSnapshot(graph, time_s)


@pytest.fixture
def snapshots():
    """Three epochs; the direct a-c edge exists only in the second."""
    return [
        fake_snapshot(0.0, [("a", "b", 0.01), ("b", "c", 0.01)]),
        fake_snapshot(60.0, [("a", "b", 0.01), ("b", "c", 0.01),
                            ("a", "c", 0.005)]),
        fake_snapshot(120.0, [("a", "b", 0.01), ("b", "c", 0.01)]),
    ]


class TestRoutingTable:
    def test_epochs_must_increase(self):
        table = RoutingTable()
        table.add_epoch(0.0, {})
        with pytest.raises(ValueError, match="strictly increasing"):
            table.add_epoch(0.0, {})

    def test_lookup_before_first_epoch_raises(self):
        table = RoutingTable()
        table.add_epoch(10.0, {})
        with pytest.raises(LookupError, match="precedes"):
            table.epoch_index_at(5.0)

    def test_empty_table_raises(self):
        with pytest.raises(LookupError, match="empty"):
            RoutingTable().epoch_index_at(0.0)


class TestPrecompute:
    def test_routes_follow_topology_changes(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        early = router.route("a", "c", 10.0)
        mid = router.route("a", "c", 70.0)
        late = router.route("a", "c", 130.0)
        assert early.path == ["a", "b", "c"]
        assert mid.path == ["a", "c"]
        assert late.path == ["a", "b", "c"]

    def test_epoch_validity_bounds(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        route = router.route("a", "c", 70.0)
        assert route.valid_from_s == 60.0
        assert route.valid_until_s == 120.0

    def test_all_pairs_by_default(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots[:1])
        assert table.lookup("a", "b", 0.0) is not None
        assert table.lookup("b", "a", 0.0) is not None
        assert table.lookup("c", "a", 0.0) is not None

    def test_selected_pairs_only(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots[:1], pairs=[("a", "c")])
        assert table.lookup("a", "c", 0.0) is not None
        assert table.lookup("c", "a", 0.0) is None
        assert table.lookup("a", "b", 0.0) is None

    def test_route_count(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots)
        # 3 nodes fully connected by paths: 6 directed pairs per epoch.
        assert table.route_count == 18

    def test_metrics_recorded(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        route = router.route("a", "c", 0.0)
        assert route.metrics.propagation_delay_s == pytest.approx(0.02)
        assert route.metrics.hop_count == 2

    def test_rejects_empty_snapshots(self):
        with pytest.raises(ValueError, match="at least one"):
            ProactiveRouter().precompute([])

    def test_rejects_unordered_snapshots(self, snapshots):
        with pytest.raises(ValueError, match="time-ordered"):
            ProactiveRouter().precompute([snapshots[1], snapshots[0]])

    def test_lookup_unknown_pair_returns_none(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        assert router.route("a", "ghost", 0.0) is None

    def test_horizon_extends_last_epoch(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots, horizon_s=1000.0)
        route = router.route("a", "c", 500.0)
        assert route is not None
        assert route.valid_until_s == 1000.0

    def test_disconnected_node_has_no_routes(self):
        snap = fake_snapshot(0.0, [("a", "b", 0.01)], nodes=["island"])
        router = ProactiveRouter()
        table = router.precompute([snap])
        assert table.lookup("a", "island", 0.0) is None


class OracleRouter:
    """The reference proactive table, built from the oracle's paths.

    Answers the :class:`ProactiveRouter` lookups the tests make from
    per-epoch eager ``{(src, dst): path}`` tables, the all-pairs
    behavior the lazy CSR epochs must reproduce.
    """

    def __init__(self, snapshots):
        self.snapshots = list(snapshots)
        self.epochs_s = [snap.time_s for snap in self.snapshots]
        self.tables = [oracle.all_pairs_paths(snap.graph)
                       for snap in self.snapshots]

    @property
    def route_count(self):
        return sum(len(table) for table in self.tables)

    def _index(self, time_s):
        return max(0, bisect.bisect_right(self.epochs_s, time_s) - 1)

    def route(self, source, target, time_s):
        index = self._index(time_s)
        path = self.tables[index].get((source, target))
        if path is None:
            return None
        graph = self.snapshots[index].graph
        return SimpleNamespace(path=path,
                               metrics=oracle.path_metrics(graph, path))


def _table_as_dicts(router, times, nodes):
    """Materialize every (src, dst) route path for comparison."""
    shape = {}
    for time_s in times:
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                route = router.route(src, dst, time_s)
                shape[(time_s, src, dst)] = (
                    None if route is None
                    else (tuple(route.path), route.metrics.total_delay_s)
                )
    return shape


class TestBackendEquivalence:
    """CSR epochs answer identically to the networkx oracle's tables."""

    def test_tables_match_across_backends(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        reference = OracleRouter(snapshots)
        assert router.table.route_count == reference.route_count
        times, nodes = (10.0, 70.0, 130.0), ("a", "b", "c")
        assert (_table_as_dicts(router, times, nodes)
                == _table_as_dicts(reference, times, nodes))

    def test_selected_pairs_csr(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots[:1], pairs=[("a", "c")])
        assert table.lookup("a", "c", 0.0) is not None
        assert table.lookup("c", "a", 0.0) is None
        assert table.lookup("a", "b", 0.0) is None
        assert table.route_count == 1


class TestLazyMaterialization:
    def test_lookup_materializes_once(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        epoch = router.table.routes[0]
        assert not epoch._cache  # nothing materialized yet
        route = router.route("a", "c", 10.0)
        assert route is not None
        assert router.route("a", "c", 10.0) is route  # cached object

    def test_route_count_without_materialization(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots)
        assert table.route_count == 18
        assert not any(epoch._cache for epoch in table.routes)

