"""Tests for proactive (precomputed) routing."""

import bisect
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.routing.metrics import path_metrics
from repro.routing.proactive import ProactiveRouter, RoutingTable
from tests.routing import oracle


class FakeSnapshot:
    """Minimal stand-in for a TopologySnapshot."""

    def __init__(self, time_s, edges):
        self.time_s = time_s
        self.graph = nx.Graph()
        for u, v, delay in edges:
            self.graph.add_edge(u, v, delay_s=delay, capacity_bps=10e6)


@pytest.fixture
def snapshots():
    """Three epochs; the direct a-c edge exists only in the second."""
    return [
        FakeSnapshot(0.0, [("a", "b", 0.01), ("b", "c", 0.01)]),
        FakeSnapshot(60.0, [("a", "b", 0.01), ("b", "c", 0.01),
                            ("a", "c", 0.005)]),
        FakeSnapshot(120.0, [("a", "b", 0.01), ("b", "c", 0.01)]),
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
        snap = FakeSnapshot(0.0, [("a", "b", 0.01)])
        snap.graph.add_node("island")
        router = ProactiveRouter()
        table = router.precompute([snap])
        assert table.lookup("a", "island", 0.0) is None


class TestInvalidation:
    def test_routes_through_failed_node_dropped(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        dropped = router.invalidate_routes_through(["b"], from_time_s=0.0)
        assert dropped > 0
        # Every surviving a->c route avoids b.
        assert router.route("a", "c", 10.0) is None  # only a-b-c existed
        mid = router.route("a", "c", 70.0)
        assert mid is not None and "b" not in mid.path

    def test_earlier_epochs_untouched(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        router.invalidate_routes_through(["b"], from_time_s=60.0)
        # The epoch before the fault keeps its routes.
        assert router.route("a", "c", 10.0) is not None
        assert router.route("a", "c", 130.0) is None

    def test_unaffected_routes_survive(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        router.invalidate_routes_through(["b"], from_time_s=0.0)
        mid = router.route("a", "c", 70.0)
        assert mid.path == ["a", "c"]

    def test_empty_elements_noop(self, snapshots):
        router = ProactiveRouter()
        router.precompute(snapshots)
        before = router.table.route_count
        assert router.invalidate_routes_through([], from_time_s=0.0) == 0
        assert router.table.route_count == before

    def test_empty_table_noop(self):
        assert ProactiveRouter().invalidate_routes_through(["a"]) == 0


class OracleRouter:
    """The reference proactive table, built from the oracle's paths.

    Answers the :class:`ProactiveRouter` calls the tests make with
    linear scans over per-epoch eager ``{(src, dst): path}`` tables —
    the pre-index behavior the inverted indexes must reproduce.
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
        return SimpleNamespace(path=path, metrics=path_metrics(graph, path))

    def routes_from(self, source, time_s):
        table = self.tables[self._index(time_s)]
        return {dst: self.route(src, dst, time_s)
                for src, dst in table if src == source}

    def invalidate_routes_through(self, elements, from_time_s=0.0):
        doomed = set(elements).intersection
        dropped = 0
        for table in self.tables[self._index(from_time_s):]:
            keys = [key for key, path in table.items() if doomed(path)]
            for key in keys:
                del table[key]
            dropped += len(keys)
        return dropped


def _router(table, snapshots):
    """The CSR router (``"csr"``) or the oracle reference (``"networkx"``)
    over the same snapshots."""
    if table == "networkx":
        return OracleRouter(snapshots)
    router = ProactiveRouter()
    router.precompute(snapshots)
    return router


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
        router = _router("csr", snapshots)
        reference = OracleRouter(snapshots)
        assert router.table.route_count == reference.route_count
        times, nodes = (10.0, 70.0, 130.0), ("a", "b", "c")
        assert (_table_as_dicts(router, times, nodes)
                == _table_as_dicts(reference, times, nodes))

    def test_routes_from_matches_across_backends(self, snapshots):
        router = _router("csr", snapshots)
        reference = OracleRouter(snapshots)
        for time_s in (0.0, 70.0):
            for source in ("a", "b", "c", "ghost"):
                csr_slice = router.routes_from(source, time_s)
                ref_slice = reference.routes_from(source, time_s)
                assert set(csr_slice) == set(ref_slice)
                for target, route in csr_slice.items():
                    assert route.path == ref_slice[target].path

    def test_selected_pairs_csr(self, snapshots):
        router = ProactiveRouter()
        table = router.precompute(snapshots[:1], pairs=[("a", "c")])
        assert table.lookup("a", "c", 0.0) is not None
        assert table.lookup("c", "a", 0.0) is None
        assert table.lookup("a", "b", 0.0) is None
        assert table.route_count == 1


class TestInvalidationIndexMatchesScan:
    """The inverted-index invalidation equals the oracle's scan."""

    @pytest.mark.parametrize("elements,from_time_s", [
        (["b"], 0.0),
        (["b"], 60.0),
        (["a"], 0.0),
        (["a", "c"], 0.0),
        (["ghost"], 0.0),
    ])
    def test_dropped_count_and_survivors_match(self, snapshots, elements,
                                               from_time_s):
        indexed = _router("csr", snapshots)
        reference = OracleRouter(snapshots)

        dropped_indexed = indexed.invalidate_routes_through(
            elements, from_time_s=from_time_s)
        dropped_scan = reference.invalidate_routes_through(
            elements, from_time_s=from_time_s)
        assert dropped_indexed == dropped_scan
        times, nodes = (10.0, 70.0, 130.0), ("a", "b", "c")
        assert (_table_as_dicts(indexed, times, nodes)
                == _table_as_dicts(reference, times, nodes))

    def test_csr_epoch_invalidation_matches_scan(self, snapshots):
        lazy = _router("csr", snapshots)
        reference = OracleRouter(snapshots)

        dropped_lazy = lazy.invalidate_routes_through(["b"], from_time_s=0.0)
        dropped_scan = reference.invalidate_routes_through(["b"],
                                                           from_time_s=0.0)
        assert dropped_lazy == dropped_scan
        assert lazy.table.route_count == reference.route_count
        times, nodes = (10.0, 70.0, 130.0), ("a", "b", "c")
        assert (_table_as_dicts(lazy, times, nodes)
                == _table_as_dicts(reference, times, nodes))

    def test_repeated_invalidation_is_idempotent(self, snapshots):
        router = _router("csr", snapshots)
        first = router.invalidate_routes_through(["b"], from_time_s=0.0)
        assert first > 0
        assert router.invalidate_routes_through(["b"], from_time_s=0.0) == 0


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

