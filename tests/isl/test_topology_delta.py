"""Tests for topology snapshot deltas."""

import pytest

from repro.isl.topology import (
    IslNode,
    IslTopologyBuilder,
    TopologyDelta,
)
from repro.orbits.walker import walker_delta
from repro.phy.rf import standard_sband_isl_terminal


def walker_fixture(count=120, planes=10):
    constellation = walker_delta(count, planes)
    nodes = [
        IslNode(f"w{i}", [standard_sband_isl_terminal()], max_degree=4)
        for i in range(count)
    ]
    ids = [node.node_id for node in nodes]

    def positions_at(t):
        return dict(zip(ids, constellation.positions_at(t)))

    return nodes, positions_at


def edge_set(snapshot):
    """The snapshot's edges as canonical ``(min_id, max_id)`` pairs."""
    return {(a, b) if a <= b else (b, a) for a, b in snapshot.graph.edges}


def edge_payload(snapshot):
    """Every edge with its attribute reprs, canonically ordered."""
    return sorted(
        (min(u, v), max(u, v), repr(sorted(data.items())))
        for u, v, data in snapshot.graph.edges(data=True)
    )


class TestSnapshotDelta:
    def test_first_delta_is_full_rebuild(self):
        nodes, positions_at = walker_fixture(count=24, planes=4)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        snap, delta = builder.snapshot_delta(0.0, positions_at(0.0))
        assert delta.full_rebuild
        assert delta._named(delta.disappeared_pairs) == ()
        assert delta._named(delta.persisted_pairs) == ()
        assert set(delta.appeared) == edge_set(snap)

    def test_delta_reconciles_edge_sets(self):
        nodes, positions_at = walker_fixture(count=60, planes=6)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        prev, _ = builder.snapshot_delta(0.0, positions_at(0.0))
        snap, delta = builder.snapshot_delta(120.0, positions_at(120.0),
                                             previous=prev)
        assert not delta.full_rebuild
        appeared = set(delta.appeared)
        disappeared = set(delta._named(delta.disappeared_pairs))
        persisted = set(delta._named(delta.persisted_pairs))
        assert appeared.isdisjoint(disappeared)
        assert appeared.isdisjoint(persisted)
        assert disappeared.isdisjoint(persisted)
        assert edge_set(prev) == persisted | disappeared
        assert edge_set(snap) == persisted | appeared

    def test_delta_snapshot_matches_plain_snapshot(self):
        nodes, positions_at = walker_fixture(count=60, planes=6)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        prev, _ = builder.snapshot_delta(0.0, positions_at(0.0))
        positions = positions_at(300.0)
        via_delta, _ = builder.snapshot_delta(300.0, positions,
                                              previous=prev)
        plain = builder.snapshot(300.0, positions)
        assert edge_payload(via_delta) == edge_payload(plain)

    def test_node_set_change_forces_full_rebuild(self):
        nodes, positions_at = walker_fixture(count=24, planes=4)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        prev, _ = builder.snapshot_delta(0.0, positions_at(0.0))
        _, delta = builder.snapshot_delta(60.0, positions_at(60.0),
                                          previous=prev, exclude=["w0"])
        assert delta.full_rebuild

    def test_churn_fraction(self):
        ids = ["a", "b", "c", "d", "e", "f", "g", "h"]
        delta = TopologyDelta(ids, appeared=[[1, 0]],
                              disappeared=[[2, 3], [4, 5]],
                              persisted=[[6, 7]])
        assert delta.changed_count == 3
        assert delta.churn_fraction == pytest.approx(0.75)
        assert delta.appeared == (("a", "b"),)
        assert delta._named(delta.disappeared_pairs) == (("c", "d"),
                                                         ("e", "f"))
        assert delta._named(delta.persisted_pairs) == (("g", "h"),)
        empty = TopologyDelta(ids, appeared=[], disappeared=[], persisted=[])
        assert empty.churn_fraction == 0.0
        assert empty.appeared == ()

    def test_edge_set_is_canonical(self):
        nodes, positions_at = walker_fixture(count=24, planes=4)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        snap, delta = builder.snapshot_delta(0.0, positions_at(0.0))
        assert snap.link_count > 0
        assert delta.appeared == tuple(sorted(delta.appeared))
        for a, b in delta.appeared:
            assert a <= b


class TestLazyCandidateEarlyExit:
    def test_zero_degree_fleet_builds_no_edges(self):
        nodes = [
            IslNode(f"s{i}", [standard_sband_isl_terminal()], max_degree=0)
            for i in range(8)
        ]
        _, positions_at = walker_fixture(count=8, planes=2)
        positions = {
            f"s{i}": pos
            for i, pos in enumerate(positions_at(0.0).values())
        }
        builder = IslTopologyBuilder(nodes, max_range_km=1e6)
        snap = builder.snapshot(0.0, positions)
        assert snap.link_count == 0
        assert snap.graph.number_of_nodes() == 8
