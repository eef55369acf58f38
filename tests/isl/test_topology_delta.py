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
        assert delta.disappeared == ()
        assert delta.persisted == ()
        assert set(delta.appeared) == snap.edge_set()

    def test_delta_reconciles_edge_sets(self):
        nodes, positions_at = walker_fixture(count=60, planes=6)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        prev, _ = builder.snapshot_delta(0.0, positions_at(0.0))
        snap, delta = builder.snapshot_delta(120.0, positions_at(120.0),
                                             previous=prev)
        assert not delta.full_rebuild
        appeared = set(delta.appeared)
        disappeared = set(delta.disappeared)
        persisted = set(delta.persisted)
        assert appeared.isdisjoint(disappeared)
        assert appeared.isdisjoint(persisted)
        assert disappeared.isdisjoint(persisted)
        assert prev.edge_set() == persisted | disappeared
        assert snap.edge_set() == persisted | appeared

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
        delta = TopologyDelta(
            appeared=(("a", "b"),), disappeared=(("c", "d"), ("e", "f")),
            persisted=(("g", "h"),),
        )
        assert delta.changed_count == 3
        assert delta.churn_fraction == pytest.approx(0.75)
        empty = TopologyDelta(appeared=(), disappeared=(), persisted=())
        assert empty.churn_fraction == 0.0

    def test_edge_set_is_canonical(self):
        nodes, positions_at = walker_fixture(count=24, planes=4)
        builder = IslTopologyBuilder(nodes, max_range_km=3000.0)
        snap = builder.snapshot(0.0, positions_at(0.0))
        for a, b in snap.edge_set():
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
