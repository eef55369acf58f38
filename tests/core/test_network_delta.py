"""Tests for snapshot delta recording in OpenSpaceNetwork.

Every base snapshot is assembled from scratch; delta recording only
books what changed since the previous one.  These tests pin that a
network recording deltas hashes byte-identical to one that does not,
and the delta bookkeeping and its fault-epoch fallback.
"""

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from tests.core.oracle import graph_digest


def walker_network(count=60, planes=6, stations=True, **kwargs):
    fleet = build_fleet(walker_delta(count, planes), "delta-test",
                        SizeClass.MEDIUM)
    ground = default_station_network() if stations else []
    return OpenSpaceNetwork(fleet, ground, max_isl_range_km=3000.0,
                            **kwargs)


EPOCH_TIMES = [0.0, 120.0, 240.0, 360.0, 480.0, 600.0]


class TestDeltaVsFullDigest:
    def test_delta_builds_hash_identical_to_full_rebuilds(self):
        delta_net = walker_network(snapshot_delta=True)
        full_net = walker_network(snapshot_delta=False)
        for t in EPOCH_TIMES:
            assert delta_net.snapshot(t).digest() == \
                full_net.snapshot(t).digest()
        assert delta_net.delta_stats["delta_builds"] == len(EPOCH_TIMES) - 1
        assert full_net.delta_stats["delta_builds"] == 0
        assert full_net.delta_stats["full_builds"] == len(EPOCH_TIMES)

    def test_delta_csr_arrays_equal_full_rebuild(self):
        delta_net = walker_network(snapshot_delta=True)
        full_net = walker_network(snapshot_delta=False)
        for t in EPOCH_TIMES[:3]:
            a = delta_net.snapshot(t).csr_adjacency()
            b = full_net.snapshot(t).csr_adjacency()
            assert a.nodes == b.nodes
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_disabling_delta_builds_full_every_epoch(self):
        net = walker_network(snapshot_delta=False)
        for t in EPOCH_TIMES[:3]:
            net.snapshot(t)
        assert net.delta_stats["full_builds"] == 3
        assert net.last_snapshot_delta.full_rebuild


class TestDeltaBookkeeping:
    def test_first_build_is_full_then_deltas(self):
        net = walker_network()
        net.snapshot(0.0)
        first = net.last_snapshot_delta
        assert first.full_rebuild and first.isl is None
        net.snapshot(120.0)
        second = net.last_snapshot_delta
        assert not second.full_rebuild
        assert second.base_time_s == 0.0
        assert second.isl is not None
        assert net.delta_stats["full_builds"] == 1
        assert net.delta_stats["delta_builds"] == 1

    def test_repeated_instant_is_a_zero_churn_build(self):
        net = walker_network()
        first = net.snapshot(0.0)
        again = net.snapshot(0.0)
        assert again is not first
        assert again.digest() == first.digest()
        assert net.delta_stats["full_builds"] == 1
        assert net.delta_stats["delta_builds"] == 1
        delta = net.last_snapshot_delta
        assert not delta.full_rebuild and delta.base_time_s == 0.0
        assert delta.isl.churn_fraction == 0.0
        assert net.delta_stats["edges_appeared"] == 0
        assert net.delta_stats["edges_disappeared"] == 0


class TestFaultEpochFallback:
    def test_fault_change_forces_full_rebuild_then_delta_resumes(self):
        net = walker_network()
        net.snapshot(0.0)
        net.snapshot(120.0)
        assert net.delta_stats["delta_builds"] == 1
        sat = net.satellites[0].satellite_id
        net.set_fault_state(failed_satellites=[sat])
        net.snapshot(240.0)
        assert net.delta_stats["full_builds"] == 2
        net.snapshot(360.0)
        assert net.delta_stats["delta_builds"] == 2

    def test_faulted_delta_matches_faulted_full_rebuild(self):
        delta_net = walker_network(snapshot_delta=True)
        full_net = walker_network(snapshot_delta=False)
        sat = delta_net.satellites[7].satellite_id
        pair = sorted([delta_net.satellites[2].satellite_id,
                       delta_net.satellites[3].satellite_id])
        for net in (delta_net, full_net):
            net.set_fault_state(failed_satellites=[sat],
                                failed_links=[tuple(pair)])
        for t in EPOCH_TIMES:
            a = delta_net.snapshot(t)
            b = full_net.snapshot(t)
            assert sat not in a.graph
            assert not a.graph.has_edge(*pair)
            assert a.digest() == b.digest()
        assert delta_net.delta_stats["delta_builds"] > 0


class TestDigest:
    def test_digest_ignores_insertion_order(self):
        # Station order changes node order, not content (satellite order
        # would: the greedy breaks range ties by it).
        forward = walker_network(count=24, planes=4)
        backward = OpenSpaceNetwork(
            forward.satellites, list(reversed(forward.ground_stations)),
            max_isl_range_km=3000.0,
        )
        snap = forward.snapshot(300.0)
        reordered = backward.snapshot(300.0)
        assert snap.nodes != reordered.nodes
        assert snap.digest() == reordered.digest()
        assert snap.digest() == graph_digest(300.0, snap.graph)
        assert snap.digest() == graph_digest(300.0, reordered.graph)

    def test_digest_sensitive_to_attributes_and_time(self):
        net = walker_network(count=24, planes=4)
        base = net.snapshot(300.0).digest()
        assert base != net.snapshot(301.0).digest()
        assert any(kind == "ground_link"
                   for _, _, kind in net.snapshot(300.0).graph.edges(
                       data="kind"))
        for station in net.ground_stations:  # caps ground-link capacity
            station.backhaul_capacity_bps = 1e6
        assert base != net.snapshot(300.0).digest()
