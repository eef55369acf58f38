"""Tests for snapshot delta recording in OpenSpaceNetwork.

Every base snapshot is assembled from scratch; delta recording only
books what changed since the previous one.  These tests pin that a
network recording deltas hashes byte-identical to one that does not,
the delta bookkeeping and its fault-epoch fallback, and the batched
position cache.
"""

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta


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
        # Prime both (or neither): numpy's vectorized trig can round the
        # final ulp differently for different time-grid shapes, so the
        # two networks must share one batched grid for digests to be
        # comparable.
        delta_net.prime_positions(EPOCH_TIMES)
        full_net.prime_positions(EPOCH_TIMES)
        for t in EPOCH_TIMES:
            assert delta_net.snapshot(t).digest() == \
                full_net.snapshot(t).digest()
        assert delta_net.delta_stats["delta_builds"] == len(EPOCH_TIMES) - 1
        assert full_net.delta_stats["delta_builds"] == 0
        assert full_net.delta_stats["full_builds"] == len(EPOCH_TIMES)

    def test_delta_csr_arrays_equal_full_rebuild(self):
        delta_net = walker_network(snapshot_delta=True)
        full_net = walker_network(snapshot_delta=False)
        delta_net.prime_positions(EPOCH_TIMES[:3])
        full_net.prime_positions(EPOCH_TIMES[:3])
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

    def test_cached_snapshot_does_not_rebuild(self):
        net = walker_network()
        net.snapshot(0.0)
        net.snapshot(0.0)
        assert net.delta_stats["full_builds"] == 1
        assert net.delta_stats["delta_builds"] == 0


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
        delta_net.prime_positions(EPOCH_TIMES)
        full_net.prime_positions(EPOCH_TIMES)
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


class TestPrimedPositions:
    def test_prime_positions_counts_and_serves_epochs(self):
        net = walker_network(stations=False)
        assert net.prime_positions(EPOCH_TIMES) == len(EPOCH_TIMES)
        batched = net.satellite_positions(EPOCH_TIMES[2])
        solo = walker_network(stations=False).satellite_positions(
            EPOCH_TIMES[2]
        )
        assert set(batched) == set(solo)
        for sat_id in batched:
            np.testing.assert_allclose(batched[sat_id], solo[sat_id],
                                       rtol=0.0, atol=1e-9)

    def test_clear_primed_positions(self):
        net = walker_network(stations=False)
        net.prime_positions(EPOCH_TIMES[:2])
        net.clear_primed_positions()
        assert net._primed_positions == {}

    def test_priming_both_networks_keeps_digests_equal(self):
        primed = walker_network(snapshot_delta=False)
        unprimed = walker_network(snapshot_delta=False)
        primed.prime_positions([0.0])
        # At t=0 the mean anomaly solve is exact either way, so even the
        # one epoch where batching cannot jitter must agree.
        assert primed.snapshot(0.0).digest() == \
            unprimed.snapshot(0.0).digest()


class TestDigest:
    def test_digest_ignores_insertion_order(self):
        import networkx as nx
        from repro.core.network import NetworkSnapshot
        from repro.isl.topology import TopologySnapshot

        g1 = nx.Graph()
        g1.add_edge("a", "b", delay_s=1.0)
        g1.add_edge("b", "c", delay_s=2.0)
        g2 = nx.Graph()
        g2.add_edge("c", "b", delay_s=2.0)
        g2.add_edge("b", "a", delay_s=1.0)
        snap1 = NetworkSnapshot(0.0, g1, TopologySnapshot(0.0, g1))
        snap2 = NetworkSnapshot(0.0, g2, TopologySnapshot(0.0, g2))
        assert snap1.digest() == snap2.digest()

    def test_digest_sensitive_to_attributes_and_time(self):
        import networkx as nx
        from repro.core.network import NetworkSnapshot
        from repro.isl.topology import TopologySnapshot

        g1 = nx.Graph()
        g1.add_edge("a", "b", delay_s=1.0)
        g2 = nx.Graph()
        g2.add_edge("a", "b", delay_s=1.0 + 1e-12)
        base = NetworkSnapshot(0.0, g1, TopologySnapshot(0.0, g1))
        tweaked = NetworkSnapshot(0.0, g2, TopologySnapshot(0.0, g2))
        later = NetworkSnapshot(1.0, g1, TopologySnapshot(1.0, g1))
        assert base.digest() != tweaked.digest()
        assert base.digest() != later.digest()
