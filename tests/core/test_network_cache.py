"""Snapshot-cache correctness tests for :class:`OpenSpaceNetwork`.

The cache is keyed by ``(time, fault epoch, user set)``; these tests pin
the contract: warm queries return the same object, fault-state changes
invalidate implicitly, ``cache_size=0`` disables caching, every user
field the overlay reads is part of the key, and a station-state change
followed by ``invalidate_snapshot_cache()`` yields a snapshot built from
the new state.
"""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.visibility import elevation_angles
from repro.orbits.walker import iridium_like
from repro.phy.modulation import achievable_rate_bps
from repro.phy.rf import rf_link_budget
from repro.routing.metrics import path_metrics
from tests.routing import oracle


def _make_network(**kwargs):
    fleet = build_fleet(iridium_like(), "cache-op", SizeClass.MEDIUM)
    return OpenSpaceNetwork(fleet, default_station_network(), **kwargs)


def _make_user(user_id="u-cache"):
    return UserTerminal(user_id, GeodeticPoint(-1.29, 36.82), "cache-op",
                        min_elevation_deg=10.0)


def _ground_links(snap):
    """``(satellite, station, attrs)`` for every ground link."""
    links = []
    for node_a, node_b, data in snap.graph.edges(data=True):
        if data.get("kind") == "ground_link":
            kind_a = snap.graph.nodes[node_a]["kind"]
            sat, station = ((node_a, node_b) if kind_a == "satellite"
                            else (node_b, node_a))
            links.append((sat, station, data))
    return links


def _oracle_nearest(snap, source):
    """Nearest-gateway route metrics from the networkx oracle."""
    _dist, paths = oracle.dijkstra(snap.graph, source)
    candidates = [
        path_metrics(snap.graph, paths[station])
        for station in snap.nodes_of_kind("ground_station")
        if station in paths
    ]
    return min(candidates, key=lambda metrics: metrics.total_delay_s,
               default=None)


@pytest.fixture(scope="module")
def network():
    return _make_network()


class TestSnapshotCache:
    def test_warm_query_returns_same_object(self, network):
        first = network.snapshot(100.0)
        assert network.snapshot(100.0) is first

    def test_distinct_times_get_distinct_snapshots(self, network):
        assert network.snapshot(0.0) is not network.snapshot(60.0)

    def test_user_snapshot_cached_separately_from_base(self, network):
        user = _make_user()
        base = network.snapshot(200.0)
        with_user = network.snapshot(200.0, users=[user])
        assert with_user is not base
        assert user.user_id in with_user.graph
        assert user.user_id not in base.graph
        assert network.snapshot(200.0, users=[user]) is with_user

    def test_user_overlay_matches_cold_build(self):
        # A user snapshot assembled incrementally on top of a cached base
        # must equal one built from scratch with caching disabled.
        user = _make_user()
        warm = _make_network()
        warm.snapshot(300.0)  # prime the base
        incremental = warm.snapshot(300.0, users=[user])
        cold = _make_network(snapshot_cache_size=0).snapshot(
            300.0, users=[user]
        )
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            incremental.graph, cold.graph
        )
        assert set(incremental.graph.nodes) == set(cold.graph.nodes)
        assert set(incremental.graph.edges) == set(cold.graph.edges)
        assert matcher.is_isomorphic()

    def test_fault_state_change_invalidates(self):
        net = _make_network()
        before = net.snapshot(0.0)
        victim = net.satellites[0].satellite_id
        net.set_fault_state(failed_satellites=[victim])
        degraded = net.snapshot(0.0)
        assert degraded is not before
        assert victim not in degraded.graph
        net.clear_fault_state()
        recovered = net.snapshot(0.0)
        assert recovered is not degraded
        assert victim in recovered.graph

    def test_fault_epoch_monotone(self):
        net = _make_network()
        epoch0 = net.fault_epoch
        net.set_fault_state(failed_satellites=[net.satellites[0].satellite_id])
        epoch1 = net.fault_epoch
        net.clear_fault_state()
        assert epoch0 < epoch1 < net.fault_epoch

    def test_explicit_invalidation(self):
        net = _make_network()
        first = net.snapshot(0.0)
        net.invalidate_snapshot_cache()
        assert net.snapshot(0.0) is not first

    def test_cache_size_zero_disables(self):
        net = _make_network(snapshot_cache_size=0)
        assert net.snapshot(0.0) is not net.snapshot(0.0)

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="cache size"):
            _make_network(snapshot_cache_size=-1)

    def test_lru_eviction_bounds_memory(self):
        net = _make_network(snapshot_cache_size=2)
        oldest = net.snapshot(0.0)
        net.snapshot(60.0)
        net.snapshot(120.0)  # evicts the t=0 entry
        assert len(net._snapshot_cache) == 2
        assert net.snapshot(0.0) is not oldest

    def test_user_owner_and_terminal_are_part_of_the_key(self):
        # Same id, site and mask, but another home provider and a larger
        # dish: the overlay must be rebuilt, not served from the cache.
        first = _make_user()
        second = UserTerminal(
            first.user_id, first.location, "other-op",
            terminal=dataclasses.replace(first.terminal,
                                         dish_diameter_m=2.0),
            min_elevation_deg=first.min_elevation_deg,
        )
        net = _make_network()
        stale = net.snapshot(600.0, users=[first])
        served = net.snapshot(600.0, users=[second])
        assert served is not stale
        fresh = _make_network(snapshot_cache_size=0).snapshot(
            600.0, users=[second]
        )
        assert served.digest() == fresh.digest()
        assert served.graph.nodes[first.user_id]["owner"] == "other-op"

    def test_unhashable_user_sets_bypass_cache(self, network):
        user = _make_user("u-bypass")
        first = network.snapshot(400.0, users=[user])
        # Same terminal identity -> cache hit; a distinct equal-by-value
        # terminal object is a different key, so it rebuilds.
        assert network.snapshot(400.0, users=[user]) is first


class TestPrimedPositions:
    """``prime_positions`` must be a pure speedup, bit for bit.

    The batched engine primes whole epoch grids up front; the digest
    gates only hold if a primed column carries exactly the same float64
    bits as a lazy single-epoch solve (grid-width-independent Kepler
    batch + contiguous-matrix frame rotation; see
    ``OpenSpaceNetwork.prime_positions``).
    """

    TIMES = [0.0, 450.0, 900.0, 1350.0]

    def test_primed_positions_bitwise_equal_lazy(self):
        primed = _make_network()
        assert primed.prime_positions(self.TIMES) == len(self.TIMES)
        cold = _make_network()
        for t in self.TIMES:
            by_id = primed.satellite_positions(t)
            lazy = cold.satellite_positions(t)
            assert by_id.keys() == lazy.keys()
            for sat_id, position in by_id.items():
                assert np.array_equal(position, lazy[sat_id])

    def test_primed_snapshots_digest_equal_lazy(self):
        primed = _make_network(snapshot_cache_size=0)
        primed.prime_positions(self.TIMES)
        cold = _make_network(snapshot_cache_size=0)
        for t in self.TIMES:
            assert primed.snapshot(t).digest() == cold.snapshot(t).digest()

    def test_clear_primed_positions(self):
        net = _make_network()
        net.prime_positions(self.TIMES)
        net.clear_primed_positions()
        assert net.prime_positions([]) == 0


class TestStationStateChange:
    """Station state (rain, queues, tariffs) changes take a new snapshot.

    After the change, ``invalidate_snapshot_cache()`` and ``snapshot()``
    rebuild every ground link from the new state: links that stopped
    closing are gone, and the survivors carry the new budgets.
    """

    def test_rain_leaves_only_links_that_close(self):
        fleet = build_fleet(iridium_like(), "cache-op", SizeClass.MEDIUM)
        stations = default_station_network()
        net = OpenSpaceNetwork(fleet, stations)
        clear_sky = _ground_links(net.snapshot(0.0))
        for station in stations:
            station.rain_rate_mm_h = 100.0
        net.invalidate_snapshot_cache()
        rainy = net.snapshot(0.0)
        links = _ground_links(rainy)
        assert 0 < len(links) < len(clear_sky)

        positions = net.satellite_positions(0.0)
        specs = {spec.satellite_id: spec for spec in fleet}
        by_id = {station.station_id: station for station in stations}
        for sat_id, station_id, data in links:
            spec, station = specs[sat_id], by_id[station_id]
            station_pos = station.position_eci(0.0)
            delta = positions[sat_id] - station_pos
            budget = rf_link_budget(
                spec.ground_terminal,
                net._station_terminal(spec.ground_terminal.band_name),
                float(np.sqrt((delta * delta).sum())),
                elevation_rad=float(elevation_angles(
                    station_pos, positions[sat_id][None, :])[0]),
                rain_rate_mm_h=station.rain_rate_mm_h,
            )
            capacity = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
            assert capacity > 0.0
            assert data["capacity_bps"] == min(capacity,
                                               station.backhaul_capacity_bps)
        fresh = OpenSpaceNetwork(fleet, stations).snapshot(0.0)
        assert rainy.digest() == fresh.digest()


class TestSnapshotCsrCache:
    """CSR adjacencies cached on the snapshot."""

    def test_adjacency_cached_per_cost_model(self, network):
        pytest.importorskip("scipy")
        from repro.routing.metrics import EdgeCostModel

        snap = network.snapshot(400.0)
        default_adj = snap.csr_adjacency()
        assert snap.csr_adjacency() is default_adj
        other = snap.csr_adjacency(EdgeCostModel(tariff_weight=0.5))
        assert other is not default_adj

    def test_route_backends_agree(self, network):
        # The snapshot's CSR routes match the networkx oracle.
        snap = network.snapshot(500.0, users=[_make_user()])
        stations = snap.nodes_of_kind("ground_station")
        assert stations
        metrics = snap.route("u-cache", stations[0])
        reference = oracle.path(snap.graph, "u-cache", stations[0])
        if reference is None:
            assert metrics is None
        else:
            assert metrics.path == reference
        nearest = snap.nearest_ground_station_route("u-cache")
        expected = _oracle_nearest(snap, "u-cache")
        assert nearest is not None and expected is not None
        assert nearest.total_delay_s == expected.total_delay_s
        assert nearest.path == expected.path
