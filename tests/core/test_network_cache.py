"""Snapshot build tests for :class:`OpenSpaceNetwork`.

The network keeps no snapshot: every ``snapshot()`` call is one build
from the current fleet, fault, station and user state.  These tests pin
that contract: a repeated request is a fresh build with the same
content, a fault-state change or a changed user owner or terminal is
seen at the next request, a station-state change likewise with no call
in between, ``snapshot_cache_size`` accepts only ``0``, position priming
changes no bit, and the snapshot's own CSR memo.
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
from repro.orbits.kepler import KeplerPropagator
from repro.orbits.walker import iridium_like
from repro.phy.modulation import achievable_rate_bps
from repro.phy.rf import rf_link_budget
from tests.core.oracle import satellite_positions
from tests.orbits.oracle import elevation_angles
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
    """Route metrics to the first-listed station at the least networkx
    oracle distance."""
    dist, paths = oracle.dijkstra(snap.graph, source)
    reached = [station for station in snap.nodes_of_kind("ground_station")
               if station in dist]
    if not reached:
        return None
    return oracle.path_metrics(snap.graph,
                               paths[min(reached, key=dist.get)])


@pytest.fixture(scope="module")
def network():
    return _make_network()


class TestSnapshotCache:
    def test_distinct_times_get_distinct_snapshots(self, network):
        assert network.snapshot(0.0) is not network.snapshot(60.0)

    def test_user_overlay_matches_cold_build(self):
        # A user snapshot assembled on top of a base built after another
        # request must equal one built by a fresh network.
        user = _make_user()
        warm = _make_network()
        warm.snapshot(300.0)
        incremental = warm.snapshot(300.0, users=[user])
        cold = _make_network().snapshot(300.0, users=[user])
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            incremental.graph, cold.graph
        )
        assert set(incremental.graph.nodes) == set(cold.graph.nodes)
        assert set(incremental.graph.edges) == set(cold.graph.edges)
        assert matcher.is_isomorphic()

    def test_fault_state_change_invalidates(self):
        # Each fault change is seen at the next request, and the build
        # equals a fresh network's under the same fault state.
        net = _make_network()
        before = net.snapshot(0.0)
        victim = net.satellites[0].satellite_id
        net.set_fault_state(failed_satellites=[victim])
        degraded = net.snapshot(0.0)
        assert victim not in degraded.graph
        fresh = _make_network()
        fresh.set_fault_state(failed_satellites=[victim])
        assert degraded.digest() == fresh.snapshot(0.0).digest()
        net.clear_fault_state()
        recovered = net.snapshot(0.0)
        assert victim in recovered.graph
        assert recovered.digest() == before.digest()

    def test_fault_epoch_monotone(self):
        net = _make_network()
        epoch0 = net.fault_epoch
        net.set_fault_state(failed_satellites=[net.satellites[0].satellite_id])
        epoch1 = net.fault_epoch
        net.clear_fault_state()
        assert epoch0 < epoch1 < net.fault_epoch

    def test_cache_size_zero_disables(self):
        # A repeated instant is a fresh build with the same content.
        net = _make_network(snapshot_cache_size=0)
        first = net.snapshot(0.0)
        again = net.snapshot(0.0)
        assert again is not first
        assert again.digest() == first.digest()

    def test_negative_cache_size_rejected(self):
        # Only 0 is accepted: negative and positive sizes alike raise.
        for size in (-1, 64):
            with pytest.raises(ValueError, match="cache size"):
                _make_network(snapshot_cache_size=size)

    def test_user_owner_and_terminal_are_part_of_the_key(self):
        # Same id, site and mask, but another home provider and a larger
        # dish: the next request sees both.
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
        fresh = _make_network().snapshot(600.0, users=[second])
        assert served.digest() == fresh.digest()
        assert served.digest() != stale.digest()
        assert served.graph.nodes[first.user_id]["owner"] == "other-op"


class TestFleetPositions:
    """The network's one stacked fleet carries each satellite's bits.

    The network propagates its whole fleet per instant through one
    :class:`~repro.orbits.kepler.KeplerFleet`, stacked on the first
    snapshot; every position must equal the satellite's own propagator
    bit for bit, and a network that has served other instants must
    build the same snapshot as a fresh one.
    """

    TIMES = [0.0, 450.0, 900.0, 1350.0]

    def test_positions_bitwise_equal_each_propagator(self):
        net = _make_network()
        for t in self.TIMES:
            by_id = satellite_positions(net, t)
            assert list(by_id) == [s.satellite_id for s in net.satellites]
            for spec in net.satellites:
                (expected,) = KeplerPropagator(spec.elements).positions_at(t)
                assert np.array_equal(by_id[spec.satellite_id], expected)

    def test_walked_snapshots_digest_equal_fresh(self):
        walked = _make_network()
        for t in self.TIMES:
            assert walked.snapshot(t).digest() == \
                _make_network().snapshot(t).digest()


class TestStationStateChange:
    """Station state (rain, queues, tariffs) changes take a new snapshot.

    The next ``snapshot()`` after the change, with no call in between,
    builds every ground link from the new state: links that stopped
    closing are gone, and the survivors carry the new budgets.
    """

    def test_rain_leaves_only_links_that_close(self):
        fleet = build_fleet(iridium_like(), "cache-op", SizeClass.MEDIUM)
        stations = default_station_network()
        net = OpenSpaceNetwork(fleet, stations)
        clear_sky = _ground_links(net.snapshot(0.0))
        for station in stations:
            station.rain_rate_mm_h = 100.0
        rainy = net.snapshot(0.0)
        links = _ground_links(rainy)
        assert 0 < len(links) < len(clear_sky)

        positions = satellite_positions(net, 0.0)
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
        from repro.routing.metrics import EdgeCostModel

        snap = network.snapshot(400.0)
        default_adj = snap.csr_adjacency()
        assert snap.csr_adjacency() is default_adj
        other = snap.csr_adjacency(EdgeCostModel(tariff_weight=0.5))
        assert other is not default_adj

    def test_route_backends_agree(self, network):
        # The snapshot's CSR route matches the networkx oracle.
        snap = network.snapshot(500.0, users=[_make_user()])
        nearest = snap.nearest_ground_station_route("u-cache")
        expected = _oracle_nearest(snap, "u-cache")
        assert nearest is not None and expected is not None
        assert nearest.total_delay_s == expected.total_delay_s
        assert nearest.path == expected.path
