"""Property tests: the array snapshot equals the graph-built oracle.

``OpenSpaceNetwork`` keeps every snapshot as arrays; ``tests/core/
oracle.py`` keeps the networkx assembly they replaced.  Over random
small fleets (mixed RF and optical ISL terminals, laser pointing turned
off, ISL degree caps 1-4, satellites without a ground terminal), random
failed satellites, stations and links, stations with rain, load, custom
masks and binding backhaul, and random user sets, the two must agree on:

* ``digest()``, with and without users;
* ``.graph`` and ``.isl_snapshot.graph``: node order, every neighbour
  order, and every attribute's value and type;
* ``isl_snapshot.link_count`` (failed links still count there) and
  ``nodes_of_kind``;
* the CSR ``nodes``/``indptr``/``indices``/``data`` under
  ``PROPAGATION_ONLY`` and under a model with queue, tariff and
  bottleneck terms;
* ``gateway_probe_paths`` and every field of
  ``nearest_ground_station_route``, and the route metrics of random
  walks;
* the nearest-gateway rule itself: both return the path to the
  first-listed station at the least oracle distance, a probe over its
  user's single-user overlay (its user rows relay nothing), a route over
  the snapshot it comes from, where another user's terminal may relay
  it (an expected failure pins that until ground nodes stop relaying);
* ``last_snapshot_delta`` and ``delta_stats`` along a walk of instants
  and fault changes.

A last test counts networkx graph constructions and finds none on the
routing path.
"""

import dataclasses

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import walker_delta
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import (
    RFTerminal,
    standard_ku_user_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import PROPAGATION_ONLY, EdgeCostModel, path_metrics
from tests.core import oracle
from tests.isl.oracle import oracle_graph
from tests.routing import oracle as routing_oracle

FLEET = build_fleet(walker_delta(40, 5), "array-op", SizeClass.MEDIUM)
STATION_SITES = [station.location for station in default_station_network()]
RANGE_KM = 4500.0

UHF = standard_uhf_isl_terminal()
SBAND = standard_sband_isl_terminal()
LASER = OpticalTerminal()
# Low power: the Shannon term binds instead of the 2 bps/Hz ceiling.
WEAK_LASER = OpticalTerminal(tx_power_w=0.001)
ISL_PROFILES = ((UHF,), (SBAND,), (UHF, SBAND), (SBAND, LASER),
                (UHF, WEAK_LASER), (LASER,), (SBAND, WEAK_LASER, LASER))

WEAK_KU = RFTerminal(band_name="ku_downlink", tx_power_w=2.0,
                     antenna_gain_dbi=24.0, noise_temp_k=700.0)
SMALL_DISH = RFTerminal(band_name="ku_downlink", tx_power_w=1.0,
                        dish_diameter_m=0.3, noise_temp_k=400.0)

#: Queue, tariff and bottleneck terms all active.
LOADED = EdgeCostModel(queue_weight=2.0, tariff_weight=0.003,
                       min_capacity_bps=2e8, bottleneck_penalty_s=0.01)
MODELS = (PROPAGATION_ONLY, LOADED)

TIMES = st.one_of(st.sampled_from([0.0, 30.0, 600.0]),
                  st.floats(min_value=0.0, max_value=6000.0))


@st.composite
def networks(draw):
    """A network over a randomized fleet and station set."""
    fleet = []
    for spec in FLEET:
        cap = draw(st.integers(min_value=1, max_value=4))
        spec = dataclasses.replace(
            spec,
            isl_terminals=list(draw(st.sampled_from(ISL_PROFILES))),
            ground_terminal=draw(st.sampled_from(
                [spec.ground_terminal, spec.ground_terminal, WEAK_KU, None])),
            max_concurrent_isls=cap,
        )
        fleet.append(spec)
    stations = []
    for station in default_station_network():
        backhaul = draw(st.sampled_from([10e9, 2_000_000_000, 5e7]))
        stations.append(dataclasses.replace(
            station,
            backhaul_capacity_bps=backhaul,
            rain_rate_mm_h=draw(st.sampled_from([0.0, 0.0, 5.0, 60.0])),
            min_elevation_deg=draw(st.sampled_from([0.0, 10.0, 25.0])),
        ))
    network = OpenSpaceNetwork(
        fleet, stations, max_isl_range_km=RANGE_KM,
        ground_elevation_mask_deg=draw(st.sampled_from([0.0, 10.0, 20.0])),
    )
    for node in network._builder.nodes:
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            node.allow_optical = False
    return network


@st.composite
def fault_states(draw, network):
    sat_ids = [spec.satellite_id for spec in network.satellites]
    station_ids = [station.station_id for station in network.ground_stations]
    # ISLs of the fault-free fleet at t = 0, so failed links often cut a
    # real edge; drawn from the oracle to leave the network's history be.
    links = sorted(oracle_graph(network._builder.nodes,
                                oracle.satellite_positions(network, 0.0),
                                max_range_km=RANGE_KM).edges)
    pairs = st.tuples(st.sampled_from(sat_ids), st.sampled_from(sat_ids))
    return (
        draw(st.lists(st.sampled_from(sat_ids), max_size=4, unique=True)),
        draw(st.lists(st.sampled_from(station_ids), max_size=2,
                      unique=True)),
        draw(st.lists(st.one_of(st.sampled_from(links), pairs)
                      if links else pairs, max_size=4)),
    )


@st.composite
def user_sites(draw):
    """Mostly near a gateway, so many users route; sometimes anywhere."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return GeodeticPoint(draw(st.floats(min_value=-80.0, max_value=80.0)),
                             draw(st.floats(min_value=-180.0,
                                            max_value=180.0)))
    site = draw(st.sampled_from(STATION_SITES))
    return GeodeticPoint(
        max(-89.0, min(89.0, site.latitude_deg
                       + draw(st.floats(min_value=-10.0, max_value=10.0)))),
        site.longitude_deg + draw(st.floats(min_value=-15.0, max_value=15.0)),
    )


@st.composite
def user_sets(draw):
    count = draw(st.integers(min_value=0, max_value=6))
    return [
        UserTerminal(
            f"u{index}", draw(user_sites()),
            draw(st.sampled_from(["op-a", "op-b"])),
            terminal=draw(st.sampled_from([standard_ku_user_terminal(),
                                           SMALL_DISH])),
            min_elevation_deg=draw(st.sampled_from([0.0, 10.0, 30.0])),
        )
        for index in range(count)
    ]


def _graph_rows(graph):
    """Node order, neighbour orders and attribute reprs of a graph."""
    return (
        [(node, repr(sorted(data.items())))
         for node, data in graph.nodes(data=True)],
        [(node, list(graph.adj[node])) for node in graph.nodes],
        [(a, b, repr(sorted(data.items())))
         for a, b, data in graph.edges(data=True)],
    )


def _assert_csr_equal(adjacency, reference):
    assert adjacency.nodes == reference.nodes
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(adjacency, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)


def _assert_matches_oracle(snap, reference):
    assert snap.digest() == reference.digest()
    assert _graph_rows(snap.graph) == _graph_rows(reference.graph)
    assert _graph_rows(snap.isl_snapshot.graph) == \
        _graph_rows(reference.isl_graph)
    assert snap.isl_snapshot.link_count == \
        reference.isl_graph.number_of_edges()
    for kind in ("satellite", "ground_station", "user", "other"):
        assert snap.nodes_of_kind(kind) == reference.nodes_of_kind(kind)
    for model in MODELS:
        _assert_csr_equal(snap.csr_adjacency(model),
                          CsrAdjacency.from_graph(reference.graph,
                                                  weight=model))


class TestArraySnapshotMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), network=networks(), users=user_sets(),
           time_s=TIMES)
    def test_snapshot_equals_graph_assembly(self, data, network, users,
                                            time_s):
        if data.draw(st.booleans()):
            network.set_fault_state(*data.draw(fault_states(network)))
        _assert_matches_oracle(network.snapshot(time_s),
                               oracle.base_snapshot(network, time_s))
        snap = network.snapshot(time_s, users=users)
        reference = oracle.user_snapshot(network, time_s, users)
        _assert_matches_oracle(snap, reference)
        assert network.gateway_probe_paths(
            network.snapshot(time_s), users) == {
            user.user_id: oracle.probe(network, time_s, user)
            for user in users
        }
        # Every RouteMetrics field: delays, tariff, bottleneck, owners.
        for user in users:
            assert snap.nearest_ground_station_route(user.user_id) == \
                reference.nearest_ground_station_route(user.user_id)
        # Route metrics over arbitrary walks, which (unlike shortest
        # paths) often repeat an owner on consecutive hops.
        walk = [data.draw(st.sampled_from(list(reference.graph.nodes)))]
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            neighbours = list(reference.graph.adj[walk[-1]])
            if not neighbours:
                break
            walk.append(data.draw(st.sampled_from(neighbours)))
        if len(walk) > 1:
            assert path_metrics(snap, walk) == \
                routing_oracle.path_metrics(reference.graph, walk)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), network=networks(),
           walk=st.lists(st.tuples(TIMES, st.integers(0, 5)), min_size=2,
                         max_size=6))
    def test_deltas_equal_oracle_bookkeeping(self, data, network, walk):
        expected = OracleDeltas()
        for time_s, change in walk:
            if change == 0:
                network.set_fault_state(*data.draw(fault_states(network)))
                expected.new_fault_epoch()
            network.snapshot(time_s)
            expected.request(network, time_s)
            _assert_delta_equal(network.last_snapshot_delta, expected.last)
            assert network.delta_stats == expected.stats


def _assert_nearest_gateway(route, reference, user_id):
    """``route`` ends at the first-listed station at the least networkx
    distance over the oracle snapshot ``reference``, at exactly that
    cost, or is ``None`` when ``reference`` reaches no station.

    Only the station choice and the path's cost are checked, so a tie
    between equal-cost paths to one station may break either way.
    """
    dist, _paths = routing_oracle.dijkstra(reference.graph, user_id)
    reached = [station for station in reference.nodes_of_kind(
        "ground_station") if station in dist]
    if not reached:
        assert route is None
        return
    nearest = min(reached, key=dist.get)  # first of the least
    assert route.path[-1] == nearest
    assert routing_oracle.path_cost(reference.graph, route.path) \
        == dist[nearest]


def _two_users():
    """u0 at (0, 0) and u1 at (34 N, 0) over ``FLEET``: at
    :data:`TestNearestGatewayRule.RELAY_TIMES` u0 alone reaches no
    gateway, but with u1 in the snapshot its route relays through u1's
    terminal."""
    network = OpenSpaceNetwork(FLEET, default_station_network(),
                               max_isl_range_km=RANGE_KM)
    users = [UserTerminal(f"u{index}", GeodeticPoint(latitude, 0.0), "op-a",
                          terminal=standard_ku_user_terminal(),
                          min_elevation_deg=0.0)
             for index, latitude in enumerate((0.0, 34.0))]
    return network, users


class TestNearestGatewayRule:
    RELAY_TIMES = (270.0, 300.0, 330.0, 360.0, 1020.0, 1050.0, 1080.0,
                   1800.0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), network=networks(), users=user_sets(),
           time_s=TIMES)
    def test_first_listed_station_at_least_oracle_distance(
            self, data, network, users, time_s):
        # A probe answers for each user alone (its source-only user rows
        # relay nothing), so it is held to the single-user snapshot and
        # oracle.  In the multi-user snapshot one user's terminal can
        # relay another's route (ROADMAP item 1); its routes are held to
        # the multi-user oracle.
        if data.draw(st.booleans()):
            network.set_fault_state(*data.draw(fault_states(network)))
        probes = network.gateway_probe_paths(network.snapshot(time_s), users)
        snap = network.snapshot(time_s, users=users)
        reference = oracle.user_snapshot(network, time_s, users)
        for user in users:
            alone = network.snapshot(time_s, users=[user])
            route = alone.nearest_ground_station_route(user.user_id)
            _assert_nearest_gateway(
                route, oracle.user_snapshot(network, time_s, [user]),
                user.user_id)
            assert probes[user.user_id] == (None if route is None
                                            else route.path)
            _assert_nearest_gateway(
                snap.nearest_ground_station_route(user.user_id), reference,
                user.user_id)

    def test_probe_answers_for_its_user_alone(self):
        # At t = 270 s the two-user snapshot routes u0 -> sat-array-op-0
        # -> u1 -> sat-array-op-33 -> gs-ireland, but u0 alone reaches no
        # gateway: the probe follows the single-user snapshot.
        network, users = _two_users()
        probes = network.gateway_probe_paths(network.snapshot(270.0), users)
        alone = network.snapshot(270.0, users=users[:1])
        both = network.snapshot(270.0, users=users)
        assert probes["u0"] is None
        assert alone.nearest_ground_station_route("u0") is None
        _assert_nearest_gateway(
            None, oracle.user_snapshot(network, 270.0, users[:1]), "u0")
        _assert_nearest_gateway(
            both.nearest_ground_station_route("u0"),
            oracle.user_snapshot(network, 270.0, users), "u0")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_no_route_passes_through_a_ground_node(self):
        network, users = _two_users()
        for time_s in self.RELAY_TIMES:
            snap = network.snapshot(time_s, users=users)
            ground = set(snap.nodes_of_kind("ground_station")) | set(
                snap.nodes_of_kind("user"))
            for user in users:
                route = snap.nearest_ground_station_route(user.user_id)
                if route is not None:
                    assert not ground & set(route.path[1:-1])


class OracleDeltas:
    """The delta bookkeeping of ``OpenSpaceNetwork._record_delta``,
    recomputed from oracle snapshots' edge sets."""

    def __init__(self):
        self.stats = {"full_builds": 0, "delta_builds": 0,
                      "edges_appeared": 0, "edges_disappeared": 0,
                      "edges_persisted": 0}
        self.last = None
        self._previous = None
        self._same_epoch = False

    def new_fault_epoch(self):
        self._same_epoch = False

    def request(self, network, time_s):
        snap = oracle.base_snapshot(network, time_s)
        isl = _isl_edges(snap)
        ground = _ground_pairs(snap)
        previous = self._previous
        base_time_s = None if previous is None else previous[0]
        if previous is None or not self._same_epoch:
            self.last = (time_s, base_time_s, None, True)
            self.stats["full_builds"] += 1
        else:
            _, old_isl, old_ground = previous
            appeared, gone = isl - old_isl, old_isl - isl
            ground_appeared = ground - old_ground
            ground_gone = old_ground - ground
            self.last = (time_s, base_time_s,
                         (sorted(appeared), sorted(gone),
                          sorted(isl & old_isl)), False)
            self.stats["delta_builds"] += 1
            self.stats["edges_appeared"] += len(appeared) + len(ground_appeared)
            self.stats["edges_disappeared"] += len(gone) + len(ground_gone)
            self.stats["edges_persisted"] += len(isl & old_isl)
        self._previous = (time_s, isl, ground)
        self._same_epoch = True


def _isl_edges(snap):
    return {(a, b) if a <= b else (b, a) for a, b in snap.isl_graph.edges}


def _ground_pairs(snap):
    graph = snap.graph
    return {(u, v) if graph.nodes[u]["kind"] == "satellite" else (v, u)
            for u, v, kind in graph.edges(data="kind")
            if kind == "ground_link"}


def _assert_delta_equal(delta, expected):
    time_s, base_time_s, isl, full = expected
    assert delta.time_s == time_s
    assert delta.base_time_s == base_time_s
    assert delta.full_rebuild == full
    if isl is None:
        assert delta.isl is None
    else:
        assert not delta.isl.full_rebuild
        assert list(delta.isl.appeared) == isl[0]
        assert list(delta.isl._named(delta.isl.disappeared_pairs)) == isl[1]
        assert list(delta.isl._named(delta.isl.persisted_pairs)) == isl[2]


class TestNoGraphOnTheRoutingPath:
    def test_snapshot_csr_dijkstra_and_probes_build_no_graph(
            self, graph_constructions):
        fleet = build_fleet(walker_delta(60, 6), "array-op", SizeClass.MEDIUM)
        network = OpenSpaceNetwork(fleet, default_station_network(),
                                   max_isl_range_km=3000.0)
        sats = [spec.satellite_id for spec in fleet]
        users = [UserTerminal(f"u{i}", GeodeticPoint(-60.0 + 15.0 * i,
                                                     25.0 * i), "op-a")
                 for i in range(8)]
        for time_s in (0.0, 30.0, 60.0):
            if time_s == 60.0:
                network.set_fault_state(failed_satellites=sats[:3],
                                        failed_links=[(sats[4], sats[5])])
            snap = network.snapshot(time_s)
            source = snap.nodes_of_kind("ground_station")[0]
            snap.csr_adjacency().single_source(source)
            snap.csr_adjacency(LOADED).single_source(source)
            network.snapshot(time_s, users=users).csr_adjacency()
            network.gateway_probe_paths(network.snapshot(time_s), users)
        # Each of the three requests an instant is one build: full at
        # t = 0 and after the fault change, a delta otherwise.
        assert network.delta_stats["full_builds"] == 2
        assert network.delta_stats["delta_builds"] == 7
        assert graph_constructions == []
        snap.graph  # the counter does see a graph being built
        assert graph_constructions == [nx.Graph]
