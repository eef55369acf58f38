"""Batched gateway probes must match the scalar per-user oracle exactly.

``OpenSpaceNetwork.gateway_probe_paths`` answers every monitored user
with one Dijkstra over the base snapshot's CSR plus one source-only row
per user; every fault-scenario probe stands on it.  The contract is bitwise: the same path, node for node, as a
per-user probe over the scalar access-link overlay
(``tests/core/oracle.py``) — through fault state, primed position grids,
and a fleet of mixed satellite and user terminals.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.phy.rf import RFTerminal
from tests.core import oracle


def _make_network(**kwargs):
    fleet = build_fleet(iridium_like(), "probe-op", SizeClass.MEDIUM)
    return OpenSpaceNetwork(fleet, default_station_network(), **kwargs)


def _users():
    return [
        UserTerminal(f"u-{name}", site, "probe-op", min_elevation_deg=10.0)
        for name, site in SAMPLE_SITES
    ]


def _scalar_probes(network, users, time_s):
    return {u.user_id: oracle.probe(network, time_s, u) for u in users}


@pytest.fixture(scope="module")
def network():
    return _make_network()


@pytest.fixture(scope="module")
def users():
    return _users()


class TestGatewayProbePaths:
    def test_matches_scalar_oracle_across_epochs(self, network, users):
        for time_s in np.linspace(0.0, 5400.0, 8):
            batched = network.gateway_probe_paths(float(time_s), users)
            assert batched == _scalar_probes(network, users, float(time_s))

    def test_some_user_is_routable(self, network, users):
        paths = network.gateway_probe_paths(0.0, users)
        routable = [p for p in paths.values() if p is not None]
        assert routable, "reference fleet should reach some gateway"
        for path in routable:
            assert path[0].startswith("u-")

    def test_empty_user_set(self, network):
        assert network.gateway_probe_paths(0.0, []) == {}

    def test_matches_scalar_under_faults(self, users):
        net = _make_network()
        sats = [s.satellite_id for s in net.satellites]
        net.set_fault_state(failed_satellites=sats[::5],
                            failed_links=[(sats[1], sats[2])])
        try:
            for time_s in (0.0, 900.0, 1800.0):
                batched = net.gateway_probe_paths(time_s, users)
                assert batched == _scalar_probes(net, users, time_s)
                for sat in sats[::5]:
                    for path in batched.values():
                        assert path is None or sat not in path
        finally:
            net.clear_fault_state()

    def test_all_stations_failed_means_unreachable(self, users):
        net = _make_network()
        stations = [st.station_id for st in default_station_network()]
        net.set_fault_state(failed_stations=stations)
        try:
            paths = net.gateway_probe_paths(0.0, users)
            assert all(path is None for path in paths.values())
        finally:
            net.clear_fault_state()

    def test_walked_probes_equal_fresh_networks(self, users):
        # One network's fleet is stacked once and serves every instant;
        # a fresh network per instant must probe the same paths.
        walked = _make_network()
        times = np.linspace(0.0, 3600.0, 4, endpoint=False)
        for time_s in times:
            assert (walked.gateway_probe_paths(float(time_s), users)
                    == _make_network().gateway_probe_paths(float(time_s),
                                                           users))

    def test_loaded_gateways_trade_queueing_for_distance(self, users):
        # Saturated gateways queue for up to 1 s, so the probe must weigh
        # queueing against propagation to pick the same gateway.
        net = _make_network()
        for index, station in enumerate(net.ground_stations):
            station.current_load_bps = (0.999 if index % 2 else 0.5) * \
                station.backhaul_capacity_bps
        routed_to_idle = 0
        for time_s in (0.0, 900.0, 1800.0):
            batched = net.gateway_probe_paths(time_s, users)
            assert batched == _scalar_probes(net, users, time_s)
            idle = set(net.snapshot(time_s).nodes_of_kind("ground_station")
                       [::2])
            routed_to_idle += sum(path is not None and path[-1] in idle
                                  for path in batched.values())
        assert routed_to_idle > 0

    def test_matches_oracle_on_mixed_fleet(self):
        # Every third satellite carries a weaker Ku terminal and every
        # seventh none at all; users alternate between two Ku terminals.
        weak = RFTerminal(band_name="ku_downlink", tx_power_w=2.0,
                          antenna_gain_dbi=24.0, noise_temp_k=700.0)
        fleet = build_fleet(iridium_like(), "probe-op", SizeClass.MEDIUM)
        for index, spec in enumerate(fleet):
            if index % 7 == 0:
                fleet[index] = dataclasses.replace(spec, ground_terminal=None)
            elif index % 3 == 0:
                fleet[index] = dataclasses.replace(spec, ground_terminal=weak)
        small_dish = RFTerminal(band_name="ku_downlink", tx_power_w=1.0,
                                dish_diameter_m=0.3, noise_temp_k=400.0)
        users = [
            UserTerminal(f"u-{index}", GeodeticPoint(lat, lon), "probe-op",
                         min_elevation_deg=mask)
            for index, (lat, lon, mask) in enumerate([
                (-33.9, 151.2, 10.0), (1.3, 103.8, 25.0), (51.5, 0.0, 10.0),
                (64.8, -147.7, 0.0), (-1.3, 36.8, 40.0), (35.7, 139.7, 10.0),
            ])
        ]
        for user in users[::2]:
            user.terminal = small_dish
        net = OpenSpaceNetwork(fleet, default_station_network())
        net.set_fault_state(failed_satellites=[fleet[4].satellite_id])
        routed = 0
        for time_s in (0.0, 700.0, 2900.0):
            batched = net.gateway_probe_paths(time_s, users)
            assert batched == _scalar_probes(net, users, time_s)
            routed += sum(path is not None for path in batched.values())
        assert routed > 0


class TestNearestGatewayTie:
    """Two stations at exactly equal cost: the first-listed one wins."""

    @pytest.mark.parametrize("twin_first", [False, True])
    def test_first_listed_of_two_equal_stations(self, network, twin_first):
        user = UserTerminal("u-nairobi", GeodeticPoint(-1.29, 36.82),
                            "probe-op", min_elevation_deg=10.0)
        gateway = network.gateway_probe_paths(0.0, [user])[user.user_id][-1]
        # A second record at the gateway's site: every one of its links
        # prices exactly as the gateway's own.
        stations = default_station_network()
        index = [st.station_id for st in stations].index(gateway)
        twin = dataclasses.replace(stations[index],
                                   station_id=f"{gateway}-twin")
        stations.insert(index if twin_first else index + 1, twin)
        net = OpenSpaceNetwork(network.satellites, stations)
        snap = net.snapshot(0.0, users=[user])
        paths = snap.csr_adjacency().single_source(user.user_id)
        assert (paths.distance(user.user_id, gateway)
                == paths.distance(user.user_id, twin.station_id))
        expected = twin.station_id if twin_first else gateway
        assert net.gateway_probe_paths(0.0, [user])[user.user_id][-1] \
            == expected
        assert snap.nearest_ground_station_route(user.user_id).path[-1] \
            == expected


class TestLatencySplit:
    """``PROPAGATION_ONLY`` ranks routes by propagation plus queueing."""

    def test_latency_is_propagation_plus_gateway_queue(self, network):
        # The latency command's Nairobi query: 11.568 ms of light time
        # plus the idle gateway's 2 ms queueing proxy.
        user = UserTerminal("u-nairobi", GeodeticPoint(-1.29, 36.82),
                            "probe-op", min_elevation_deg=10.0)
        snap = network.snapshot(600.0, users=[user])
        route = snap.nearest_ground_station_route(user.user_id)
        assert route.path[-1] == "gs-nairobi"
        assert route.propagation_delay_s == pytest.approx(11.568e-3,
                                                          abs=1e-6)
        assert route.queue_delay_s == 0.002
        assert network.user_to_internet_latency_s(user, 600.0) == \
            route.propagation_delay_s + route.queue_delay_s
        # The CSR adds the same terms hop by hop, so only the order of
        # the additions differs.
        distance = snap.csr_adjacency().single_source(
            user.user_id).distance(user.user_id, "gs-nairobi")
        assert distance == pytest.approx(route.total_delay_s, rel=1e-12)
