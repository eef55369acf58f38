"""Property tests: the batched user overlay equals the scalar oracle.

``OpenSpaceNetwork.snapshot(t, users=...)`` prices every access link in
one chunked array pass.  Over random user sites and elevation masks,
mixed user terminals, fleets where some satellites carry a different Ku
terminal or none at all, failed satellites (up to the whole fleet), and
chunk sizes that split the users, the snapshot must equal the per-user
scalar overlay (``tests/core/oracle.py``) in three ways: the digest
(every attribute, bit for bit), the node order, and every node's
neighbour order.  CSR compiles nodes in insertion order and sorts
neighbours by index, so the last two decide shortest-path tie-breaks.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import network as network_module
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import walker_delta
from repro.phy.rf import RFTerminal, standard_ku_user_terminal
from tests.core import oracle

#: A smaller Walker fleet keeps each example cheap; 40 satellites in 5
#: planes still give most sites several satellites overhead.
FLEET = build_fleet(walker_delta(40, 5), "prop-op", SizeClass.MEDIUM)

#: A second Ku space terminal: weaker, so some of its links fail to close.
ALT_SPACE_TERMINAL = RFTerminal(band_name="ku_downlink", tx_power_w=2.0,
                                antenna_gain_dbi=24.0, noise_temp_k=700.0)
ALT_USER_TERMINAL = RFTerminal(band_name="ku_downlink", tx_power_w=1.0,
                               dish_diameter_m=0.3, noise_temp_k=400.0)
USER_TERMINALS = (standard_ku_user_terminal(), ALT_USER_TERMINAL)

#: Masks from horizon to beyond any satellite (a 90 degree mask sees
#: nothing but an exact zenith pass).
MASKS = st.one_of(st.sampled_from([0.0, 10.0, 25.0, 90.0]),
                  st.floats(min_value=0.0, max_value=70.0))


@st.composite
def fleets(draw):
    """The reference fleet with some ground terminals swapped or removed."""
    variants = draw(st.lists(st.sampled_from(["keep", "keep", "alt", "none"]),
                             min_size=len(FLEET), max_size=len(FLEET)))
    fleet = []
    for spec, variant in zip(FLEET, variants):
        if variant == "alt":
            spec = dataclasses.replace(spec,
                                       ground_terminal=ALT_SPACE_TERMINAL)
        elif variant == "none":
            spec = dataclasses.replace(spec, ground_terminal=None)
        fleet.append(spec)
    return fleet


@st.composite
def user_sets(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    users = []
    for index in range(count):
        users.append(UserTerminal(
            f"u{index}",
            GeodeticPoint(draw(st.floats(min_value=-85.0, max_value=85.0)),
                          draw(st.floats(min_value=-180.0, max_value=180.0))),
            draw(st.sampled_from(["op-a", "op-b"])),
            terminal=draw(st.sampled_from(USER_TERMINALS)),
            min_elevation_deg=draw(MASKS),
        ))
    return users


def _assert_same_overlay(snap, reference):
    assert snap.digest() == reference.digest()
    assert list(snap.graph.nodes) == list(reference.graph.nodes)
    for node in reference.graph.nodes:
        assert list(snap.graph.adj[node]) == list(reference.graph.adj[node])


class TestAccessOverlayMatchesOracle:
    @settings(max_examples=20, deadline=None)
    @given(fleet=fleets(), users=user_sets(),
           time_s=st.floats(min_value=0.0, max_value=6000.0),
           failed=st.sets(st.integers(min_value=0, max_value=len(FLEET) - 1),
                          max_size=8),
           chunk_pairs=st.sampled_from([1, 25, 90, 40_000]))
    def test_snapshot_equals_scalar_overlay(self, fleet, users, time_s,
                                            failed, chunk_pairs):
        network = OpenSpaceNetwork(fleet, default_station_network())
        if failed:
            network.set_fault_state(
                failed_satellites=[fleet[i].satellite_id for i in failed])
        with mock.patch.object(network_module, "_ACCESS_CHUNK_PAIRS",
                               chunk_pairs):
            snap = network.snapshot(time_s, users=users)
        _assert_same_overlay(snap, oracle.user_snapshot(network, time_s,
                                                        users))

    @settings(max_examples=5, deadline=None)
    @given(users=user_sets(),
           time_s=st.floats(min_value=0.0, max_value=6000.0))
    def test_every_satellite_failed(self, users, time_s):
        network = OpenSpaceNetwork(FLEET, default_station_network())
        network.set_fault_state(
            failed_satellites=[spec.satellite_id for spec in FLEET])
        snap = network.snapshot(time_s, users=users)
        _assert_same_overlay(snap, oracle.user_snapshot(network, time_s,
                                                        users))
        assert not any(kind == "access_link"
                       for _u, _v, kind in snap.graph.edges(data="kind"))


class TestAccessOverlayEdgeCases:
    def test_users_that_see_no_satellite(self):
        network = OpenSpaceNetwork(FLEET, default_station_network())
        users = [UserTerminal(f"blind{i}",
                              GeodeticPoint(3.7 + 10.0 * i, 11.3 * i),
                              "op-a", min_elevation_deg=90.0)
                 for i in range(4)]
        snap = network.snapshot(123.4, users=users)
        _assert_same_overlay(snap,
                             oracle.user_snapshot(network, 123.4, users))
        for user in users:
            assert snap.graph.degree(user.user_id) == 0

    def test_user_set_spanning_several_chunks(self):
        # More users than one chunk of the module constant holds.
        network = OpenSpaceNetwork(FLEET, default_station_network())
        per_chunk = network_module._ACCESS_CHUNK_PAIRS // len(FLEET)
        users = [
            UserTerminal(f"grid{i}",
                         GeodeticPoint(-70.0 + (i % 29) * 5.0,
                                       -180.0 + (i * 7.3) % 360.0),
                         "op-a", min_elevation_deg=10.0,
                         terminal=USER_TERMINALS[i % 2])
            for i in range(2 * per_chunk + 3)
        ]
        snap = network.snapshot(1200.0, users=users)
        _assert_same_overlay(snap,
                             oracle.user_snapshot(network, 1200.0, users))
