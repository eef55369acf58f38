"""Property tests: a snapshot does not depend on the network's call history.

A network snapshot is a pure function of time and fault state.  One
network with default settings (delta recording on) walks a random
sequence of time steps, fault-state changes and clears; at every time
step its snapshot must equal a fresh network's
(built with the benchmark's ``snapshot_cache_size=0,
snapshot_delta=False``) in the same fault state:
the digest (every attribute, bit for bit) and the CSR arrays (node
order and neighbour order decide shortest-path tie-breaks).  Whenever
the walked network recorded a delta, it must span the build right
before it, and its ISL and ground-link changes must be the edge-set
differences of the two fresh snapshots it spans.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta

#: 60 satellites in 6 planes at a 3,000 km ISL range: every epoch has
#: ISLs, and 30 s steps keep some of them while long steps churn most.
FLEET = build_fleet(walker_delta(60, 6), "history-op", SizeClass.MEDIUM)
STATIONS = default_station_network()
RANGE_KM = 3000.0

SATELLITE_IDS = [spec.satellite_id for spec in FLEET]
STATION_IDS = [station.station_id for station in STATIONS]


def _network(**kwargs):
    return OpenSpaceNetwork(FLEET, STATIONS, max_isl_range_km=RANGE_KM,
                            **kwargs)


def _isl_edges(snap):
    """The ISLs as canonical ``(min_id, max_id)`` pairs."""
    return {(a, b) if a <= b else (b, a)
            for a, b in snap.isl_snapshot.graph.edges}


#: ISLs that exist at t = 0, so failed links usually cut a real edge.
LINKS = sorted(_isl_edges(_network().snapshot(0.0)))

#: Repeated instants record zero-churn deltas, instants a fraction of a
#: second apart must still differ, and free floats draw any instant.
TIMES = st.one_of(st.sampled_from([0.0, 0.25, 30.0, 600.0]),
                  st.floats(min_value=0.0, max_value=6000.0))


@st.composite
def steps(draw):
    """A history change (often none) followed by a snapshot request."""
    kind = draw(st.sampled_from(["none", "none", "fail", "clear"]))
    if kind == "fail":
        change = (
            kind,
            draw(st.lists(st.sampled_from(SATELLITE_IDS), max_size=3,
                          unique=True)),
            draw(st.lists(st.sampled_from(STATION_IDS), max_size=2,
                          unique=True)),
            draw(st.lists(st.sampled_from(LINKS), max_size=3, unique=True)),
        )
    else:
        change = (kind,)
    return change, draw(TIMES)


def _fresh_snapshot(time_s, faults):
    network = _network(snapshot_cache_size=0, snapshot_delta=False)
    if faults is not None:
        network.set_fault_state(*faults)
    return network.snapshot(time_s)


def _assert_same_snapshot(snap, reference):
    assert snap.digest() == reference.digest()
    walked, fresh = snap.csr_adjacency(), reference.csr_adjacency()
    assert walked.nodes == fresh.nodes
    assert np.array_equal(walked.indptr, fresh.indptr)
    assert np.array_equal(walked.indices, fresh.indices)
    assert np.array_equal(walked.data, fresh.data)


def _ground_pairs(snap):
    """``(satellite, station)`` for every ground link."""
    graph = snap.graph
    return {
        (u, v) if graph.nodes[u]["kind"] == "satellite" else (v, u)
        for u, v, data in graph.edges(data=True)
        if data.get("kind") == "ground_link"
    }


def _assert_delta_matches(delta, faults):
    before = _fresh_snapshot(delta.base_time_s, faults)
    after = _fresh_snapshot(delta.time_s, faults)
    old_edges = _isl_edges(before)
    new_edges = _isl_edges(after)
    assert set(delta.isl.appeared) == new_edges - old_edges
    assert set(delta.isl.disappeared) == old_edges - new_edges
    assert set(delta.isl.persisted) == new_edges & old_edges
    old_ground, new_ground = _ground_pairs(before), _ground_pairs(after)
    assert set(delta.ground_appeared) == new_ground - old_ground
    assert set(delta.ground_disappeared) == old_ground - new_ground


class TestSnapshotHistory:
    @given(history=st.lists(steps(), min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_walked_network_matches_fresh_builds(self, history):
        network = _network()
        faults = None
        for (kind, *args), time_s in history:
            if kind == "fail":
                faults = args
                network.set_fault_state(*faults)
            elif kind == "clear":
                faults = None
                network.clear_fault_state()
            before = network.last_snapshot_delta
            _assert_same_snapshot(network.snapshot(time_s),
                                  _fresh_snapshot(time_s, faults))
            delta = network.last_snapshot_delta
            if delta is not before and before is not None:
                # A new build diffs against the one right before it.
                assert delta.base_time_s == before.time_s
            if delta.isl is not None:
                _assert_delta_matches(delta, faults)
