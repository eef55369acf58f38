"""The greedy builder (one pass below the KD-tree threshold, shell-wise
at and above it) against the scalar greedy oracle.

Every test compares the builder's graph with :func:`oracle_graph` edge
for edge, in insertion order, through the repr of each edge's attribute
dict — snapshot digests hash reprs, so equal values of a different type
(a numpy float64 where the scalar path stores a Python float) count as
a difference.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.topology import (
    ASSIGNMENT_SHELLS,
    SPATIAL_AUTO_THRESHOLD,
    IslNode,
    IslTopologyBuilder,
)
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import standard_sband_isl_terminal, standard_uhf_isl_terminal
from tests.isl.oracle import oracle_graph

UHF = standard_uhf_isl_terminal()
SBAND = standard_sband_isl_terminal()
LASER = OpticalTerminal()
# Low power: the Shannon term binds instead of the 2 bps/Hz ceiling, so
# optical capacities are numpy float64 rather than Python floats.
WEAK_LASER = OpticalTerminal(tx_power_w=0.001)

TERMINAL_SETS = (
    (),
    (UHF,),
    (SBAND,),
    (UHF, SBAND),
    (LASER,),
    (WEAK_LASER,),
    (SBAND, LASER),
    (UHF, WEAK_LASER),
    (UHF, SBAND, LASER),
    (WEAK_LASER, SBAND, LASER),
)


def edge_reprs(graph):
    """Every edge with its attribute repr, in graph iteration order."""
    return [(a, b, repr(sorted(data.items())))
            for a, b, data in graph.edges(data=True)]


def pair_distance(pos_a, pos_b):
    """The range exactly as the builder's filter computes it."""
    delta = np.asarray(pos_a, dtype=float) - np.asarray(pos_b, dtype=float)
    return float(np.sqrt((delta * delta).sum(axis=-1)))


def shell_positions(names, altitude_km, seed):
    """Random directions on one orbital shell, keyed by node name."""
    directions = np.random.default_rng(seed).normal(size=(len(names), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return dict(zip(names, (EARTH_RADIUS_KM + altitude_km) * directions))


def assert_matches_oracle(nodes, positions, max_range_km, exclude=None):
    """Builder == oracle, or both raise ValueError."""
    builder = IslTopologyBuilder(nodes, max_range_km=max_range_km)
    try:
        expected = oracle_graph(nodes, positions, max_range_km,
                                exclude=exclude)
    except ValueError:
        with pytest.raises(ValueError):
            builder.snapshot(0.0, positions, exclude=exclude)
        return None
    got = builder.snapshot(0.0, positions, exclude=exclude).graph
    assert list(got.nodes(data=True)) == list(expected.nodes(data=True))
    assert edge_reprs(got) == edge_reprs(expected)
    return got


@st.composite
def fleets(draw, min_size=2, max_size=28):
    """Nodes on LEO-to-MEO shells with mixed terminals and degree caps,
    some co-located, some excluded, and a range that is either a round
    number or exactly one pair's distance."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    nodes, positions = [], {}
    for index in range(count):
        node_id = f"n{index:02d}"
        nodes.append(IslNode(
            node_id,
            list(draw(st.sampled_from(TERMINAL_SETS))),
            max_degree=draw(st.integers(min_value=0, max_value=4)),
            allow_optical=draw(st.booleans()),
        ))
        radius = EARTH_RADIUS_KM + draw(st.floats(300.0, 3000.0))
        lat = draw(st.floats(-1.5, 1.5))
        lon = draw(st.floats(-math.pi, math.pi))
        positions[node_id] = radius * np.array([
            math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
            math.sin(lat),
        ])
    ids = [node.node_id for node in nodes]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        source, target = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        positions[target] = positions[source].copy()
    exclude = draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        max_range_km = pair_distance(positions[a], positions[b]) or 1000.0
    else:
        max_range_km = draw(st.sampled_from([700.0, 2500.0, 6000.0, 20000.0]))
    return nodes, positions, max_range_km, exclude


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(fleet=fleets())
    def test_small_fleets(self, fleet):
        nodes, positions, max_range_km, exclude = fleet
        assert_matches_oracle(nodes, positions, max_range_km, exclude)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           max_range_km=st.sampled_from([1200.0, 2500.0]))
    def test_kdtree_fleet(self, seed, max_range_km):
        # At and above the threshold the pairs come from the KD-tree.
        rng = np.random.default_rng(seed)
        count = SPATIAL_AUTO_THRESHOLD + int(rng.integers(0, 64))
        directions = rng.normal(size=(count, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = EARTH_RADIUS_KM + rng.uniform(500.0, 1200.0, size=count)
        positions_matrix = directions * radii[:, None]
        positions_matrix[1] = positions_matrix[0]  # one co-located pair
        nodes = [
            IslNode(f"k{i:04d}",
                    list(TERMINAL_SETS[int(rng.integers(1, len(TERMINAL_SETS)))]),
                    max_degree=int(rng.integers(0, 5)),
                    allow_optical=bool(rng.integers(0, 2)))
            for i in range(count)
        ]
        nodes[0].max_degree = 0  # keep the co-located pair from raising
        positions = {node.node_id: positions_matrix[i]
                     for i, node in enumerate(nodes)}
        exclude = [f"k{int(i):04d}" for i in rng.choice(count, 5)]
        got = assert_matches_oracle(nodes, positions, max_range_km, exclude)
        assert got.number_of_edges() > 0


class TestEdgeCases:
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 4])
    def test_degree_caps(self, max_degree):
        nodes = [IslNode(f"d{i}", [SBAND, LASER], max_degree=max_degree)
                 for i in range(40)]
        positions = shell_positions([n.node_id for n in nodes], 800.0,
                                    seed=max_degree)
        got = assert_matches_oracle(nodes, positions, 6000.0)
        assert max(dict(got.degree()).values()) <= max_degree

    def test_optical_disallowed_everywhere(self):
        nodes = [IslNode(f"o{i}", [UHF, SBAND, LASER], max_degree=3,
                         allow_optical=False) for i in range(30)]
        positions = shell_positions([n.node_id for n in nodes], 600.0, seed=3)
        got = assert_matches_oracle(nodes, positions, 6000.0)
        assert all(data["link"].technology.is_rf
                   for _, _, data in got.edges(data=True))

    def test_pair_exactly_at_max_range(self):
        far = EARTH_RADIUS_KM + 20_000.0
        positions = {"a": np.array([far, 0.0, 0.0]),
                     "b": np.array([far, 2345.678, 17.25])}
        nodes = [IslNode("a", [LASER]), IslNode("b", [LASER])]
        exact = pair_distance(positions["a"], positions["b"])
        got = assert_matches_oracle(nodes, positions, exact)
        assert got.number_of_edges() == 1
        shy = assert_matches_oracle(nodes, positions,
                                    float(np.nextafter(exact, 0.0)))
        assert shy.number_of_edges() == 0

    def test_pairs_on_shell_boundaries(self):
        # Axis-aligned offsets make the ranges exact: consecutive nodes
        # sit R/8, R/4, R/2 and R apart, one pair on each shell edge.
        max_range_km = 8000.0
        x = EARTH_RADIUS_KM + 20_000.0
        offsets = [0.0]
        for shell in reversed(range(ASSIGNMENT_SHELLS)):
            offsets.append(offsets[-1] + max_range_km / 2 ** shell)
        positions = {f"b{i}": np.array([x, y, 0.0])
                     for i, y in enumerate(offsets)}
        nodes = [IslNode(name, [LASER], max_degree=2) for name in positions]
        # Only KD-tree fleets assign in shells: fillers with no degree
        # slot, each far out of everyone's range, pad to the threshold.
        fillers = SPATIAL_AUTO_THRESHOLD - len(nodes)
        for k in range(fillers):
            angle = 2.0 * math.pi * k / fillers
            positions[f"f{k:04d}"] = 1e7 * np.array(
                [math.cos(angle), math.sin(angle), 1.0])
            nodes.append(IslNode(f"f{k:04d}", [LASER], max_degree=0))
        got = assert_matches_oracle(nodes, positions, max_range_km)
        assert got.number_of_edges() == ASSIGNMENT_SHELLS

    @pytest.mark.parametrize("max_degree", [1, 2, 3])
    def test_distance_ties_break_by_node_order(self, max_degree):
        # A square lattice far from the Earth: axis-aligned neighbours
        # are exactly 500 km apart, so the sort's tie order decides.
        x = EARTH_RADIUS_KM + 20_000.0
        positions = {f"g{i}{j}": np.array([x, 500.0 * i, 500.0 * j])
                     for i in range(5) for j in range(5)}
        nodes = [IslNode(name, [SBAND], max_degree=max_degree)
                 for name in positions]
        assert_matches_oracle(nodes, positions, 1600.0)

    def test_co_located_nodes_raise_like_the_oracle(self):
        spot = np.array([EARTH_RADIUS_KM + 700.0, 0.0, 0.0])
        positions = {"a": spot, "b": spot.copy(),
                     "c": spot + np.array([0.0, 900.0, 0.0])}
        nodes = [IslNode(name, [SBAND]) for name in positions]
        with pytest.raises(ValueError):
            IslTopologyBuilder(nodes).snapshot(0.0, positions)
        with pytest.raises(ValueError):
            oracle_graph(nodes, positions)
        # A full endpoint never prices the pair, so nothing raises.
        nodes[0].max_degree = 0
        assert_matches_oracle(nodes, positions, 6000.0)


def test_small_fleets_do_not_import_scipy_spatial():
    script = (
        "import sys\n"
        "from repro.core.interop import SizeClass, build_fleet\n"
        "from repro.core.network import OpenSpaceNetwork\n"
        "from repro.ground.station import default_station_network\n"
        "from repro.orbits.walker import iridium_like, walker_delta\n"
        "fleet = build_fleet(iridium_like(), 'f', SizeClass.MEDIUM)\n"
        "OpenSpaceNetwork(fleet, default_station_network()).snapshot(0.0)\n"
        "print('scipy.spatial' in sys.modules)\n"
        "big = build_fleet(walker_delta(1024, 32), 'g', SizeClass.MEDIUM)\n"
        "OpenSpaceNetwork(big, max_isl_range_km=3000.0).snapshot(0.0)\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "True"]
