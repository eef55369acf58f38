"""Tests for the ISL topology builder."""

import networkx as nx
import numpy as np
import pytest

from repro.isl.topology import IslNode, IslTopologyBuilder
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import standard_sband_isl_terminal

R_ORBIT = EARTH_RADIUS_KM + 780.0


def ring_positions(count, radius=R_ORBIT):
    """Evenly spaced satellites on an equatorial ring."""
    angles = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    return {
        f"s{i}": radius * np.array([np.cos(a), np.sin(a), 0.0])
        for i, a in enumerate(angles)
    }


def rf_nodes(count, max_degree=2):
    return [
        IslNode(f"s{i}", [standard_sband_isl_terminal()], max_degree=max_degree)
        for i in range(count)
    ]


class TestBuilderValidation:
    def test_duplicate_ids_rejected(self):
        nodes = [IslNode("a", []), IslNode("a", [])]
        with pytest.raises(ValueError, match="duplicate"):
            IslTopologyBuilder(nodes)

    def test_missing_positions_rejected(self):
        builder = IslTopologyBuilder(rf_nodes(3))
        with pytest.raises(ValueError, match="positions missing"):
            builder.snapshot(0.0, {"s0": np.zeros(3)})

    def test_node_lookup(self):
        builder = IslTopologyBuilder(rf_nodes(2))
        assert builder.node("s1").node_id == "s1"
        with pytest.raises(KeyError):
            builder.node("ghost")


class TestSnapshot:
    def test_ring_forms_cycle(self):
        positions = ring_positions(12)
        builder = IslTopologyBuilder(rf_nodes(12, max_degree=2))
        snap = builder.snapshot(0.0, positions)
        # Each satellite links its two ring neighbours: a 12-cycle.
        assert snap.link_count == 12
        assert all(snap.graph.degree(f"s{i}") == 2 for i in range(12))
        assert nx.is_connected(snap.graph)

    def test_degree_cap_respected(self):
        positions = ring_positions(12)
        builder = IslTopologyBuilder(rf_nodes(12, max_degree=1))
        snap = builder.snapshot(0.0, positions)
        assert all(snap.graph.degree(f"s{i}") <= 1 for i in range(12))

    def test_range_limit_prunes_links(self):
        positions = ring_positions(4)  # neighbours ~10100 km apart
        builder = IslTopologyBuilder(rf_nodes(4), max_range_km=5000.0)
        snap = builder.snapshot(0.0, positions)
        assert snap.link_count == 0

    def test_earth_blockage_prunes_links(self):
        # Two antipodal satellites: within range math but occluded.
        positions = {
            "s0": np.array([R_ORBIT, 0.0, 0.0]),
            "s1": np.array([-R_ORBIT, 0.0, 0.0]),
        }
        builder = IslTopologyBuilder(rf_nodes(2), max_range_km=20000.0)
        snap = builder.snapshot(0.0, positions)
        assert snap.link_count == 0

    def test_edges_carry_link_attributes(self):
        positions = ring_positions(12)
        builder = IslTopologyBuilder(rf_nodes(12))
        snap = builder.snapshot(0.0, positions)
        for _u, _v, data in snap.graph.edges(data=True):
            assert data["capacity_bps"] > 0
            assert data["delay_s"] > 0
            assert data["link"].usable

    def test_link_between_lookup(self):
        positions = ring_positions(12)
        snap = IslTopologyBuilder(rf_nodes(12)).snapshot(0.0, positions)
        assert snap.graph.has_edge("s0", "s1")
        assert not snap.graph.has_edge("s0", "s6")

    def test_owner_attribute_propagates(self):
        nodes = rf_nodes(3, max_degree=4)
        for i, node in enumerate(nodes):
            node.owner = f"op{i}"
        snap = IslTopologyBuilder(nodes).snapshot(0.0, ring_positions(3))
        assert snap.graph.nodes["s1"]["owner"] == "op1"

    def test_optical_disabled_falls_back_to_rf(self):
        terminals = [standard_sband_isl_terminal(), OpticalTerminal()]
        nodes = [
            IslNode("s0", terminals, max_degree=2, allow_optical=False),
            IslNode("s1", terminals, max_degree=2, allow_optical=True),
        ]
        positions = {
            "s0": np.array([R_ORBIT, 0.0, 0.0]),
            "s1": np.array([R_ORBIT * np.cos(0.3), R_ORBIT * np.sin(0.3), 0.0]),
        }
        snap = IslTopologyBuilder(nodes).snapshot(0.0, positions)
        assert snap.graph.has_edge("s0", "s1")
        assert snap.graph.edges["s0", "s1"]["link"].technology.is_rf

    def test_iridium_topology_connected(self, iridium):
        nodes = [
            IslNode(f"s{i}", [standard_sband_isl_terminal()], max_degree=4)
            for i in range(len(iridium))
        ]
        positions = {
            f"s{i}": p for i, p in enumerate(iridium.positions_at(0.0))
        }
        snap = IslTopologyBuilder(nodes).snapshot(0.0, positions)
        assert nx.is_connected(snap.graph)
        assert snap.link_count >= len(iridium)  # at least a ring's worth

    def test_snapshots_series(self, iridium):
        nodes = [
            IslNode(f"s{i}", [standard_sband_isl_terminal()], max_degree=3)
            for i in range(10)
        ]
        builder = IslTopologyBuilder(nodes)

        def positions_at(t):
            return {
                f"s{i}": p for i, p in enumerate(
                    iridium.subset(10).positions_at(t)
                )
            }

        snaps = builder.snapshots([0.0, 100.0, 200.0], positions_at)
        assert [s.time_s for s in snaps] == [0.0, 100.0, 200.0]

    def test_nearest_first_assignment(self):
        # With degree 1, the two closest of three collinear-ish satellites
        # pair up and the far one is left out.
        positions = {
            "s0": np.array([R_ORBIT, 0.0, 0.0]),
            "s1": R_ORBIT * np.array([np.cos(0.1), np.sin(0.1), 0.0]),
            "s2": R_ORBIT * np.array([np.cos(0.45), np.sin(0.45), 0.0]),
        }
        snap = IslTopologyBuilder(rf_nodes(3, max_degree=1)).snapshot(
            0.0, positions
        )
        assert snap.graph.has_edge("s0", "s1")
        assert snap.graph.degree("s2") == 0
