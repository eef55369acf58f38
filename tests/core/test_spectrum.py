"""Tests for shared-spectrum coordination."""

import networkx as nx
import numpy as np
import pytest

from repro.core.spectrum import (
    ChannelPlan,
    SpectrumCoordinator,
    greedy_coloring,
)
from repro.orbits.walker import (
    iridium_like,
    merge_constellations,
    random_constellation,
)


@pytest.fixture(scope="module")
def dual_shell_positions():
    """Two overlapping operator shells — conflicts guaranteed."""
    rng = np.random.default_rng(9)
    merged = merge_constellations(
        [iridium_like(), random_constellation(66, rng)], "dual"
    )
    return {
        f"sat{i}": p for i, p in enumerate(merged.positions_at(0.0))
    }


class TestCoordinator:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumCoordinator(min_separation_deg=0.0)

    def test_conflict_graph_covers_all_satellites(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        ids, pairs = coordinator.conflict_pairs(dual_shell_positions)
        assert ids == sorted(dual_shell_positions)
        assert pairs == sorted(pairs)
        assert all(0 <= i < j < len(ids) for i, j in pairs)

    def test_overlapping_shells_conflict(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        plan = coordinator.plan(dual_shell_positions)
        assert len(plan.conflict_edges) > 0

    def test_plan_is_conflict_free(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        plan = coordinator.plan(dual_shell_positions)
        assert plan.is_conflict_free()
        assert plan.slot_count >= 2

    def test_plan_deterministic(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        a = coordinator.plan(dual_shell_positions)
        b = coordinator.plan(dual_shell_positions)
        assert a.assignments == b.assignments

    def test_slot_cap_wraps_and_reports_honestly(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        plan = coordinator.plan(dual_shell_positions, available_slots=1)
        assert plan.slot_count == 1
        assert all(slot == 0 for slot in plan.assignments.values())
        if plan.conflict_edges:
            assert not plan.is_conflict_free()

    def test_slot_cap_validation(self, dual_shell_positions):
        coordinator = SpectrumCoordinator()
        with pytest.raises(ValueError):
            coordinator.plan(dual_shell_positions, available_slots=0)

    def test_uncoordinated_collides_more(self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        plan = coordinator.plan(dual_shell_positions)
        collisions = coordinator.uncoordinated_collisions(
            dual_shell_positions, plan.slot_count, np.random.default_rng(3)
        )
        # Coordinated: zero colliding pairs; random: statistically
        # ~edges/slots, which is > 0 for this geometry.
        assert collisions > 0

    def test_sparse_fleet_single_slot(self):
        # A lone satellite needs exactly one slot.
        positions = {"only": np.array([7158.137, 0.0, 0.0])}
        plan = SpectrumCoordinator().plan(positions)
        assert plan.slot_count == 1
        assert plan.assignments == {"only": 0}
        assert plan.is_conflict_free()


class TestChannelPlan:
    def test_slots_by_operator(self):
        plan = ChannelPlan(
            assignments={"a1": 0, "a2": 1, "b1": 0},
            slot_count=2,
            conflict_edges=(("a1", "a2"),),
        )
        usage = plan.slots_by_operator({"a1": "op-a", "a2": "op-a",
                                        "b1": "op-b"})
        assert usage == {"op-a": {0, 1}, "op-b": {0}}

    def test_conflict_detection(self):
        clashing = ChannelPlan(
            assignments={"x": 0, "y": 0}, slot_count=1,
            conflict_edges=(("x", "y"),),
        )
        assert not clashing.is_conflict_free()


class TestGreedyColoring:
    """The greedy is held to networkx's ``largest_first`` greedy."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_largest_first(self, seed):
        graph = nx.gnp_random_graph(30, 0.15 + 0.05 * seed, seed=seed)
        pairs = sorted(tuple(sorted(edge)) for edge in graph.edges)
        assert greedy_coloring(30, pairs) == [
            nx.coloring.greedy_color(graph, strategy="largest_first")[node]
            for node in range(30)
        ]

    def test_plan_matches_networkx_on_the_dual_shell(
            self, dual_shell_positions):
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=16)
        plan = coordinator.plan(dual_shell_positions)
        graph = nx.Graph()
        graph.add_nodes_from(sorted(dual_shell_positions))
        graph.add_edges_from(plan.conflict_edges)
        assert plan.assignments == dict(sorted(nx.coloring.greedy_color(
            graph, strategy="largest_first").items()))

    def test_empty_and_edgeless(self):
        assert greedy_coloring(0, []) == []
        assert greedy_coloring(3, []) == [0, 0, 0]
