"""Shared-spectrum coordination across operators.

"In the current landscape, this communication is challenging without
access to shared spectrum, inter-operable network interfaces, and
physical-layer protocols."  OpenSpace satellites of different owners share
the same downlink bands; uncoordinated, nearby co-channel transmitters
wreck each other's users' SINR.  This module implements a simple,
auditable coordination scheme:

1. build the interference graph from public orbital data (any pair of
   satellites a ground terminal cannot angularly discriminate conflicts —
   :func:`repro.phy.interference.interference_pairs`);
2. color it greedily so conflicting satellites land on different channel
   slots (:func:`greedy_coloring`, largest degree first);
3. report per-operator slot usage so the federation can verify no member
   hogs the band.

Because the topology is public and deterministic, every operator can
recompute the same assignment — coordination without a central authority,
matching the paper's decentralized ethos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.interference import interference_pairs


def greedy_coloring(node_count: int,
                    pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """Each node's color under a greedy in largest-degree-first order.

    Nodes are visited by descending degree, ties in index order (the
    order networkx's ``greedy_color(strategy="largest_first")`` visits
    a graph whose nodes were added in index order), and each takes the
    least color none of its already colored neighbours holds.

    Args:
        node_count: Nodes ``0 .. node_count - 1``.
        pairs: Distinct conflicting ``(i, j)`` index pairs, ``i != j``.
    """
    neighbours: List[List[int]] = [[] for _ in range(node_count)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    colors = [-1] * node_count
    for node in sorted(range(node_count), key=lambda n: len(neighbours[n]),
                       reverse=True):
        taken = {colors[other] for other in neighbours[node]}
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    return colors


@dataclass(frozen=True)
class ChannelPlan:
    """One coordinated channel assignment.

    Attributes:
        assignments: Satellite id -> channel slot index.
        slot_count: Distinct slots used (the reuse factor).
        conflict_edges: The interference graph's edges (satellite ids).
        available_slots: Slots the band was divided into; None when the
            coloring was unconstrained.
    """

    assignments: Dict[str, int]
    slot_count: int
    conflict_edges: Tuple[Tuple[str, str], ...]
    available_slots: Optional[int] = None

    def is_conflict_free(self) -> bool:
        """Whether no conflicting pair shares a slot."""
        return all(
            self.assignments[a] != self.assignments[b]
            for a, b in self.conflict_edges
        )

    def slots_by_operator(self, owner_of: Dict[str, str]) -> Dict[str, set]:
        """Operator -> set of slots its satellites occupy."""
        usage: Dict[str, set] = {}
        for sat_id, slot in self.assignments.items():
            usage.setdefault(owner_of.get(sat_id, "unknown"), set()).add(slot)
        return usage


class SpectrumCoordinator:
    """Builds interference graphs and coordinated channel plans.

    Args:
        min_separation_deg: Angular discrimination limit of user antennas;
            satellite pairs closer than this (as seen from some ground
            point) must use different channels.
        min_elevation_deg: Ground visibility mask.
        grid_resolution: Ground sample grid density for conflict checks.
    """

    def __init__(self, min_separation_deg: float = 10.0,
                 min_elevation_deg: float = 10.0,
                 grid_resolution: int = 12):
        if min_separation_deg <= 0.0:
            raise ValueError(
                f"separation must be positive, got {min_separation_deg}"
            )
        self.min_separation_deg = min_separation_deg
        self.min_elevation_deg = min_elevation_deg
        self.grid_resolution = grid_resolution

    def _ground_points(self) -> List[np.ndarray]:
        from repro.orbits.constants import EARTH_RADIUS_KM
        from repro.orbits.visibility import surface_grid

        points, _weights = surface_grid(self.grid_resolution)
        return [EARTH_RADIUS_KM * p for p in points]

    def conflict_pairs(self, positions: Dict[str, np.ndarray],
                       ) -> Tuple[List[str], List[Tuple[int, int]]]:
        """The interference graph over the current satellite positions:
        the satellite ids, sorted, and the sorted ``(i, j)`` pairs
        (``i < j``) of the ids that conflict."""
        ids = sorted(positions)
        return ids, interference_pairs(
            self._ground_points(), [positions[sat_id] for sat_id in ids],
            min_separation_deg=self.min_separation_deg,
            min_elevation_deg=self.min_elevation_deg,
        )

    def plan(self, positions: Dict[str, np.ndarray],
             available_slots: Optional[int] = None) -> ChannelPlan:
        """Color the conflict graph into a channel plan.

        Args:
            positions: Satellite id -> position (any common frame).
            available_slots: Cap on slots (band divided into this many
                channels).  When the chromatic need exceeds the cap, the
                coloring wraps modulo the cap and the plan reports the
                residual conflicts honestly via :meth:`ChannelPlan.is_conflict_free`.

        Returns:
            A :class:`ChannelPlan` (deterministic for a given input).
        """
        ids, pairs = self.conflict_pairs(positions)
        coloring = dict(zip(ids, greedy_coloring(len(ids), pairs)))
        slots_needed = (max(coloring.values()) + 1) if coloring else 0
        if available_slots is not None:
            if available_slots < 1:
                raise ValueError(
                    f"need at least one slot, got {available_slots}"
                )
            coloring = {
                sat: slot % available_slots for sat, slot in coloring.items()
            }
            slots_needed = min(slots_needed, available_slots)
        return ChannelPlan(
            assignments=coloring,
            slot_count=slots_needed,
            conflict_edges=tuple((ids[i], ids[j]) for i, j in pairs),
            available_slots=available_slots,
        )

    def uncoordinated_collisions(self, positions: Dict[str, np.ndarray],
                                 available_slots: int,
                                 rng: np.random.Generator) -> int:
        """Conflicting pairs landing on the same slot under random choice.

        The baseline OpenSpace coordination replaces: every operator picks
        channels independently at random.

        Returns:
            Number of conflict edges whose endpoints collided.
        """
        if available_slots < 1:
            raise ValueError(f"need at least one slot, got {available_slots}")
        ids, pairs = self.conflict_pairs(positions)
        choice = [int(rng.integers(0, available_slots)) for _ in ids]
        return sum(1 for i, j in pairs if choice[i] == choice[j])
