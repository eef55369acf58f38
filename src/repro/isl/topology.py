"""Time-varying ISL topology construction.

Builds the snapshot graphs that routing consumes.  At each instant the
builder evaluates geometric feasibility (line of sight above the
atmosphere, range limit), picks the best mutually supported technology per
pair, and greedily assigns links nearest-first while respecting each
spacecraft's ISL-degree ceiling — the power constraint the paper calls out
for heterogeneous fleets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.isl.link import BestLinkArrays, IslLink, Terminal

# The scalar oracle of BestLinkArrays stays importable from here, where
# benchmarks/e2e/tracer.py looks it up.
from repro.isl.link import best_link_between  # noqa: F401
from repro.orbits.visibility import line_of_sight_mask

#: Fleets at least this large draw candidate pairs from a KD-tree
#: (``scipy.spatial.cKDTree``) instead of the upper triangle.  Below this
#: the vectorized triangle scan is cheaper than building a tree, and the
#: ~0.2 s import of ``scipy.spatial`` is never paid.
SPATIAL_AUTO_THRESHOLD = 1024

#: Radius shells of the greedy assignment: the first reaches
#: ``max_range_km / 2**(ASSIGNMENT_SHELLS - 1)``, each next one doubles,
#: and the last ends at ``max_range_km``.
ASSIGNMENT_SHELLS = 4

#: Relative padding of the KD-tree query radius, so rounding in the
#: tree's own distance arithmetic never drops a pair the exact range
#: filter keeps.  The tree only proposes; the exact filters decide.
_KDTREE_RADIUS_PAD = 1e-9


def _triangle_pairs(pos_matrix: np.ndarray, open_idx: np.ndarray,
                    radius_km: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of open nodes, ``(row, col)`` with ``row < col``."""
    rows, cols = np.triu_indices(open_idx.size, k=1)
    return open_idx[rows], open_idx[cols]


def _kdtree_pairs(pos_matrix: np.ndarray, open_idx: np.ndarray,
                  radius_km: float) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs of open nodes within (a padded) ``radius_km``, ``row < col``."""
    # Imported lazily: small fleets never load scipy.spatial.
    from scipy.spatial import cKDTree

    tree = cKDTree(pos_matrix[open_idx])
    pairs = tree.query_pairs(radius_km * (1.0 + _KDTREE_RADIUS_PAD),
                             output_type="ndarray")
    # open_idx is ascending, so local i < j maps to global row < col.
    return open_idx[pairs[:, 0]], open_idx[pairs[:, 1]]


def _greedy_accept(rows: np.ndarray, cols: np.ndarray, usable: np.ndarray,
                   degree: List[int], max_degree: List[int],
                   open_count: int) -> np.ndarray:
    """Positions of the sorted pairs the greedy accepts (``degree`` is
    updated in place).

    A usable pair is accepted while both endpoints have spare degree;
    once fewer than two nodes are open nothing more can be accepted.
    """
    accepted: List[int] = []
    candidates = np.flatnonzero(usable)
    for pos, row, col in zip(candidates.tolist(), rows[candidates].tolist(),
                             cols[candidates].tolist()):
        if open_count < 2:
            break
        if degree[row] >= max_degree[row] or degree[col] >= max_degree[col]:
            continue
        accepted.append(pos)
        degree[row] += 1
        degree[col] += 1
        open_count -= ((degree[row] >= max_degree[row])
                       + (degree[col] >= max_degree[col]))
    return np.asarray(accepted, dtype=np.intp)


class _ShellBudgets:
    """Best links for one shell's pairs: one :class:`BestLinkArrays` per
    ``(profile a, profile b, optical allowed)`` group.

    Args:
        profiles: Terminal tuples, indexed by profile number.
        profile_a: First endpoint's profile per pair.
        profile_b: Second endpoint's profile per pair.
        optical: Per pair, whether both endpoints allow optical links.
        distances: Range per pair.
    """

    def __init__(self, profiles: Sequence[Tuple[Terminal, ...]],
                 profile_a: np.ndarray, profile_b: np.ndarray,
                 optical: np.ndarray, distances: np.ndarray):
        code = (profile_a * len(profiles) + profile_b) * 2 + optical
        keys, self._group_of = np.unique(code, return_inverse=True)
        #: Each pair's position inside its group's batch.
        self._slot = np.empty(code.size, dtype=np.intp)
        self.usable = np.zeros(code.size, dtype=bool)
        self._batches: List[BestLinkArrays] = []
        for group, key in enumerate(keys.tolist()):
            members = np.flatnonzero(self._group_of == group)
            pair_key, allow_optical = divmod(key, 2)
            index_a, index_b = divmod(pair_key, len(profiles))
            batch = BestLinkArrays(profiles[index_a], profiles[index_b],
                                   distances[members],
                                   prefer_optical=bool(allow_optical))
            self._slot[members] = np.arange(members.size)
            self.usable[members] = batch.usable
            self._batches.append(batch)

    def links_at(self, positions: np.ndarray, nodes_a: Sequence[str],
                 nodes_b: Sequence[str],
                 distances_km: Sequence[float]) -> List[IslLink]:
        """The links of the usable pairs at ``positions``, in that order."""
        links: List[Optional[IslLink]] = [None] * positions.size
        group_of = self._group_of[positions]
        for group, batch in enumerate(self._batches):
            where = np.flatnonzero(group_of == group).tolist()
            if not where:
                continue
            made = batch.links_at(
                self._slot[positions[where]], [nodes_a[i] for i in where],
                [nodes_b[i] for i in where], [distances_km[i] for i in where],
            )
            for at, link in zip(where, made):
                links[at] = link
        return links


@dataclass
class IslNode:
    """What the topology builder needs to know about one spacecraft.

    Attributes:
        node_id: Stable identifier (also the graph node key).
        terminals: ISL-capable terminals the spacecraft carries.
        max_degree: Maximum simultaneous ISLs (power/thermal ceiling).
        allow_optical: False when the power budget currently cannot afford
            laser pointing; RF candidates are still considered.
        owner: Operator identifier (used by routing/economics layers).
    """

    node_id: str
    terminals: Sequence[Terminal]
    max_degree: int = 2
    allow_optical: bool = True
    owner: str = "unknown"


@dataclass
class TopologySnapshot:
    """The ISL graph at one instant.

    Attributes:
        time_s: Snapshot timestamp.
        graph: Undirected graph; nodes are spacecraft ids, each edge holds
            its :class:`IslLink` under the ``"link"`` attribute plus
            ``"delay_s"`` and ``"capacity_bps"`` convenience attributes.
        positions: Node id -> ECI position (km) at the snapshot time.
    """

    time_s: float
    graph: nx.Graph
    positions: Dict[str, np.ndarray] = field(default_factory=dict)

    def link_between(self, node_a: str, node_b: str) -> Optional[IslLink]:
        """The ISL between two nodes, or None when absent."""
        data = self.graph.get_edge_data(node_a, node_b)
        return data["link"] if data else None

    @property
    def link_count(self) -> int:
        return self.graph.number_of_edges()

    def degree_of(self, node_id: str) -> int:
        return self.graph.degree(node_id) if node_id in self.graph else 0

    def edge_set(self) -> frozenset:
        """The snapshot's edges as canonical ``(min_id, max_id)`` pairs."""
        return frozenset(
            (a, b) if a <= b else (b, a) for a, b in self.graph.edges
        )


@dataclass(frozen=True)
class TopologyDelta:
    """Edge-set difference between two consecutive topology snapshots.

    Pairs are canonical ``(min_id, max_id)`` tuples, each list sorted, so
    deltas are deterministic regardless of graph iteration order.

    Attributes:
        appeared: Edges present now but not previously.
        disappeared: Edges present previously but gone now.
        persisted: Edges present in both snapshots (their link objects
            are still re-evaluated — the distance moved).
        full_rebuild: True when there was no comparable previous snapshot
            (first epoch, or the participating node set changed), in
            which case ``appeared`` holds every edge.
    """

    appeared: Tuple[Tuple[str, str], ...]
    disappeared: Tuple[Tuple[str, str], ...]
    persisted: Tuple[Tuple[str, str], ...]
    full_rebuild: bool = False

    @property
    def changed_count(self) -> int:
        return len(self.appeared) + len(self.disappeared)

    @property
    def churn_fraction(self) -> float:
        """Changed edges over total edges involved (0 for identical sets)."""
        total = self.changed_count + len(self.persisted)
        return self.changed_count / total if total else 0.0


class IslTopologyBuilder:
    """Builds :class:`TopologySnapshot` objects from nodes + positions.

    Args:
        nodes: The participating spacecraft.  Their terminal lists are
            read once, here; degree caps and ``allow_optical`` are read
            at every snapshot.
        max_range_km: Hard range limit for any ISL (beyond it, link budgets
            will not close anyway; the limit prunes the pair search).
        grazing_altitude_km: Minimum ray altitude for line of sight.
    """

    def __init__(self, nodes: Sequence[IslNode], max_range_km: float = 6000.0,
                 grazing_altitude_km: float = 80.0):
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in topology builder")
        self.nodes = list(nodes)
        self.max_range_km = max_range_km
        self.grazing_altitude_km = grazing_altitude_km
        self._by_id = {node.node_id: node for node in self.nodes}
        # Nodes carrying equal terminal lists share a profile, and each
        # profile pair gets one batched link-budget pass per shell.
        profiles: Dict[Tuple[Terminal, ...], int] = {}
        self._profile_of = {
            node.node_id: profiles.setdefault(tuple(node.terminals),
                                              len(profiles))
            for node in self.nodes
        }
        self._profiles = list(profiles)

    def node(self, node_id: str) -> IslNode:
        """Look up a node by id (raises KeyError for unknown ids)."""
        return self._by_id[node_id]

    def snapshot(self, time_s: float,
                 positions: Dict[str, np.ndarray],
                 exclude: Optional[Sequence[str]] = None) -> TopologySnapshot:
        """Build the ISL graph for one instant.

        Candidate pairs are accepted nearest-first (ties by node order)
        while both endpoints have spare ISL degree — shorter links close
        at higher MODCODs, so nearest-first maximizes fleet capacity under
        the degree caps.  See :meth:`_assign_links` for how the greedy
        runs shell by shell.

        Args:
            time_s: Snapshot timestamp (stored on the result).
            positions: ECI position per node id; every participating node
                must appear.
            exclude: Node ids to leave out entirely (failed satellites):
                they take no graph node, no candidate pair, and no degree
                slot, so the result is identical to building from the
                surviving fleet alone.
        """
        excluded = frozenset(exclude or ())
        nodes = [n for n in self.nodes if n.node_id not in excluded]
        missing = [n.node_id for n in nodes if n.node_id not in positions]
        if missing:
            raise ValueError(f"positions missing for nodes: {missing}")
        graph = nx.Graph()
        for node in nodes:
            graph.add_node(node.node_id, owner=node.owner)
        if len(nodes) >= 2:
            pos_matrix = np.stack(
                [np.asarray(positions[n.node_id], dtype=float) for n in nodes]
            )
            for link in self._assign_links(nodes, pos_matrix):
                graph.add_edge(
                    link.node_a,
                    link.node_b,
                    link=link,
                    delay_s=link.propagation_delay_s,
                    capacity_bps=link.capacity_bps,
                )
        return TopologySnapshot(
            time_s=time_s,
            graph=graph,
            positions={k: np.asarray(v, dtype=float) for k, v in positions.items()},
        )

    def _assign_links(self, nodes: Sequence[IslNode],
                      pos_matrix: np.ndarray) -> List[IslLink]:
        """The greedy nearest-first assignment, in acceptance order.

        The greedy walks every feasible pair sorted by ``(distance, row,
        col)`` and accepts a pair when both endpoints have spare degree
        and a link closes.  Here it runs in radius shells of doubling
        size, and each shell searches pairs only among nodes that still
        have spare degree.  That is exact: each shell is the next
        distance slice of the global order, so concatenating the shells
        replays it; and degrees only grow, so a pair touching a node
        that is full at a shell's start would be skipped anyway.  The
        payoff is that the wide shells, where nearly every pair lies,
        only see the few nodes still open.
        """
        max_degree = [node.max_degree for node in nodes]
        degree = [0] * len(nodes)
        limits = np.asarray(max_degree)
        profile = np.array([self._profile_of[n.node_id] for n in nodes],
                           dtype=np.int64)
        optical = np.array([n.allow_optical for n in nodes], dtype=bool)
        pair_source = (_kdtree_pairs if len(nodes) >= SPATIAL_AUTO_THRESHOLD
                       else _triangle_pairs)
        links: List[IslLink] = []
        inner_km = -math.inf
        for shell in reversed(range(ASSIGNMENT_SHELLS)):
            radius_km = self.max_range_km / 2 ** shell
            open_idx = np.flatnonzero(np.asarray(degree) < limits)
            if open_idx.size < 2:
                break
            rows, cols = pair_source(pos_matrix, open_idx, radius_km)
            rows, cols, distances = self._sorted_feasible(
                pos_matrix, rows, cols, inner_km, radius_km)
            inner_km = radius_km
            budgets = _ShellBudgets(
                self._profiles, profile[rows], profile[cols],
                optical[rows] & optical[cols], distances,
            )
            accepted = _greedy_accept(rows, cols, budgets.usable, degree,
                                      max_degree, open_idx.size)
            links.extend(budgets.links_at(
                accepted,
                [nodes[row].node_id for row in rows[accepted].tolist()],
                [nodes[col].node_id for col in cols[accepted].tolist()],
                distances[accepted].tolist(),
            ))
        return links

    def _sorted_feasible(self, pos_matrix: np.ndarray, rows: np.ndarray,
                         cols: np.ndarray, inner_km: float, radius_km: float,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The proposed pairs in ``(inner_km, radius_km]`` with line of
        sight, sorted by ``(distance, row, col)``, with their ranges."""
        delta = pos_matrix[rows] - pos_matrix[cols]
        distances = np.sqrt((delta * delta).sum(axis=-1))
        keep = (distances > inner_km) & (distances <= radius_km)
        rows, cols, distances = rows[keep], cols[keep], distances[keep]
        keep = line_of_sight_mask(pos_matrix[rows], pos_matrix[cols],
                                  self.grazing_altitude_km)
        rows, cols, distances = rows[keep], cols[keep], distances[keep]
        order = np.lexsort((cols, rows))
        order = order[np.argsort(distances[order], kind="stable")]
        return rows[order], cols[order], distances[order]

    def snapshot_delta(self, time_s: float,
                       positions: Dict[str, np.ndarray],
                       exclude: Optional[Sequence[str]] = None,
                       previous: Optional[TopologySnapshot] = None,
                       ) -> Tuple[TopologySnapshot, TopologyDelta]:
        """Build a snapshot plus its edge delta against a previous one.

        The new snapshot is always an honest rebuild (greedy assignment
        over freshly evaluated geometry — persisting a link requires
        re-evaluating its budget at the new distance anyway), so the
        result is byte-identical to :meth:`snapshot`.  The delta tells
        churn accounting (see
        :attr:`repro.core.network.OpenSpaceNetwork.last_snapshot_delta`)
        exactly which edges changed.

        Args:
            time_s: Snapshot timestamp.
            positions: ECI position per node id.
            exclude: Node ids to leave out (failed satellites).
            previous: The prior epoch's snapshot; ``None`` (or a snapshot
                over a different node set) yields a full-rebuild delta.
        """
        snap = self.snapshot(time_s, positions, exclude=exclude)
        new_edges = snap.edge_set()
        if previous is None or set(previous.graph.nodes) != set(snap.graph.nodes):
            delta = TopologyDelta(
                appeared=tuple(sorted(new_edges)),
                disappeared=(),
                persisted=(),
                full_rebuild=True,
            )
            return snap, delta
        prev_edges = previous.edge_set()
        delta = TopologyDelta(
            appeared=tuple(sorted(new_edges - prev_edges)),
            disappeared=tuple(sorted(prev_edges - new_edges)),
            persisted=tuple(sorted(new_edges & prev_edges)),
        )
        return snap, delta

    def snapshots(self, times_s: Sequence[float],
                  positions_at) -> List[TopologySnapshot]:
        """Snapshots over a time series.

        Args:
            times_s: Timestamps to evaluate.
            positions_at: Callable ``time_s -> {node_id: position}``.
        """
        return [self.snapshot(t, positions_at(t)) for t in times_s]
