"""Time-varying ISL topology construction.

Builds the ISL snapshots that routing consumes.  At each instant the
builder evaluates geometric feasibility (line of sight above the
atmosphere, range limit), picks the best mutually supported technology per
pair, and greedily assigns links nearest-first while respecting each
spacecraft's ISL-degree ceiling — the power constraint the paper calls out
for heterogeneous fleets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.isl.link import (
    BestLinkArrays,
    IslLink,
    IslLinkArrays,
    Terminal,
    gather_link_arrays,
)

# The scalar oracle of BestLinkArrays stays importable from here, where
# benchmarks/e2e/tracer.py looks it up.
from repro.isl.link import best_link_between  # noqa: F401
from repro.orbits.visibility import line_of_sight_mask, squared_norms

if TYPE_CHECKING:
    import networkx as nx

#: Fleets at least this large draw candidate pairs from a KD-tree
#: (``scipy.spatial.cKDTree``) and assign in radius shells.  Below this
#: the vectorized triangle scan is cheaper than building a tree, the
#: ~0.2 s import of ``scipy.spatial`` is never paid, and the greedy runs
#: in one pass.
SPATIAL_AUTO_THRESHOLD = 1024

#: Radius shells of the KD-tree greedy assignment: the first reaches
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

    def link_arrays(self, positions: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray,
                    distances_km: np.ndarray) -> IslLinkArrays:
        """The links of the usable pairs at ``positions``, in that order."""
        columns = (self._slot[positions], rows, cols, distances_km)
        return gather_link_arrays(self._group_of[positions],
                       [(batch, columns) for batch in self._batches])


@dataclass
class IslNode:
    """What the topology builder needs to know about one spacecraft.

    Attributes:
        node_id: Stable identifier (also the snapshot node id).
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


#: Positions a snapshot can be built from: ECI position per node id, or
#: an ``(N, 3)`` matrix in the builder's node order.
Positions = Union[Mapping[str, np.ndarray], np.ndarray]


class TopologySnapshot:
    """The ISL topology at one instant, held as arrays.

    :attr:`graph` is a networkx view derived from the arrays on first
    read and cached, for the end-to-end benchmark and the tests; nothing
    in the package reads it.  Mutating it changes neither the arrays nor
    anything compiled from them.

    Args:
        time_s: Snapshot timestamp.
        nodes: The participating spacecraft, in builder order.
        links: The accepted links in greedy acceptance order; endpoints
            index ``nodes``.

    Attributes:
        time_s: Snapshot timestamp.
        node_ids: Ids of ``nodes``; link endpoints index this list.
        links: :class:`~repro.isl.link.IslLinkArrays` of the snapshot.
    """

    def __init__(self, time_s: float, nodes: Sequence[IslNode],
                 links: IslLinkArrays):
        self.time_s = time_s
        self.node_ids = [node.node_id for node in nodes]
        self._owners = [node.owner for node in nodes]
        self.links = links

    @cached_property
    def link_objects(self) -> List[IslLink]:
        """One :class:`IslLink` per link, made once and shared by every
        graph view of this snapshot."""
        return self.links.links(self.node_ids)

    @cached_property
    def graph(self) -> nx.Graph:
        """Undirected graph view: nodes are spacecraft ids (builder
        order) with an ``owner`` attribute; each edge, added in
        acceptance order, holds its :class:`IslLink` under ``"link"``
        plus ``"delay_s"`` and ``"capacity_bps"``.  networkx is imported
        here, on first read, so no package import path loads it."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(
            (node, {"owner": owner})
            for node, owner in zip(self.node_ids, self._owners)
        )
        graph.add_edges_from(
            (link.node_a, link.node_b, isl_edge_attrs(link))
            for link in self.link_objects
        )
        return graph

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {node: i for i, node in enumerate(self.node_ids)}

    @property
    def link_count(self) -> int:
        return len(self.links)

    def pair_keys(self) -> np.ndarray:
        """Each link as one int64 ``low * N + high`` over node indices."""
        low = np.minimum(self.links.node_a, self.links.node_b)
        high = np.maximum(self.links.node_a, self.links.node_b)
        return low.astype(np.int64) * len(self.node_ids) + high


def isl_edge_attrs(link: IslLink) -> dict:
    """The edge attributes every graph view gives one ISL."""
    return {"link": link, "delay_s": link.propagation_delay_s,
            "capacity_bps": link.capacity_bps}


def _named_pairs(node_ids: Sequence[str], first: np.ndarray,
                 second: np.ndarray) -> List[Tuple[str, str]]:
    """Index pairs as canonical ``(min_id, max_id)`` id tuples."""
    pairs = []
    for a, b in zip(first.tolist(), second.tolist()):
        a, b = node_ids[a], node_ids[b]
        pairs.append((a, b) if a <= b else (b, a))
    return pairs


class TopologyDelta:
    """Edge-set difference between two consecutive topology snapshots.

    Held as node-index pairs over the node list both snapshots share;
    the canonical ``(min_id, max_id)`` tuples are built, and sorted, only
    when :attr:`appeared` is read, so deltas are deterministic regardless
    of build order.

    Args:
        node_ids: The node list the pairs index.
        appeared: ``(k, 2)`` pairs present now but not previously.
        disappeared: Pairs present previously but gone now.
        persisted: Pairs present in both snapshots (their link objects
            are still re-evaluated — the distance moved).
        full_rebuild: True when there was no comparable previous snapshot
            (first epoch, or the participating node list changed), in
            which case ``appeared`` holds every edge.
    """

    def __init__(self, node_ids: Sequence[str], appeared: np.ndarray,
                 disappeared: np.ndarray, persisted: np.ndarray,
                 full_rebuild: bool = False):
        self.node_ids = node_ids
        self.appeared_pairs = np.asarray(appeared, dtype=np.int64).reshape(-1, 2)
        self.disappeared_pairs = np.asarray(
            disappeared, dtype=np.int64).reshape(-1, 2)
        self.persisted_pairs = np.asarray(
            persisted, dtype=np.int64).reshape(-1, 2)
        self.full_rebuild = full_rebuild

    def _named(self, pairs: np.ndarray) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(_named_pairs(self.node_ids, pairs[:, 0],
                                         pairs[:, 1])))

    @cached_property
    def appeared(self) -> Tuple[Tuple[str, str], ...]:
        return self._named(self.appeared_pairs)

    @property
    def changed_count(self) -> int:
        return len(self.appeared_pairs) + len(self.disappeared_pairs)

    @property
    def churn_fraction(self) -> float:
        """Changed edges over total edges involved (0 for identical sets)."""
        total = self.changed_count + len(self.persisted_pairs)
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
        self._profile = np.array(
            [profiles.setdefault(tuple(node.terminals), len(profiles))
             for node in self.nodes], dtype=np.int64,
        )
        self._profiles = list(profiles)

    def node(self, node_id: str) -> IslNode:
        """Look up a node by id (raises KeyError for unknown ids)."""
        return self._by_id[node_id]

    def snapshot(self, time_s: float, positions: Positions,
                 exclude: Optional[Sequence[str]] = None) -> TopologySnapshot:
        """Build the ISL topology for one instant.

        Candidate pairs are accepted nearest-first (ties by node order)
        while both endpoints have spare ISL degree — shorter links close
        at higher MODCODs, so nearest-first maximizes fleet capacity under
        the degree caps.  See :meth:`_assign_links` for when the greedy
        runs in one pass and when shell by shell.

        Args:
            time_s: Snapshot timestamp (stored on the result).
            positions: ECI position per node id, where every
                participating node must appear, or an ``(N, 3)`` matrix
                with one row per builder node, in :attr:`nodes` order.
            exclude: Node ids to leave out entirely (failed satellites):
                they take no node, no candidate pair, and no degree
                slot, so the result is identical to building from the
                surviving fleet alone.
        """
        excluded = frozenset(exclude or ())
        included = np.array([i for i, node in enumerate(self.nodes)
                             if node.node_id not in excluded], dtype=np.intp)
        nodes = [self.nodes[i] for i in included.tolist()]
        if isinstance(positions, np.ndarray):
            if positions.shape != (len(self.nodes), 3):
                raise ValueError(
                    f"position matrix must be ({len(self.nodes)}, 3), "
                    f"got {positions.shape}"
                )
            pos_matrix = positions[included]
        else:
            missing = [n.node_id for n in nodes if n.node_id not in positions]
            if missing:
                raise ValueError(f"positions missing for nodes: {missing}")
            pos_matrix = np.array(
                [np.asarray(positions[n.node_id], dtype=float) for n in nodes]
            ).reshape(len(nodes), 3)
        links = (self._assign_links(nodes, included, pos_matrix)
                 if len(nodes) >= 2 else IslLinkArrays.empty())
        return TopologySnapshot(time_s, nodes, links)

    def _assign_links(self, nodes: Sequence[IslNode], included: np.ndarray,
                      pos_matrix: np.ndarray) -> IslLinkArrays:
        """The greedy nearest-first assignment, in acceptance order.

        The greedy walks every feasible pair sorted by ``(distance, row,
        col)`` and accepts a pair when both endpoints have spare degree
        and a link closes.  With the KD-tree pair source it runs in
        radius shells of doubling size, and each shell searches pairs
        only among nodes that still have spare degree.  That is exact:
        each shell is the next distance slice of the global order, so
        concatenating the shells replays it; and degrees only grow, so a
        pair touching a node that is full at a shell's start would be
        skipped anyway.  The payoff is that the wide shells, where nearly
        every pair lies, only see the few nodes still open.  The triangle
        source proposes every pair whatever the radius, so each shell
        would re-filter all of them and pay its own sort and budgets;
        below :data:`SPATIAL_AUTO_THRESHOLD` the greedy therefore runs
        as one pass, the global walk itself.

        Returns:
            The accepted links, endpoints indexing ``nodes``.
        """
        max_degree = [node.max_degree for node in nodes]
        degree = [0] * len(nodes)
        limits = np.asarray(max_degree)
        profile = self._profile[included]
        optical = np.array([n.allow_optical for n in nodes], dtype=bool)
        if len(nodes) >= SPATIAL_AUTO_THRESHOLD:
            pair_source, shell_count = _kdtree_pairs, ASSIGNMENT_SHELLS
        else:
            pair_source, shell_count = _triangle_pairs, 1
        shells: List[IslLinkArrays] = []
        inner_km = -math.inf
        for shell in reversed(range(shell_count)):
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
            shells.append(budgets.link_arrays(
                accepted, rows[accepted], cols[accepted], distances[accepted],
            ))
        return IslLinkArrays.concatenate(shells)

    def _sorted_feasible(self, pos_matrix: np.ndarray, rows: np.ndarray,
                         cols: np.ndarray, inner_km: float, radius_km: float,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The proposed pairs in ``(inner_km, radius_km]`` with line of
        sight, sorted by ``(distance, row, col)``, with their ranges."""
        distances = np.sqrt(squared_norms(
            np.take(pos_matrix, rows, axis=0)
            - np.take(pos_matrix, cols, axis=0)))
        keep = (distances > inner_km) & (distances <= radius_km)
        rows, cols, distances = rows[keep], cols[keep], distances[keep]
        keep = line_of_sight_mask(pos_matrix[rows], pos_matrix[cols],
                                  self.grazing_altitude_km)
        rows, cols, distances = rows[keep], cols[keep], distances[keep]
        order = np.lexsort((cols, rows))
        order = order[np.argsort(distances[order], kind="stable")]
        return rows[order], cols[order], distances[order]

    def snapshot_delta(self, time_s: float, positions: Positions,
                       exclude: Optional[Sequence[str]] = None,
                       previous: Optional[TopologySnapshot] = None,
                       ) -> Tuple[TopologySnapshot, TopologyDelta]:
        """Build a snapshot plus its edge delta against a previous one.

        The new snapshot is always an honest rebuild (greedy assignment
        over freshly evaluated geometry — persisting a link requires
        re-evaluating its budget at the new distance anyway), so the
        result is identical to :meth:`snapshot`.  The delta tells churn
        accounting (see
        :attr:`repro.core.network.OpenSpaceNetwork.last_snapshot_delta`)
        exactly which edges changed; it diffs int pair keys, and names
        the edges only when read.

        Args:
            time_s: Snapshot timestamp.
            positions: As for :meth:`snapshot`.
            exclude: Node ids to leave out (failed satellites).
            previous: The prior epoch's snapshot; ``None`` (or a snapshot
                over a different node list) yields a full-rebuild delta.
        """
        snap = self.snapshot(time_s, positions, exclude=exclude)
        keys = snap.pair_keys()
        if previous is None or previous.node_ids != snap.node_ids:
            none = np.empty(0, dtype=np.int64)
            delta = _key_delta(snap.node_ids, np.sort(keys), none, none,
                               full_rebuild=True)
            return snap, delta
        prev_keys = previous.pair_keys()
        delta = _key_delta(
            snap.node_ids,
            np.setdiff1d(keys, prev_keys, assume_unique=True),
            np.setdiff1d(prev_keys, keys, assume_unique=True),
            np.intersect1d(keys, prev_keys, assume_unique=True),
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


def _key_delta(node_ids: Sequence[str], appeared: np.ndarray,
               disappeared: np.ndarray, persisted: np.ndarray,
               full_rebuild: bool = False) -> TopologyDelta:
    """A :class:`TopologyDelta` from ``low * N + high`` pair keys."""
    count = max(len(node_ids), 1)

    def pairs(keys: np.ndarray) -> np.ndarray:
        return np.stack(np.divmod(keys, count), axis=-1)

    return TopologyDelta(node_ids, pairs(appeared), pairs(disappeared),
                         pairs(persisted), full_rebuild=full_rebuild)
