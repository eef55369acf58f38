"""Compiled-sparse (CSR) shortest paths: the one routing implementation.

Every routing layer in the stack reduces to the same primitive: shortest
paths over a snapshot whose edges carry additive costs.  This module
compiles a snapshot's edge arrays into an index-mapped CSR adjacency
(:meth:`CsrAdjacency.from_edges`: node→int index table plus
``indptr``/``indices``/``data`` arrays; an edge priced ``inf`` is left
out, which is how routers express admission filters) and answers
**batched multi-source Dijkstra** through
:func:`scipy.sparse.csgraph.dijkstra` — one C call for any number of
sources, with paths reconstructed lazily from the predecessor matrix.
Nearest-target queries (every demand cell to its closest gateway) take
one reverse search from the targets instead, and search forward only
from the sources whose route it cannot certify
(:meth:`CsrAdjacency.nearest_target_paths`).

This is the pre-computation the paper says proactive routing should make
cheap ("pre-computation of static routes between any set of satellites
and fixed ground infrastructure", §2.3): the contact plan for a whole
epoch is two dense arrays, not a dict of path objects.

Determinism
-----------

The CSR build is fully deterministic: nodes are indexed in the order
given and each row's neighbors are sorted by index (a stable
lexsort over ``(row, col)``), so repeated builds of the same snapshot
produce byte-identical arrays and scipy's Dijkstra returns the same
distances and predecessors every time.  Where several equal-cost paths
exist, the tie breaks by that stable neighbour order.  The test suite
checks distances bit for bit against a networkx Dijkstra oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro import obs as _obs
from repro.routing.metrics import EdgeCostModel, PROPAGATION_ONLY

#: scipy.sparse.csgraph's "no predecessor" sentinel.
NO_PREDECESSOR = -9999

#: An edge weight: a cost model, or ``(u, v, data) -> float | None``
#: where ``None`` (or a non-finite value) drops the edge entirely.
WeightSpec = Union[EdgeCostModel, Callable[[Hashable, Hashable, dict], Optional[float]], None]


def _weight_callable(weight: WeightSpec) -> Callable[[Hashable, Hashable, dict], Optional[float]]:
    """Normalize a weight spec into a ``(u, v, data) -> cost`` callable."""
    if weight is None:
        weight = PROPAGATION_ONLY
    if isinstance(weight, EdgeCostModel):
        edge_cost = weight.edge_cost

        def model_weight(_u, _v, data):
            return edge_cost(data)

        return model_weight
    if callable(weight):
        return weight
    raise TypeError(
        f"weight must be an EdgeCostModel or callable, got {type(weight)!r}"
    )


class CsrAdjacency:
    """An index-mapped CSR adjacency compiled from one snapshot.

    Node ids (any hashable) are mapped to dense integer indices in the
    order given; the adjacency is stored as the classic
    ``indptr``/``indices``/``data`` triple with each row's entries sorted
    by neighbor index (deterministic tie ordering).  Undirected graphs
    store both directions explicitly, so scipy always runs in directed
    mode and explicit zero-weight edges stay edges.
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "data",
                 "_matrix", "_sp_cache")

    def __init__(self, nodes: List[Hashable], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        self.nodes = nodes
        self.index: Dict[Hashable, int] = {n: i for i, n in enumerate(nodes)}
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._matrix = None
        self._sp_cache: Dict[Hashable, "ShortestPaths"] = {}

    @classmethod
    def from_graph(cls, graph, weight: WeightSpec = None,
                   exclude: Optional[Sequence[Hashable]] = None) -> "CsrAdjacency":
        """Compile a networkx graph (or DiGraph) into a CSR adjacency.

        The package compiles snapshots with :meth:`from_edges`; this
        graph form is the referee the tests hold those compiles to, and
        the end-to-end benchmark's tracer counts it.

        Args:
            graph: The snapshot graph.
            weight: Cost model or ``(u, v, data)`` callable; a ``None``
                or non-finite return drops that edge (the QoS/adaptive
                routers use this to express admission filters).
            exclude: Node ids left out of the index map entirely
                (fault-masked elements): no index, no row, no entries.
        """
        excluded = frozenset(exclude or ())
        if excluded:
            nodes = [n for n in graph.nodes if n not in excluded]
        else:
            nodes = list(graph.nodes)
        index = {n: i for i, n in enumerate(nodes)}
        weight_fn = _weight_callable(weight)

        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        for u, v, data in graph.edges(data=True):
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None or iu == iv:
                continue
            cost = weight_fn(u, v, data)
            if cost is None:
                continue
            rows.append(iu)
            cols.append(iv)
            weights.append(float(cost))
        return cls.from_edges(nodes, np.asarray(rows, dtype=np.int64),
                              np.asarray(cols, dtype=np.int64),
                              np.asarray(weights, dtype=np.float64),
                              directed=bool(graph.is_directed()))

    @classmethod
    def from_edges(cls, nodes: List[Hashable], rows: np.ndarray,
                   cols: np.ndarray, weights: np.ndarray,
                   directed: bool = False) -> "CsrAdjacency":
        """Compile parallel edge arrays into a CSR adjacency.

        Self-loops and edges with a non-finite weight are dropped; an
        undirected edge is stored in both directions.  Every row's
        entries are sorted by neighbour index, so the arrays depend only
        on the node order and the edge set, never on the edge order.

        Args:
            nodes: Node ids; row ``i`` is ``nodes[i]``.
            rows: Source node index per edge.
            cols: Target node index per edge (no duplicate pairs).
            weights: Cost per edge.
            directed: Store only the listed direction.
        """
        keep = (rows != cols) & np.isfinite(weights)
        row_arr = rows[keep].astype(np.int64, copy=False)
        col_arr = cols[keep].astype(np.int64, copy=False)
        data_arr = weights[keep].astype(np.float64, copy=False)
        if not directed:
            row_arr, col_arr = (np.concatenate([row_arr, col_arr]),
                                np.concatenate([col_arr, row_arr]))
            data_arr = np.concatenate([data_arr, data_arr])
        count = len(nodes)
        # (row, col) sort = node-order rows, index-sorted neighbours:
        # the deterministic tie ordering the digests rely on.
        order = np.lexsort((col_arr, row_arr))
        row_arr = row_arr[order]
        col_arr = col_arr[order]
        data_arr = data_arr[order]
        indptr = np.zeros(count + 1, dtype=np.int64)
        if row_arr.size:
            np.cumsum(np.bincount(row_arr, minlength=count), out=indptr[1:])
        return cls(nodes, indptr, col_arr.astype(np.int32, copy=False),
                   data_arr)

    # -- structure -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def entry_count(self) -> int:
        """Stored directed entries (2x the undirected edge count)."""
        return int(self.indices.shape[0])

    def __contains__(self, node: Hashable) -> bool:
        return node in self.index

    def matrix(self):
        """The scipy ``csr_matrix`` view over the weight arrays."""
        if self._matrix is None:
            self._matrix = _scipy_csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.node_count, self.node_count),
            )
        return self._matrix

    # -- shortest paths ------------------------------------------------

    def shortest_paths(self, sources: Sequence[Hashable]) -> "ShortestPaths":
        """Batched multi-source Dijkstra from every listed source.

        One ``scipy.sparse.csgraph.dijkstra`` call computes the full
        ``(len(sources), node_count)`` distance and predecessor
        matrices; unknown sources raise ``KeyError``.
        """
        source_list = list(sources)
        source_idx = np.asarray([self.index[s] for s in source_list],
                                dtype=np.int64)
        if not source_list:
            dist = np.empty((0, self.node_count), dtype=np.float64)
            pred = np.empty((0, self.node_count), dtype=np.int32)
            return ShortestPaths(self, source_list, dist, pred)
        dist, pred = _scipy_dijkstra(
            self.matrix(), directed=True, indices=source_idx,
            return_predecessors=True,
        )
        return ShortestPaths(self, source_list, dist, pred)

    def shortest_path(self, source: Hashable,
                      target: Hashable) -> Optional[List[Hashable]]:
        """The least-cost path from ``source`` to ``target``, or None when
        either is unknown or ``target`` is unreachable (one memoized
        :meth:`single_source` search)."""
        if source not in self.index or target not in self.index:
            return None
        return self.single_source(source).path(source, target)

    def single_source(self, source: Hashable) -> "ShortestPaths":
        """Dijkstra from one source, memoized per adjacency.

        Repeated queries against the same snapshot (nearest-gateway
        scans, per-pair lookups) reuse the first computation.
        """
        cached = self._sp_cache.get(source)
        if cached is None:
            cached = self.shortest_paths([source])
            self._sp_cache[source] = cached
        return cached

    def nearest_target_paths(self, sources: Sequence[Hashable],
                             targets: Sequence[Hashable],
                             ) -> List[Optional[List[Hashable]]]:
        """Each source's path to its nearest target, ``None`` if none.

        The answer is by definition the forward rule's,
        ``shortest_paths(sources).nearest_paths(targets)``: the
        first-listed target with the least distance, that target's
        ``.path``.  It is computed in three steps instead of one search
        per source:

        1. One ``min_only`` Dijkstra over the transpose, from every
           target at once, gives each node ``x`` its distance ``D[x]``
           to the nearest target and its next hop toward it.
        2. Node ``x`` is *certified* when every out-entry ``(x, y)``
           other than that next hop costs ``w(x, y) + D[y] > D[x] + tau``
           (at a target, every out-entry counts).  A source is
           certified when every node on its next-hop chain is; pointer
           doubling checks all chains in ``ceil(log2 N)`` array steps.
           A certified source's path is its chain.
        3. Every other source that reaches a target runs the forward
           rule itself.  Exact ties (symmetric fleets, zero-weight
           edges) land here; their count goes on the obs bus as
           ``routing.nearest_paths.fallback_sources``.

        Why a certified chain is the forward answer: csgraph's forward
        distance to a node is the least left-to-right float sum over
        all paths to it.  Any path from the source to any target other
        than the chain leaves it at some chain node ``x`` (or runs on
        past its target) through an entry ``(x, y)``, so its exact cost
        is at least the chain's prefix to ``x`` plus ``w(x, y)`` plus
        the exact distance from ``y``; the chain costs that prefix plus
        its exact suffix from ``x``.  Forward sums and ``D`` (reverse
        sums) each add at most ``N - 1`` non-negative terms, so each is
        within ``gamma = N eps / 2`` relative of the exact sum it
        rounds; ``D[y]`` over-states ``y``'s exact distance and ``D[x]``
        under-states the suffix by at most that much.  With ``M``, the
        largest finite ``D``, bounding ``D[x]`` and the whole chain, the
        other path's forward sum exceeds the chain's by more than
        ``tau - 4 gamma M`` to first order in ``gamma``.  So
        ``tau = 4 N eps M`` (twice what is needed; at most about
        ``1e-12`` s on the demand snapshots) makes the chain the unique
        least float sum, and the forward search returns that path and
        that target whatever its tie order.  Rounding is monotone, so
        the float comparison implies the exact one.

        Args:
            sources: Search origins; unknown ids raise ``KeyError``.
            targets: Candidate endpoints; unknown ids raise
                ``KeyError``.

        Returns:
            One node path per source, in order; ``None`` where no target
            is reachable.
        """
        source_list = list(sources)
        target_list = list(targets)
        source_idx = np.asarray([self.index[s] for s in source_list],
                                dtype=np.int64)
        target_idx = np.asarray([self.index[t] for t in target_list],
                                dtype=np.int64)
        paths: List[Optional[List[Hashable]]] = [None] * len(source_list)
        if not source_list or not target_list:
            return paths
        count = self.node_count
        dist, next_hop, _ = _scipy_dijkstra(
            self.matrix().T, directed=True, indices=target_idx,
            min_only=True, return_predecessors=True,
        )
        tau = (4.0 * count * np.finfo(np.float64).eps
               * float(dist[np.isfinite(dist)].max()))

        # Cheapest way out of each node other than its next hop.
        entry_rows = np.repeat(np.arange(count), np.diff(self.indptr))
        detour = self.data + dist[self.indices]
        detour[self.indices == next_hop[entry_rows]] = np.inf
        best_detour = np.full(count, np.inf)
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        if nonempty.any():
            best_detour[nonempty] = np.minimum.reduceat(detour,
                                                        starts[nonempty])
        certified = best_detour > dist + tau
        jump = np.where(next_hop >= 0, next_hop, np.arange(count))
        for _ in range((count - 1).bit_length()):
            certified &= certified[jump]
            jump = jump[jump]

        reachable = np.isfinite(dist[source_idx])
        chained = reachable & certified[source_idx]
        nodes = self.nodes
        hops = next_hop.tolist()
        for k in np.flatnonzero(chained).tolist():
            cursor = int(source_idx[k])
            path = [nodes[cursor]]
            while hops[cursor] >= 0:
                cursor = hops[cursor]
                path.append(nodes[cursor])
            paths[k] = path

        fallback = np.flatnonzero(reachable & ~chained).tolist()
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("routing.nearest_paths.fallback_sources",
                           len(fallback))
        if fallback:
            forward = self.shortest_paths([source_list[k] for k in fallback])
            for k, path in zip(fallback, forward.nearest_paths(target_list)):
                paths[k] = path
        return paths

    def with_source_rows(self, sources: Sequence[Hashable],
                         rows: np.ndarray, neighbor_indices: np.ndarray,
                         weights: np.ndarray) -> "CsrAdjacency":
        """This adjacency plus one source-only row per listed node.

        Source ``k`` takes index ``node_count + k``, and its row holds
        the entries whose ``rows`` value is ``k``, sorted by neighbour
        index.  No entry points into an appended row, so a search can
        start at one but never enters or crosses one.  This is how
        user-terminal probes join a base snapshot compiled once: one
        matrix of ``node_count + len(sources)`` nodes, one search with
        the appended rows as sources.

        A search from an appended row relaxes exactly what a search from
        the same node appended as a leaf (:meth:`append_leaf_arrays`)
        does: a search never re-enters its source, so the leaf's
        incoming entries never reach the heap.  Distances and
        predecessors over the base nodes are therefore equal bit for
        bit, with the leaf's index read as the source row's.

        Args:
            sources: Ids of the new nodes, in row order.
            rows: Per entry, the source (``0 .. len(sources) - 1``) that
                owns it.
            neighbor_indices: Per entry, the base node it points to (no
                duplicate pair within one source).
            weights: Per entry, its weight.

        Returns:
            A new adjacency over ``nodes + sources``; the receiver's own
            arrays are never mutated.
        """
        row_arr = np.asarray(rows, dtype=np.int64)
        neighbors = np.asarray(neighbor_indices, dtype=np.int64)
        order = np.lexsort((neighbors, row_arr))
        counts = np.bincount(row_arr, minlength=len(sources))
        return CsrAdjacency(
            self.nodes + list(sources),
            np.concatenate([self.indptr, self.indptr[-1] + np.cumsum(counts)]),
            np.concatenate([self.indices,
                            neighbors[order].astype(np.int32, copy=False)]),
            np.concatenate([self.data,
                            np.asarray(weights, dtype=np.float64)[order]]),
        )

    def append_leaf_arrays(self, neighbor_indices: np.ndarray,
                           weights: np.ndarray,
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR triple for this adjacency plus one appended leaf node.

        The leaf takes index ``node_count`` — the maximum index — so its
        incoming entries land at the *end* of each neighbor row and its
        own row sits last: exactly the arrays
        :meth:`from_graph` would produce for the same graph with the
        leaf added after every existing node (the lexsorted ``(row,
        col)`` layout is preserved without re-sorting anything).  Each
        call copies the whole adjacency; probes append users with
        :meth:`with_source_rows` instead, and this leaf layout is the
        referee its tests compare against.

        Args:
            neighbor_indices: Indices of the leaf's neighbors (need not
                be sorted; duplicates are a caller bug).
            weights: Edge weight per neighbor, aligned with
                ``neighbor_indices``.

        Returns:
            ``(indptr, indices, data)`` arrays over ``node_count + 1``
            nodes; the receiver's own arrays are never mutated.
        """
        neighbors = np.asarray(neighbor_indices, dtype=np.int64)
        weight_arr = np.asarray(weights, dtype=np.float64)
        order = np.argsort(neighbors, kind="stable")
        neighbors = neighbors[order]
        weight_arr = weight_arr[order]
        leaf = self.node_count
        # Entries toward the leaf append at each neighbor row's end.
        insert_at = self.indptr[neighbors + 1]
        indices = np.insert(self.indices, insert_at,
                            np.full(neighbors.shape[0], leaf, dtype=np.int32))
        data = np.insert(self.data, insert_at, weight_arr)
        # The leaf's own row (sorted neighbor indices) goes last.
        indices = np.concatenate(
            [indices, neighbors.astype(np.int32, copy=False)]
        )
        data = np.concatenate([data, weight_arr])
        counts = np.bincount(neighbors, minlength=leaf)
        indptr = np.empty(leaf + 2, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(
            np.concatenate([
                np.diff(self.indptr) + counts, [neighbors.shape[0]]
            ]),
            out=indptr[1:],
        )
        return indptr, indices, data


class ShortestPaths:
    """Distance + predecessor matrices with lazy path reconstruction.

    The result of one batched Dijkstra call: ``dist[i, j]`` is the cost
    from ``sources[i]`` to node index ``j`` (``inf`` when unreachable),
    ``pred[i, j]`` the predecessor index on that shortest-path tree.
    Paths are materialized only on request — the whole object is two
    numpy arrays until someone asks for a concrete route.
    """

    __slots__ = ("adjacency", "sources", "dist", "pred", "_row")

    def __init__(self, adjacency: CsrAdjacency, sources: List[Hashable],
                 dist: np.ndarray, pred: np.ndarray):
        self.adjacency = adjacency
        self.sources = sources
        self.dist = np.atleast_2d(dist)
        self.pred = np.atleast_2d(pred)
        self._row = {s: i for i, s in enumerate(sources)}

    def distance(self, source: Hashable, target: Hashable) -> float:
        """Shortest-path cost, ``inf`` when unreachable or unknown."""
        row = self._row.get(source)
        col = self.adjacency.index.get(target)
        if row is None or col is None:
            return float("inf")
        return float(self.dist[row, col])

    def path(self, source: Hashable,
             target: Hashable) -> Optional[List[Hashable]]:
        """Reconstruct the shortest path, or ``None`` when unreachable."""
        row = self._row.get(source)
        col = self.adjacency.index.get(target)
        if row is None or col is None:
            return None
        if not np.isfinite(self.dist[row, col]):
            return None
        nodes = self.adjacency.nodes
        source_idx = self.adjacency.index[source]
        if col == source_idx:
            return [source]
        pred_row = self.pred[row]
        reversed_path = [col]
        cursor = col
        while cursor != source_idx:
            cursor = int(pred_row[cursor])
            if cursor == NO_PREDECESSOR:
                return None
            reversed_path.append(cursor)
        return [nodes[i] for i in reversed(reversed_path)]

    def nearest_paths(self, targets: Sequence[Hashable],
                      ) -> List[Optional[List[Hashable]]]:
        """Each source's path to its nearest target, in source order.

        The nearest target of a row is the first-listed one at the least
        distance (an ``argmin`` over the targets' columns), and the
        answer is that one target's :meth:`path`; ``None`` where no
        target is reachable.  This is the forward rule
        :meth:`CsrAdjacency.nearest_target_paths` is defined by; unknown
        targets raise ``KeyError``.
        """
        targets = list(targets)
        if not targets:
            return [None] * len(self.sources)
        columns = [self.adjacency.index[target] for target in targets]
        nearest = np.argmin(self.dist[:, columns], axis=1).tolist()
        return [self.path(source, targets[best])
                for source, best in zip(self.sources, nearest)]

    def reachable_targets(self, source: Hashable) -> List[Hashable]:
        """Targets with a finite-cost path from ``source`` (itself
        excluded), in index order."""
        row = self._row.get(source)
        if row is None:
            return []
        source_idx = self.adjacency.index[source]
        finite = np.isfinite(self.dist[row])
        if 0 <= source_idx < finite.shape[0]:
            finite[source_idx] = False
        nodes = self.adjacency.nodes
        return [nodes[int(col)] for col in np.nonzero(finite)[0]]

    def reachable_count(self, source: Hashable) -> int:
        """Number of reachable targets from ``source`` (itself excluded)."""
        row = self._row.get(source)
        if row is None:
            return 0
        finite = np.isfinite(self.dist[row])
        count = int(finite.sum())
        source_idx = self.adjacency.index[source]
        if finite[source_idx]:
            count -= 1
        return count


def block_diagonal_dijkstra(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    sources: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One multi-source Dijkstra over disjoint CSR blocks.

    Stacks the given ``(indptr, indices, data)`` triples into one
    block-diagonal matrix and runs a single
    ``scipy.sparse.csgraph.dijkstra`` with one source per block.  Because
    the blocks share no edges and every block's node indices are offset
    uniformly, each source's search never leaves its own block and its
    heap tie-ordering matches a standalone single-source run on that
    block alone — distances *and predecessors* per block are identical
    to ``len(blocks)`` separate calls, at one C-call's cost.

    Args:
        blocks: CSR triples (e.g. from
            :meth:`CsrAdjacency.append_leaf_arrays`); blocks may have
            different node counts.
        sources: Block-local source index, one per block.

    Returns:
        ``(dist, pred, offsets)``: the ``(len(blocks), total_nodes)``
        distance and predecessor matrices (row ``k`` is block ``k``'s
        source; columns are global indices) and the per-block node
        offsets.  Map a block-local node ``j`` of block ``k`` to global
        column ``offsets[k] + j``; predecessors are global indices with
        :data:`NO_PREDECESSOR` outside the tree.
    """
    if len(blocks) != len(sources):
        raise ValueError(
            f"need one source per block, got {len(sources)} sources "
            f"for {len(blocks)} blocks"
        )
    if not blocks:
        return (np.empty((0, 0)), np.empty((0, 0), dtype=np.int32),
                np.empty(0, dtype=np.int64))
    node_counts = np.array([b[0].shape[0] - 1 for b in blocks],
                           dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(node_counts[:-1])])
    total = int(node_counts.sum())
    indptr_parts = [blocks[0][0]]
    indptr_parts.extend(
        block[0][1:] + int(end)
        for block, end in zip(
            blocks[1:], np.cumsum([b[0][-1] for b in blocks[:-1]])
        )
    )
    indptr = np.concatenate(indptr_parts)
    indices = np.concatenate([
        block[1].astype(np.int64, copy=False) + offset
        for block, offset in zip(blocks, offsets)
    ])
    data = np.concatenate([block[2] for block in blocks])
    matrix = _scipy_csr_matrix((data, indices, indptr), shape=(total, total))
    source_idx = offsets + np.asarray(sources, dtype=np.int64)
    dist, pred = _scipy_dijkstra(
        matrix, directed=True, indices=source_idx, return_predecessors=True,
    )
    return np.atleast_2d(dist), np.atleast_2d(pred), offsets

