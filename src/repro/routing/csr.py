"""Compiled-sparse (CSR) shortest paths: the one routing implementation.

Every routing layer in the stack reduces to the same primitive: shortest
paths over a snapshot graph whose edges carry additive costs.  This
module compiles a snapshot into an index-mapped CSR adjacency (node→int
index table plus ``indptr``/``indices``/``data`` arrays) and answers
**batched multi-source Dijkstra** through
:func:`scipy.sparse.csgraph.dijkstra` — one C call for any number of
sources, with paths reconstructed lazily from the predecessor matrix.

This is the pre-computation the paper says proactive routing should make
cheap ("pre-computation of static routes between any set of satellites
and fixed ground infrastructure", §2.3): the contact plan for a whole
epoch is two dense arrays, not a dict of path objects.

Determinism
-----------

The CSR build is fully deterministic: nodes are indexed in graph
insertion order and each row's neighbors are sorted by index (a stable
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


def delay_weight(_u, _v, data) -> float:
    """Raw ``delay_s`` edge weight (networkx's ``weight="delay_s"``)."""
    return float(data.get("delay_s", 1.0))


class CsrAdjacency:
    """An index-mapped CSR adjacency compiled from one snapshot graph.

    Node ids (any hashable) are mapped to dense integer indices in graph
    insertion order; the adjacency is stored as the classic
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
        directed = bool(graph.is_directed())

        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        for u, v, data in graph.edges(data=True):
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None or iu == iv:
                continue
            cost = weight_fn(u, v, data)
            if cost is None or not np.isfinite(cost):
                continue
            rows.append(iu)
            cols.append(iv)
            weights.append(float(cost))
            if not directed:
                rows.append(iv)
                cols.append(iu)
                weights.append(float(cost))

        count = len(nodes)
        row_arr = np.asarray(rows, dtype=np.int64)
        col_arr = np.asarray(cols, dtype=np.int64)
        data_arr = np.asarray(weights, dtype=np.float64)
        # Stable (row, col) sort = insertion-order rows, index-sorted
        # neighbors: the deterministic tie ordering the digests rely on.
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

    def append_leaf_arrays(self, neighbor_indices: np.ndarray,
                           weights: np.ndarray,
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR triple for this adjacency plus one appended leaf node.

        The leaf takes index ``node_count`` — the maximum index — so its
        incoming entries land at the *end* of each neighbor row and its
        own row sits last: exactly the arrays
        :meth:`from_graph` would produce for the same graph with the
        leaf added after every existing node (the lexsorted ``(row,
        col)`` layout is preserved without re-sorting anything).  This
        is the vectorized augmentation step for user-terminal probes:
        base snapshot compiled once, one ``np.insert`` per probe batch.

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

    def has_source(self, source: Hashable) -> bool:
        return source in self._row

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


def shortest_path_csr(graph, source: Hashable, target: Hashable,
                      weight: WeightSpec = None) -> Optional[List[Hashable]]:
    """One-shot single-pair shortest path.

    Builds the adjacency, runs one single-source Dijkstra, reconstructs
    the path.  Layers that issue many queries against one snapshot
    should build a :class:`CsrAdjacency` once instead.
    """
    if source not in graph or target not in graph:
        return None
    adjacency = CsrAdjacency.from_graph(graph, weight=weight)
    return adjacency.single_source(source).path(source, target)
