"""Proactive (precomputed) routing from public orbital knowledge.

"The set of overhead satellites and the times at which they will be
available are entirely predictable ... allowing for pre-computation of
static routes between any set of satellites and fixed ground
infrastructure."  The :class:`ProactiveRouter` consumes a series of
topology snapshots and precomputes, for each snapshot epoch, all-pairs (or
selected-pairs) static routes; at run time a lookup is O(1).

Each epoch is a :class:`LazyCsrEpoch`: distance + predecessor matrices
from one batched multi-source :func:`scipy.sparse.csgraph.dijkstra` call
(:mod:`repro.routing.csr`), with :class:`StaticRoute` objects
materialized on first lookup instead of all-pairs up front.  It keeps a
by-source index (O(out-degree) contact-plan slices for dissemination)
and a node→route-keys inverted index (fault invalidation touches only
affected routes instead of rescanning every epoch).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import (
    EdgeCostModel,
    PROPAGATION_ONLY,
    RouteMetrics,
    path_metrics,
)

RouteKey = Tuple[str, str]


@dataclass(frozen=True)
class StaticRoute:
    """One precomputed route valid during one snapshot epoch.

    Attributes:
        source: Source node id.
        target: Target node id.
        valid_from_s: Epoch start.
        valid_until_s: Epoch end (start of the next snapshot).
        metrics: End-to-end metrics at precomputation time.
    """

    source: str
    target: str
    valid_from_s: float
    valid_until_s: float
    metrics: RouteMetrics

    @property
    def path(self) -> List[str]:
        return self.metrics.path


class LazyCsrEpoch:
    """An epoch backed by CSR distance/predecessor matrices.

    Holds the output of one batched multi-source Dijkstra run and
    materializes :class:`StaticRoute` objects (path walk + metric
    accumulation over the snapshot graph) only when a pair is actually
    looked up.  ``len()`` — the number of precomputed routes — comes from
    the finite-distance count without materializing anything.
    """

    __slots__ = ("graph", "paths", "sources", "wanted_by_source",
                 "valid_from_s", "valid_until_s", "_cache", "_dropped",
                 "_by_source", "_through", "_count")

    def __init__(self, graph, paths, sources: Sequence[str],
                 valid_from_s: float, valid_until_s: float,
                 wanted_by_source: Optional[Dict[str, Set[str]]] = None):
        self.graph = graph
        #: A :class:`repro.routing.csr.ShortestPaths` over ``sources``.
        self.paths = paths
        self.sources = list(sources)
        self.wanted_by_source = wanted_by_source
        self.valid_from_s = valid_from_s
        self.valid_until_s = valid_until_s
        self._cache: Dict[RouteKey, StaticRoute] = {}
        self._dropped: Set[RouteKey] = set()
        self._by_source: Optional[Dict[str, List[str]]] = None
        self._through: Optional[Dict[str, Set[RouteKey]]] = None
        self._count: Optional[int] = None

    # -- validity -------------------------------------------------------

    def _is_valid(self, source: str, target: str) -> bool:
        """Whether the pair has a precomputed (finite, wanted) route,
        ignoring drops."""
        if source == target:
            return False
        if self.wanted_by_source is not None:
            targets = self.wanted_by_source.get(source)
            if targets is None or target not in targets:
                return False
        return math.isfinite(self.paths.distance(source, target))

    def _valid_targets(self, source: str) -> List[str]:
        targets = self.paths.reachable_targets(source)
        if self.wanted_by_source is not None:
            wanted = self.wanted_by_source.get(source, set())
            targets = [t for t in targets if t in wanted]
        return targets

    def __len__(self) -> int:
        if self._count is None:
            if self.wanted_by_source is None:
                self._count = sum(self.paths.reachable_count(src)
                                  for src in self.sources)
            else:
                self._count = sum(len(self._valid_targets(src))
                                  for src in self.sources)
        return self._count - len(self._dropped)

    def __contains__(self, key: RouteKey) -> bool:
        return key not in self._dropped and self._is_valid(*key)

    # -- epoch-store protocol -------------------------------------------

    def get(self, key: RouteKey, default=None) -> Optional[StaticRoute]:
        source, target = key
        if key in self._dropped:
            return default
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not self._is_valid(source, target):
            return default
        path = self.paths.path(source, target)
        if path is None:
            return default
        route = StaticRoute(
            source=source,
            target=target,
            valid_from_s=self.valid_from_s,
            valid_until_s=self.valid_until_s,
            metrics=path_metrics(self.graph, path),
        )
        self._cache[key] = route
        return route

    def from_source(self, source: str) -> Dict[str, StaticRoute]:
        """Materialize just this source's row of the table."""
        if self._by_source is None:
            self._by_source = {}
        targets = self._by_source.get(source)
        if targets is None:
            targets = self._valid_targets(source)
            self._by_source[source] = targets
        slice_: Dict[str, StaticRoute] = {}
        for target in targets:
            route = self.get((source, target))
            if route is not None:
                slice_[target] = route
        return slice_

    def keys_through(self, node: str) -> Iterable[RouteKey]:
        """Keys of routes traversing ``node``; the first call walks the
        predecessor matrices once (paths only, no metrics)."""
        if self._through is None:
            through: Dict[str, Set[RouteKey]] = {}
            for src in self.sources:
                for target in self._valid_targets(src):
                    path = self.paths.path(src, target)
                    if path is None:
                        continue
                    key = (src, target)
                    for hop in path:
                        through.setdefault(hop, set()).add(key)
            self._through = through
        keys = self._through.get(node, ())
        return tuple(k for k in keys if k not in self._dropped)

    def discard_route(self, key: RouteKey) -> bool:
        if key in self._dropped or not self._is_valid(*key):
            return False
        self._dropped.add(key)
        self._cache.pop(key, None)
        return True


@dataclass
class RoutingTable:
    """Per-epoch route store with binary-search time lookup."""

    epochs_s: List[float] = field(default_factory=list)
    routes: List[LazyCsrEpoch] = field(default_factory=list)

    def add_epoch(self, epoch_s: float, epoch_routes: LazyCsrEpoch) -> None:
        """Append an epoch; epochs must be added in increasing time order."""
        if self.epochs_s and epoch_s <= self.epochs_s[-1]:
            raise ValueError(
                f"epochs must be strictly increasing; got {epoch_s} after "
                f"{self.epochs_s[-1]}"
            )
        self.epochs_s.append(epoch_s)
        self.routes.append(epoch_routes)

    def epoch_index_at(self, time_s: float) -> int:
        """Index of the epoch covering ``time_s``.

        Raises:
            LookupError: When ``time_s`` precedes the first epoch or the
                table is empty.
        """
        if not self.epochs_s:
            raise LookupError("routing table is empty")
        index = bisect.bisect_right(self.epochs_s, time_s) - 1
        if index < 0:
            raise LookupError(
                f"time {time_s} precedes first routing epoch {self.epochs_s[0]}"
            )
        return index

    def lookup(self, source: str, target: str,
               time_s: float) -> Optional[StaticRoute]:
        """The precomputed route for a pair at a time; None when absent."""
        index = self.epoch_index_at(time_s)
        return self.routes[index].get((source, target))

    @property
    def route_count(self) -> int:
        return sum(len(epoch) for epoch in self.routes)


class ProactiveRouter:
    """Precomputes static routes across a snapshot series.

    Args:
        cost_model: Edge-cost model used for the precomputation; defaults
            to pure propagation delay (the paper's latency metric).
    """

    def __init__(self, cost_model: Optional[EdgeCostModel] = None):
        self.cost_model = cost_model or PROPAGATION_ONLY
        self.table = RoutingTable()

    def precompute(self, snapshots: Sequence, pairs: Optional[Sequence[RouteKey]] = None,
                   horizon_s: Optional[float] = None) -> RoutingTable:
        """Build the routing table over a series of topology snapshots.

        Each snapshot costs one batched multi-source Dijkstra; routes
        materialize lazily on lookup.

        Args:
            snapshots: :class:`~repro.isl.topology.TopologySnapshot` objects
                (anything with ``time_s`` and ``graph``), time-ordered.
            pairs: Source/target pairs to precompute.  None means all pairs
                (Dijkstra from every source — fine at paper scale).
            horizon_s: Validity end of the final epoch; defaults to the
                last snapshot time plus the preceding epoch length.

        Returns:
            The populated :class:`RoutingTable` (also kept on the router).
        """
        if not snapshots:
            raise ValueError("need at least one snapshot to precompute routes")
        times = [snap.time_s for snap in snapshots]
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("snapshots must be strictly time-ordered")
        if horizon_s is None:
            step = times[-1] - times[-2] if len(times) > 1 else 60.0
            horizon_s = times[-1] + step

        self.table = RoutingTable()
        recorder = _obs.active()
        with recorder.span("routing.proactive.precompute",
                           snapshots=len(snapshots),
                           pairs="all" if pairs is None else len(pairs)):
            for snap, valid_until in zip(snapshots, times[1:] + [horizon_s]):
                graph = snap.graph
                if pairs is None:
                    wanted_sources = list(graph.nodes)
                    wanted_by_source = None
                else:
                    wanted_sources = sorted({src for src, _ in pairs})
                    wanted_by_source = {}
                    for src, dst in pairs:
                        wanted_by_source.setdefault(src, set()).add(dst)
                wanted_sources = [s for s in wanted_sources if s in graph]
                epoch = self._csr_epoch(snap, graph, wanted_sources,
                                        wanted_by_source, valid_until)
                if recorder.enabled:
                    recorder.count("routing.proactive.routes", len(epoch))
                    recorder.count("routing.proactive.epochs")
                self.table.add_epoch(snap.time_s, epoch)
        return self.table

    def _csr_epoch(self, snap, graph, sources, wanted_by_source,
                   valid_until_s: float) -> LazyCsrEpoch:
        csr_of = getattr(snap, "csr_adjacency", None)
        if csr_of is not None:
            adjacency = csr_of(self.cost_model)
        else:
            adjacency = CsrAdjacency.from_graph(graph, weight=self.cost_model)
        return LazyCsrEpoch(
            graph=graph,
            paths=adjacency.shortest_paths(sources),
            sources=sources,
            valid_from_s=snap.time_s,
            valid_until_s=valid_until_s,
            wanted_by_source=wanted_by_source,
        )

    def invalidate_routes_through(self, elements: Sequence[str],
                                  from_time_s: float = 0.0) -> int:
        """Drop precomputed routes that traverse any failed element.

        Called by the fault injector when satellites or stations go down:
        every static route whose path crosses an affected node, in the
        epoch covering ``from_time_s`` and every later epoch, is removed
        so lookups miss and callers fall back to live recomputation.
        Routes that already avoided the element stay valid — repair needs
        no invalidation (stale-but-working routes heal at the next
        precompute).

        Each epoch's node→route-keys inverted index makes this touch only
        the affected routes rather than rescanning every route per fault
        event.

        Returns:
            The number of routes dropped.
        """
        affected = set(elements)
        if not affected or not self.table.epochs_s:
            return 0
        start = bisect.bisect_right(self.table.epochs_s, from_time_s) - 1
        start = max(0, start)
        dropped = 0
        for index in range(start, len(self.table.routes)):
            epoch = self.table.routes[index]
            doomed: Set[RouteKey] = set()
            for node in affected:
                doomed.update(epoch.keys_through(node))
            for key in doomed:
                if epoch.discard_route(key):
                    dropped += 1
        recorder = _obs.active()
        if recorder.enabled and dropped:
            recorder.count("routing.proactive.invalidated", dropped)
            recorder.event("route.invalidated", from_time_s,
                           subject=",".join(sorted(affected)[:4]),
                           elements=len(affected), routes=dropped)
        return dropped

    def routes_from(self, source: str,
                    time_s: float) -> Dict[str, StaticRoute]:
        """A source node's slice of the contact plan at one instant.

        This is the unit of contact-plan dissemination: the per-satellite
        table a controller pushes over control links (see
        :class:`~repro.reliability.policy.ResilientRouter`).  An empty
        dict means the node has no precomputed routes in that epoch.
        Served from the epoch's by-source index — O(out-degree), not
        O(all routes in the epoch).
        """
        try:
            index = self.table.epoch_index_at(time_s)
        except LookupError:
            return {}
        return self.table.routes[index].from_source(source)

    def route(self, source: str, target: str,
              time_s: float) -> Optional[StaticRoute]:
        """Look up the precomputed route for a pair at a time."""
        found = self.table.lookup(source, target, time_s)
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("routing.proactive.lookups",
                           label="hit" if found is not None else "miss")
        return found
