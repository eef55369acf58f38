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
materialized on first lookup instead of all-pairs up front.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
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
    accumulation over the snapshot's edge arrays) only when a pair is
    actually looked up.  ``len()`` — the number of precomputed routes — comes from
    the finite-distance count without materializing anything.
    """

    __slots__ = ("snapshot", "paths", "sources", "wanted_by_source",
                 "valid_from_s", "valid_until_s", "_cache", "_count")

    def __init__(self, snapshot, paths, sources: Sequence[str],
                 valid_from_s: float, valid_until_s: float,
                 wanted_by_source: Optional[Dict[str, Set[str]]] = None):
        #: The :class:`~repro.core.network.NetworkSnapshot` routed over.
        self.snapshot = snapshot
        #: A :class:`repro.routing.csr.ShortestPaths` over ``sources``.
        self.paths = paths
        self.sources = list(sources)
        self.wanted_by_source = wanted_by_source
        self.valid_from_s = valid_from_s
        self.valid_until_s = valid_until_s
        self._cache: Dict[RouteKey, StaticRoute] = {}
        self._count: Optional[int] = None

    # -- validity -------------------------------------------------------

    def _is_valid(self, source: str, target: str) -> bool:
        """Whether the pair has a precomputed (finite, wanted) route."""
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
        return self._count

    def __contains__(self, key: RouteKey) -> bool:
        return self._is_valid(*key)

    # -- epoch-store protocol -------------------------------------------

    def get(self, key: RouteKey, default=None) -> Optional[StaticRoute]:
        source, target = key
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
            metrics=path_metrics(self.snapshot, path),
        )
        self._cache[key] = route
        return route


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
            to :data:`~repro.routing.metrics.PROPAGATION_ONLY`, summed
            propagation and queueing delay.
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
            snapshots: :class:`~repro.core.network.NetworkSnapshot`
                objects, time-ordered; each routes on its own CSR under
                the router's cost model.
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
                if pairs is None:
                    wanted_sources = list(snap.nodes)
                    wanted_by_source = None
                else:
                    wanted_sources = sorted({src for src, _ in pairs})
                    wanted_by_source = {}
                    for src, dst in pairs:
                        wanted_by_source.setdefault(src, set()).add(dst)
                wanted_sources = [s for s in wanted_sources
                                  if s in snap.index]
                epoch = LazyCsrEpoch(
                    snapshot=snap,
                    paths=snap.csr_adjacency(self.cost_model).shortest_paths(
                        wanted_sources),
                    sources=wanted_sources,
                    valid_from_s=snap.time_s,
                    valid_until_s=valid_until,
                    wanted_by_source=wanted_by_source,
                )
                if recorder.enabled:
                    recorder.count("routing.proactive.routes", len(epoch))
                    recorder.count("routing.proactive.epochs")
                self.table.add_epoch(snap.time_s, epoch)
        return self.table

    def route(self, source: str, target: str,
              time_s: float) -> Optional[StaticRoute]:
        """Look up the precomputed route for a pair at a time."""
        found = self.table.lookup(source, target, time_s)
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("routing.proactive.lookups",
                           label="hit" if found is not None else "miss")
        return found
