"""Time-expanded (store-and-forward) routing over contact plans.

The paper's incremental-deployment story (Section 4) starts from "small
initial deployments across a small number of initial players".  Sparse
fleets rarely offer an *instantaneous* relay path between a user and a
gateway — but because every orbit is public, the future contact schedule
is known, and data can be carried onboard between contacts (delay-tolerant
store-and-forward).  This module compiles the classic time-expanded
graph over a sequence of snapshots straight into CSR arrays:

* node ``(entity, k)`` = the entity during snapshot epoch ``k``;
* a *storage* edge connects ``(entity, k)`` to ``(entity, k+1)`` with cost
  equal to the epoch length (the data waits onboard);
* a *contact* edge connects ``(a, k)`` to ``(b, k)`` for every link in
  snapshot ``k``, with the link's propagation delay.

Earliest-arrival routing over this graph answers "when can a bundle
handed to the network at time t reach the gateway?" — the metric the
sparse-deployment ablation reports against instantaneous-path routing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.routing.csr import CsrAdjacency


class Contacts(NamedTuple):
    """One epoch's contacts: endpoints index the epoch's node list."""

    u: np.ndarray
    v: np.ndarray
    delay_s: np.ndarray


class ContactEpoch(NamedTuple):
    """One plan epoch in the shape the router reads of a
    :class:`~repro.core.network.NetworkSnapshot` (``time_s``, ``nodes``
    and ``edges``), for plans no network snapshot models: an ISL
    topology with hand-placed ground nodes, say."""

    time_s: float
    nodes: List[str]
    edges: Contacts


@dataclass(frozen=True)
class StoreAndForwardRoute:
    """One delay-tolerant delivery plan.

    Attributes:
        source: Originating entity.
        target: Destination entity.
        departure_s: When the bundle entered the network.
        arrival_s: When it reaches the target.
        hops: ``(time_s, from_entity, to_entity)`` transmission events;
            storage intervals are implicit between them.
        epochs_waited: Number of storage edges traversed.
    """

    source: str
    target: str
    departure_s: float
    arrival_s: float
    hops: Tuple[Tuple[float, str, str], ...]
    epochs_waited: int

    @property
    def delivery_delay_s(self) -> float:
        return self.arrival_s - self.departure_s


class TimeExpandedRouter:
    """Earliest-arrival routing over a snapshot series.

    Args:
        snapshots: Time-ordered objects with ``time_s``, ``nodes`` and
            ``edges`` whose ``u``/``v`` index ``nodes`` and whose
            ``delay_s`` is each contact's delay
            (:class:`~repro.core.network.NetworkSnapshot` or
            :class:`ContactEpoch`).
        horizon_s: End of the final epoch; defaults to the last snapshot
            time plus the preceding epoch length.  Must lie after the
            last snapshot time.

    The time-expanded adjacency is compiled once, here, and one
    single-source run is memoized per distinct departure node.
    """

    def __init__(self, snapshots: Sequence, horizon_s: Optional[float] = None):
        # Materialize first: a generator input must not be half-consumed
        # by the emptiness check or the time scan below.
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("need at least one snapshot")
        times = [snap.time_s for snap in snapshots]
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("snapshots must be strictly time-ordered")
        self.snapshots = snapshots
        self.epoch_times = times
        if horizon_s is None:
            step = times[-1] - times[-2] if len(times) > 1 else 60.0
            horizon_s = times[-1] + step
        elif horizon_s <= times[-1]:
            raise ValueError(
                f"horizon {horizon_s} must lie after the last snapshot "
                f"time {times[-1]}"
            )
        self.horizon_s = horizon_s
        self._csr = self._compile()

    def _compile(self) -> CsrAdjacency:
        """The time-expanded graph as one directed CSR adjacency.

        Node ``(entity, k)`` takes index ``k * E + e``, where ``e`` is
        the entity's first-seen position over the snapshots (never set
        order: node order fixes the CSR indices, and with them which of
        two equal-cost plans wins).  Every contact runs both ways.
        """
        entities = list(dict.fromkeys(
            node for snap in self.snapshots for node in snap.nodes))
        count = len(entities)
        position = {entity: e for e, entity in enumerate(entities)}
        rows, cols, weights = [], [], []
        for k, snap in enumerate(self.snapshots):
            local = k * count + np.array([position[node]
                                          for node in snap.nodes],
                                         dtype=np.int64)
            edges = snap.edges
            u, v = local[edges.u], local[edges.v]
            delay = np.asarray(edges.delay_s, dtype=float)
            rows += [u, v]
            cols += [v, u]
            weights += [delay, delay]
            if k + 1 < len(self.snapshots):
                stay = k * count + np.arange(count)
                rows.append(stay)
                cols.append(stay + count)
                weights.append(np.full(
                    count, self.epoch_times[k + 1] - self.epoch_times[k]))
        nodes = [(entity, k) for k in range(len(self.snapshots))
                 for entity in entities]
        return CsrAdjacency.from_edges(
            nodes, np.concatenate(rows), np.concatenate(cols),
            np.concatenate(weights), directed=True,
        )

    def _entry(self, node_a: int, node_b: int) -> float:
        """The weight of the CSR entry from ``node_a`` to ``node_b``."""
        csr = self._csr
        start = int(csr.indptr[node_a])
        row = csr.indices[start:int(csr.indptr[node_a + 1])]
        return float(csr.data[start + int(np.searchsorted(row, node_b))])

    def _epoch_at(self, time_s: float) -> int:
        if time_s >= self.horizon_s:
            raise ValueError(
                f"departure {time_s} is at or after the plan horizon "
                f"{self.horizon_s}"
            )
        index = bisect.bisect_right(self.epoch_times, time_s) - 1
        if index < 0:
            raise ValueError(
                f"departure {time_s} precedes first epoch "
                f"{self.epoch_times[0]}"
            )
        return index

    def earliest_arrival(self, source: str, target: str,
                         departure_s: float) -> Optional[StoreAndForwardRoute]:
        """The earliest-arriving store-and-forward delivery plan.

        Args:
            source: Originating entity (must exist in some snapshot).
            target: Destination entity.
            departure_s: Bundle hand-off time; must fall within the plan.

        Returns:
            The route, or None when the bundle cannot be delivered within
            the plan horizon.

        Raises:
            ValueError: When ``departure_s`` precedes the first epoch or
                is at or after the horizon.
        """
        start_epoch = self._epoch_at(departure_s)
        start = (source, start_epoch)
        if start not in self._csr:
            return None
        if source == target:
            # Already there: a zero-delay plan with no transmissions.
            return StoreAndForwardRoute(
                source=source, target=target, departure_s=departure_s,
                arrival_s=departure_s, hops=(), epochs_waited=0,
            )
        sp = self._csr.single_source(start)
        best_node = None
        best_cost = float("inf")
        # Increasing-k order: an exact-tie arrival goes to the earliest
        # epoch copy of the target.
        for k in range(start_epoch, len(self.snapshots)):
            node = (target, k)
            if node not in self._csr:
                continue
            cost = sp.distance(start, node)
            if cost < best_cost:
                best_cost = cost
                best_node = node
        if best_node is None:
            return None
        path = sp.path(start, best_node)
        index = self._csr.index
        hops: List[Tuple[float, str, str]] = []
        clock = departure_s
        waits = 0
        for (u, ku), (v, kv) in zip(path[:-1], path[1:]):
            clock += self._entry(index[(u, ku)], index[(v, kv)])
            if ku == kv:
                hops.append((clock, u, v))
            else:
                waits += 1
        return StoreAndForwardRoute(
            source=source,
            target=target,
            departure_s=departure_s,
            arrival_s=clock,
            hops=tuple(hops),
            epochs_waited=waits,
        )

    def delivery_ratio(self, pairs: Sequence[Tuple[str, str]],
                       departure_s: float) -> float:
        """Fraction of pairs deliverable within the plan horizon."""
        if not pairs:
            return 0.0
        delivered = sum(
            1 for source, target in pairs
            if self.earliest_arrival(source, target, departure_s) is not None
        )
        return delivered / len(pairs)

    @property
    def node_count(self) -> int:
        return self._csr.node_count
