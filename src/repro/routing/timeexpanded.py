"""Time-expanded (store-and-forward) routing over contact plans.

The paper's incremental-deployment story (Section 4) starts from "small
initial deployments across a small number of initial players".  Sparse
fleets rarely offer an *instantaneous* relay path between a user and a
gateway — but because every orbit is public, the future contact schedule
is known, and data can be carried onboard between contacts (delay-tolerant
store-and-forward).  This module builds the classic time-expanded graph
over a sequence of topology snapshots:

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
from typing import List, Optional, Sequence, Tuple

import networkx as nx

from repro.routing.csr import CsrAdjacency, delay_weight


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
        snapshots: Time-ordered objects with ``time_s`` and ``graph``
            (``TopologySnapshot`` / ``NetworkSnapshot`` both qualify).
        horizon_s: End of the final epoch; defaults to the last snapshot
            time plus the preceding epoch length.  Must lie after the
            last snapshot time.

    The time-expanded adjacency is compiled once, on the first query,
    and one single-source run is memoized per distinct departure node.
    """

    def __init__(self, snapshots: Sequence, horizon_s: Optional[float] = None):
        # Materialize first: a generator input must not be half-consumed
        # by the emptiness check or the time scan below.
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("need at least one snapshot")
        self._csr: Optional[CsrAdjacency] = None
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
        self._graph = self._build()

    def _build(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        epoch_ends = self.epoch_times[1:] + [self.horizon_s]
        # First-seen order, never set order: node order fixes the CSR
        # indices, and with them which of two equal-cost plans wins.
        entities = list(dict.fromkeys(
            node for snap in self.snapshots for node in snap.graph.nodes))
        for k, (snap, end_s) in enumerate(zip(self.snapshots, epoch_ends)):
            for entity in entities:
                graph.add_node((entity, k))
            # Contact edges within the epoch (bidirectional).
            for u, v, data in snap.graph.edges(data=True):
                delay = float(data.get("delay_s", 0.0))
                graph.add_edge((u, k), (v, k), delay_s=delay, kind="contact")
                graph.add_edge((v, k), (u, k), delay_s=delay, kind="contact")
            # Storage edges into the next epoch.
            if k + 1 < len(self.snapshots):
                wait = self.epoch_times[k + 1] - self.epoch_times[k]
                for entity in entities:
                    graph.add_edge(
                        (entity, k), (entity, k + 1),
                        delay_s=wait, kind="storage",
                    )
        return graph

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
        if start not in self._graph:
            return None
        if source == target:
            # Already there: a zero-delay plan with no transmissions.
            return StoreAndForwardRoute(
                source=source, target=target, departure_s=departure_s,
                arrival_s=departure_s, hops=(), epochs_waited=0,
            )
        if self._csr is None:
            self._csr = CsrAdjacency.from_graph(self._graph,
                                                weight=delay_weight)
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
        hops: List[Tuple[float, str, str]] = []
        clock = departure_s
        waits = 0
        for (u, ku), (v, kv) in zip(path[:-1], path[1:]):
            edge = self._graph[(u, ku)][(v, kv)]
            clock += edge["delay_s"]
            if edge["kind"] == "contact":
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
        return self._graph.number_of_nodes()
