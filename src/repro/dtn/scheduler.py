"""The contact-plan scheduler: bundles across epochs, around faults.

One :class:`DtnScheduler` drives a whole store-and-forward scenario on
the discrete-event engine.  At every epoch it ingests newly created
bundles into their origin buffers, purges expired custody, and walks
each buffered bundle along its earliest-arrival plan from
:class:`~repro.routing.timeexpanded.TimeExpandedRouter` — executing the
hops that fall inside the current epoch via acknowledged
:class:`~repro.dtn.custody.CustodyTransfer` and leaving the rest for
future epochs (the bundle waits in the intermediate node's buffer).

Fault awareness follows the reliability layer's convention: the custody
channel's ``fault_epoch`` is bumped by
:class:`~repro.faults.inject.FaultInjector` on every fault-state change,
and the scheduler rebuilds its contact plan from fresh snapshots
whenever the epoch it planned under is stale.  A regional blackout
therefore removes the gateways from the plan (bundles wait under
custody instead of chasing severed hops), and the repair transition
triggers the replan that drains the backlog.

Wiring order matters for determinism: call
``injector.schedule_on(engine, ...)`` *before*
:meth:`DtnScheduler.schedule_on` so fault transitions that share a
timestamp with a scheduler step fire first (the engine breaks ties by
schedule order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
from repro.dtn.bundle import Bundle, BundleBuffer
from repro.dtn.custody import CustodyTransfer
from repro.obs.events import BUNDLE_CREATE, BUNDLE_DELIVER, BUNDLE_FORWARD
from repro.routing.timeexpanded import StoreAndForwardRoute, TimeExpandedRouter


@dataclass(frozen=True)
class DtnResult:
    """Aggregate outcome of one scheduler run.

    Attributes:
        created: Bundles ingested from submissions.
        delivered: Bundles that reached a destination.
        dropped: Buffer-policy drops (evictions + refusals).
        expired: TTL expiries.
        buffered: Bundles still in custody (or pending) at the end.
        replans: Contact-plan rebuilds beyond the initial build.
        custody_transfers: Successful hop transfers.
        custody_failures: Exhausted/refused hop transfers.
        custody_retransmissions: Extra sends beyond first attempts.
        delays_s: Per-delivery delay (arrival minus creation), in
            delivery order.
    """

    created: int
    delivered: int
    dropped: int
    expired: int
    buffered: int
    replans: int
    custody_transfers: int
    custody_failures: int
    custody_retransmissions: int
    delays_s: Tuple[float, ...]

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of created bundles (NaN when none)."""
        if self.created == 0:
            return float("nan")
        return self.delivered / self.created

    @property
    def mean_delay_s(self) -> float:
        if not self.delays_s:
            return float("nan")
        return sum(self.delays_s) / len(self.delays_s)

    @property
    def max_delay_s(self) -> float:
        if not self.delays_s:
            return float("nan")
        return max(self.delays_s)


class DtnScheduler:
    """Epoch-stepped store-and-forward over a live network.

    Args:
        network: The :class:`~repro.core.network.OpenSpaceNetwork` under
            test; its *current* fault masks shape every (re)plan.
        sensors: User terminals originating bundles; included in every
            snapshot so their access links exist in the contact plan.
        custody: The custody-transfer protocol (owns the lossy channel
            whose ``fault_epoch`` doubles as the replan signal).
        epoch_times: Strictly increasing scheduler step instants; also
            the contact-plan epochs.
        buffer_bytes: Per-node custody budget (``inf`` = unbounded).
        destinations: Delivery sinks for any-gateway bundles; defaults
            to every ground station id.
    """

    def __init__(self, network, sensors, custody: CustodyTransfer,
                 epoch_times: Sequence[float],
                 buffer_bytes: float = float("inf"),
                 destinations: Optional[Sequence[str]] = None):
        epoch_times = [float(t) for t in epoch_times]
        if not epoch_times:
            raise ValueError("need at least one epoch time")
        if any(b <= a for a, b in zip(epoch_times[:-1], epoch_times[1:])):
            raise ValueError("epoch times must be strictly increasing")
        if buffer_bytes <= 0.0:
            raise ValueError(
                f"buffer_bytes must be positive, got {buffer_bytes}"
            )
        self.network = network
        self.sensors = list(sensors)
        self.custody = custody
        self.epoch_times = epoch_times
        step = (epoch_times[-1] - epoch_times[-2]
                if len(epoch_times) > 1 else 60.0)
        self.horizon_s = epoch_times[-1] + step
        self.buffer_bytes = buffer_bytes
        if destinations is None:
            destinations = [
                station.station_id for station in network.ground_stations
            ]
        self.destinations: Tuple[str, ...] = tuple(sorted(destinations))
        if not self.destinations:
            raise ValueError("need at least one destination")
        self._destination_set = frozenset(self.destinations)
        self.buffers: Dict[str, BundleBuffer] = {}
        self._pending: List[Bundle] = []
        self._router: Optional[TimeExpandedRouter] = None
        self._plan_fault_epoch: Optional[int] = None
        self._plan_start = 0
        self._plan_count = 0
        self._first_sample = True
        self.created_count = 0
        self.delivered_count = 0
        self.no_route_count = 0
        self._delays: List[float] = []

    # -- submissions ------------------------------------------------------

    def submit(self, bundle: Bundle) -> None:
        """Queue one bundle; it enters its origin buffer at the first
        epoch at or after its creation time."""
        self._pending.append(bundle)

    def buffer_for(self, node_id: str) -> BundleBuffer:
        """The node's custody buffer (created on first use)."""
        buffer = self.buffers.get(node_id)
        if buffer is None:
            buffer = BundleBuffer(node_id, self.buffer_bytes)
            self.buffers[node_id] = buffer
        return buffer

    # -- engine integration ----------------------------------------------

    def schedule_on(self, engine) -> None:
        """Schedule one scheduler step per epoch on the engine.

        Call after the fault injector's ``schedule_on`` so equal-time
        fault transitions apply before the step that observes them.
        """
        for index, time_s in enumerate(self.epoch_times):
            engine.schedule(time_s, lambda k=index: self.step(k),
                            label="dtn.step")

    def run(self, engine) -> DtnResult:
        """Schedule every step, run the engine out, return the result."""
        self.schedule_on(engine)
        engine.run_until(self.horizon_s)
        return self.result()

    # -- per-epoch work ---------------------------------------------------

    def step(self, k: int) -> None:
        """One epoch: ingest, expire, (re)plan, forward, sample."""
        now = self.epoch_times[k]
        end = (self.epoch_times[k + 1] if k + 1 < len(self.epoch_times)
               else self.horizon_s)
        recorder = _obs.active()

        due = sorted(
            (b for b in self._pending if b.created_s <= now),
            key=lambda b: (b.created_s, b.bundle_id),
        )
        self._pending = [b for b in self._pending if b.created_s > now]
        for bundle in due:
            self.created_count += 1
            if recorder.enabled:
                recorder.count("dtn.bundles.created")
                recorder.event(
                    BUNDLE_CREATE, now, subject=bundle.bundle_id,
                    node=bundle.source, priority=bundle.priority,
                    size=bundle.size_bytes,
                )
            self.buffer_for(bundle.source).offer(bundle, now_s=now)

        for node_id in sorted(self.buffers):
            self.buffers[node_id].purge_expired(now)

        self._ensure_plan(k, recorder)
        # The injector bumps the channel's fault epoch with the network's,
        # so the current plan holds this epoch's snapshot.
        snap = self._router.snapshots[k - self._plan_start]

        moved: Set[str] = set()
        for node_id in sorted(self.buffers):
            buffer = self.buffers[node_id]
            for bundle in buffer.bundles():
                if bundle.bundle_id in moved or bundle.bundle_id not in buffer:
                    continue
                self._forward(bundle, node_id, snap, now, end, moved)

        if recorder.enabled:
            recorder.gauge("dtn.buffer.bundles", float(
                sum(len(b) for b in self.buffers.values())
            ))
            recorder.gauge("dtn.buffer.bytes", float(
                sum(b.used_bytes for b in self.buffers.values())
            ))
            faults_active = (len(self.network.failed_satellites)
                            + len(self.network.failed_stations)
                            + len(self.network.failed_links))
            recorder.sample_health(now, snap,
                                   faults_active=faults_active,
                                   reset=self._first_sample)
            self._first_sample = False

    def _ensure_plan(self, k: int, recorder) -> None:
        """Rebuild the contact plan when the fault state moved."""
        fault_epoch = self.custody.channel.fault_epoch
        if self._router is not None and fault_epoch == self._plan_fault_epoch:
            return
        snapshots = [
            self.network.snapshot(time_s, users=self.sensors)
            for time_s in self.epoch_times[k:]
        ]
        self._router = TimeExpandedRouter(snapshots, horizon_s=self.horizon_s)
        self._plan_fault_epoch = fault_epoch
        self._plan_start = k
        self._plan_count += 1
        if recorder.enabled and self._plan_count > 1:
            recorder.count("dtn.scheduler.replans")

    def _candidates(self, bundle: Bundle) -> Tuple[str, ...]:
        if bundle.destination:
            return (bundle.destination,)
        return self.destinations

    def _best_route(self, bundle: Bundle, node_id: str,
                    now: float) -> Optional[StoreAndForwardRoute]:
        best: Optional[StoreAndForwardRoute] = None
        for destination in self._candidates(bundle):
            route = self._router.earliest_arrival(node_id, destination, now)
            if route is None:
                continue
            if best is None or ((route.arrival_s, route.target)
                                < (best.arrival_s, best.target)):
                best = route
        return best

    def _is_destination(self, bundle: Bundle, node_id: str) -> bool:
        if bundle.destination:
            return node_id == bundle.destination
        return node_id in self._destination_set

    def _deliver(self, bundle: Bundle, node_id: str, arrival_s: float,
                 recorder) -> None:
        self.delivered_count += 1
        delay = arrival_s - bundle.created_s
        self._delays.append(delay)
        if recorder.enabled:
            recorder.count("dtn.bundles.delivered")
            recorder.observe("dtn.delivery_delay_s", delay)
            recorder.event(
                BUNDLE_DELIVER, arrival_s, subject=bundle.bundle_id,
                node=node_id, priority=bundle.priority, delay_s=delay,
            )

    def _forward(self, bundle: Bundle, node_id: str, snap, now: float,
                 end: float, moved: Set[str]) -> None:
        """Walk one bundle along its plan for this epoch's hops."""
        recorder = _obs.active()
        if self._is_destination(bundle, node_id):
            # Origin is a sink (or the plan ended here): instant delivery.
            self.buffers[node_id].remove(bundle.bundle_id)
            moved.add(bundle.bundle_id)
            self._deliver(bundle, node_id, now, recorder)
            return
        route = self._best_route(bundle, node_id, now)
        if route is None:
            # No path inside the plan horizon: hold custody and wait for
            # a replan (e.g. the blackout repair) to open one.
            self.no_route_count += 1
            if recorder.enabled:
                recorder.count("dtn.scheduler.no_route")
            return
        offset = 0.0
        current = node_id
        for hop_time, sender, receiver in route.hops:
            if hop_time >= end or sender != current:
                break
            outcome = self.custody.transfer(
                snap, bundle, sender, receiver, now_s=now + offset,
            )
            if not outcome.ok:
                # Sender keeps custody; the bundle retries next epoch.
                break
            offset += outcome.elapsed_s
            arrival = now + offset
            self.buffers[sender].remove(bundle.bundle_id)
            moved.add(bundle.bundle_id)
            if self._is_destination(bundle, receiver):
                self._deliver(bundle, receiver, arrival, recorder)
                return
            accepted, _ = self.buffer_for(receiver).offer(
                bundle, now_s=arrival,
            )
            if not accepted:
                # The receiver's buffer refused it; the drop (or expiry)
                # was recorded by the buffer itself.
                return
            if recorder.enabled:
                recorder.count("dtn.bundles.forwarded")
                recorder.event(
                    BUNDLE_FORWARD, arrival, subject=bundle.bundle_id,
                    sender=sender, receiver=receiver,
                )
            current = receiver

    # -- results ----------------------------------------------------------

    def result(self) -> DtnResult:
        """The run's aggregate outcome so far."""
        dropped = sum(b.drop_count for b in self.buffers.values())
        expired = sum(b.expire_count for b in self.buffers.values())
        buffered = (sum(len(b) for b in self.buffers.values())
                    + len(self._pending))
        return DtnResult(
            created=self.created_count,
            delivered=self.delivered_count,
            dropped=dropped,
            expired=expired,
            buffered=buffered,
            replans=max(0, self._plan_count - 1),
            custody_transfers=self.custody.transfer_count,
            custody_failures=self.custody.failure_count,
            custody_retransmissions=self.custody.retransmission_count,
            delays_s=tuple(self._delays),
        )
