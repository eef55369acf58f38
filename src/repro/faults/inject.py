"""The fault injector: replays a schedule against a live network.

The injector owns the mapping from fault events to the network's fault
state.  Elements are *refcounted* by fault id — a satellite held down by
both a plane loss and its own MTBF outage returns to service only when
**both** faults repair, and applying a fault to an element that some other
mechanism already removed (say a bad-actor quarantine that excluded the
provider's fleet before the network was built) is counted and skipped, not
crashed on — no element is ever double-removed.

Scheduling happens in simulated time through
:class:`~repro.simulation.engine.SimulationEngine`: each fail/repair
transition is one engine event, so fault churn interleaves deterministically
with every other simulation activity, and ``--trace`` captures the full
lifecycle via :mod:`repro.obs` spans and counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs as _obs
from repro.faults.model import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    Transition,
    parse_link_target,
)

#: Signature of the optional per-transition hook:
#: ``hook(time_s, transition, injector)``.
TransitionHook = Callable[[float, Transition, "FaultInjector"], None]


class FaultInjector:
    """Applies and repairs faults against an :class:`OpenSpaceNetwork`.

    Args:
        network: The network whose fault state this injector drives.
        tracker: Optional :class:`~repro.faults.metrics.RecoveryTracker`
            notified of every apply/repair edge.
        channel: Optional
            :class:`~repro.reliability.channel.LossyControlChannel`
            notified (via ``on_fault_state_changed``) whenever the fault
            masks move, so cached path-delivery models go stale exactly
            when the network does.
    """

    def __init__(self, network, tracker=None, channel=None):
        self.network = network
        self.tracker = tracker
        self.channel = channel
        self._known_satellites = {
            spec.satellite_id for spec in network.satellites
        }
        self._known_stations = {
            station.station_id for station in network.ground_stations
        }
        self._owners: Dict[str, List[str]] = {}
        for spec in network.satellites:
            self._owners.setdefault(spec.owner, []).append(spec.satellite_id)
        # element id -> fault ids currently holding it down (refcounts).
        self._down_satellites: Dict[str, Set[str]] = {}
        self._down_stations: Dict[str, Set[str]] = {}
        self._down_links: Dict[Tuple[str, str], Set[str]] = {}
        self._active: Dict[str, FaultEvent] = {}
        self.applied_count = 0
        self.repaired_count = 0
        self.skipped_targets = 0

    # -- state ----------------------------------------------------------

    @property
    def active_faults(self) -> List[str]:
        """Ids of faults currently applied, sorted."""
        return sorted(self._active)

    @property
    def failed_satellites(self) -> Set[str]:
        return set(self._down_satellites)

    @property
    def failed_stations(self) -> Set[str]:
        return set(self._down_stations)

    @property
    def failed_links(self) -> Set[Tuple[str, str]]:
        return set(self._down_links)

    def _push_state(self) -> None:
        self.network.set_fault_state(
            failed_satellites=sorted(self._down_satellites),
            failed_stations=sorted(self._down_stations),
            failed_links=sorted(self._down_links),
        )
        if self.channel is not None:
            self.channel.on_fault_state_changed()
        recorder = _obs.active()
        if recorder.enabled:
            recorder.gauge("faults.active", len(self._active))
            recorder.gauge("faults.failed_elements",
                           len(self._down_satellites)
                           + len(self._down_stations)
                           + len(self._down_links))

    def _resolve(self, event: FaultEvent) -> Tuple[
            List[str], List[str], List[Tuple[str, str]], List[str]]:
        """Expand an event into concrete known elements.

        Returns:
            ``(satellites, stations, links, unknown_targets)``; targets
            naming elements this network does not have (already
            quarantined, withdrawn, or simply foreign) land in
            ``unknown_targets`` instead of raising.
        """
        satellites: List[str] = []
        stations: List[str] = []
        links: List[Tuple[str, str]] = []
        unknown: List[str] = []
        if event.kind in (FaultKind.SATELLITE, FaultKind.PLANE):
            for target in event.targets:
                (satellites if target in self._known_satellites
                 else unknown).append(target)
        elif event.kind is FaultKind.GROUND_STATION:
            for target in event.targets:
                (stations if target in self._known_stations
                 else unknown).append(target)
        elif event.kind is FaultKind.ISL_LINK:
            for target in event.targets:
                node_a, node_b = parse_link_target(target)
                if (node_a in self._known_satellites
                        and node_b in self._known_satellites):
                    links.append((node_a, node_b))
                else:
                    unknown.append(target)
        elif event.kind is FaultKind.PROVIDER:
            for provider in event.targets:
                members = self._owners.get(provider)
                if members:
                    satellites.extend(members)
                else:
                    unknown.append(provider)
        return satellites, stations, links, unknown

    # -- transitions ----------------------------------------------------

    def apply(self, event: FaultEvent, now_s: float = 0.0) -> int:
        """Take the event's targets down; returns elements newly failed.

        Idempotent per fault id: re-applying an active fault is a no-op.
        """
        if event.fault_id in self._active:
            return 0
        satellites, stations, links, unknown = self._resolve(event)
        recorder = _obs.active()
        with recorder.span("faults.apply", fault_id=event.fault_id,
                           kind=event.kind.value, sim_time_s=now_s):
            newly_failed = 0
            for sat_id in satellites:
                holders = self._down_satellites.setdefault(sat_id, set())
                if not holders:
                    newly_failed += 1
                holders.add(event.fault_id)
            for station_id in stations:
                holders = self._down_stations.setdefault(station_id, set())
                if not holders:
                    newly_failed += 1
                holders.add(event.fault_id)
            for link in links:
                holders = self._down_links.setdefault(link, set())
                if not holders:
                    newly_failed += 1
                holders.add(event.fault_id)
            self._active[event.fault_id] = event
            self._push_state()
        self.applied_count += 1
        self.skipped_targets += len(unknown)
        if recorder.enabled:
            recorder.count("faults.injected", label=event.kind.value)
            if unknown:
                recorder.count("faults.skipped_targets", len(unknown),
                               label=event.kind.value)
            recorder.event(
                "fault.inject", now_s, subject=event.fault_id,
                fault_kind=event.kind.value, elements=newly_failed,
                targets=len(event.targets),
            )
        if self.tracker is not None:
            self.tracker.on_fault_applied(
                now_s, event,
                elements_failed=len(satellites) + len(stations) + len(links),
                elements_skipped=len(unknown),
            )
        return newly_failed

    def repair(self, event: FaultEvent, now_s: float = 0.0) -> int:
        """Release the event's hold; returns elements newly restored.

        Elements other active faults still hold stay down — the
        no-double-remove guarantee's mirror image: no early resurrection.
        """
        if event.fault_id not in self._active:
            return 0
        recorder = _obs.active()
        with recorder.span("faults.repair", fault_id=event.fault_id,
                           kind=event.kind.value, sim_time_s=now_s):
            restored = 0
            restored += self._release(self._down_satellites, event.fault_id)
            restored += self._release(self._down_stations, event.fault_id)
            restored += self._release(self._down_links, event.fault_id)
            del self._active[event.fault_id]
            self._push_state()
        self.repaired_count += 1
        if recorder.enabled:
            recorder.count("faults.repaired", label=event.kind.value)
            recorder.event(
                "fault.recover", now_s, subject=event.fault_id,
                fault_kind=event.kind.value, elements=restored,
            )
        if self.tracker is not None:
            self.tracker.on_fault_repaired(now_s, event)
        return restored

    @staticmethod
    def _release(down: Dict, fault_id: str) -> int:
        restored = 0
        for element in list(down):
            holders = down[element]
            holders.discard(fault_id)
            if not holders:
                del down[element]
                restored += 1
        return restored

    def failed_elements_of(self, event: FaultEvent) -> Tuple[
            Set[str], Set[Tuple[str, str]]]:
        """Node ids and link pairs an event takes down (for path checks)."""
        satellites, stations, links, _unknown = self._resolve(event)
        return set(satellites) | set(stations), set(links)

    # -- engine wiring --------------------------------------------------

    def schedule_on(self, engine, schedule: FaultSchedule,
                    hook: Optional[TransitionHook] = None,
                    until_s: Optional[float] = None) -> int:
        """Schedule every transition of ``schedule`` as engine events.

        Args:
            engine: A :class:`~repro.simulation.engine.SimulationEngine`.
            schedule: The fault schedule to replay.
            hook: Optional callback run after each transition is applied
                (the runner probes users here to measure recovery).
            until_s: Drop transitions after this time (defaults to the
                schedule's horizon when positive, else unbounded).

        Returns:
            The number of engine events scheduled.
        """
        cutoff = until_s
        if cutoff is None and schedule.horizon_s > 0.0:
            cutoff = schedule.horizon_s
        scheduled = 0
        for transition in schedule.transitions():
            if cutoff is not None and transition.time_s > cutoff:
                continue
            if transition.time_s < engine.now_s:
                raise ValueError(
                    f"transition at {transition.time_s} is in the engine's "
                    f"past (now={engine.now_s})"
                )
            engine.schedule(
                transition.time_s,
                self._transition_action(transition, hook),
                label=f"faults.{transition.phase}",
            )
            scheduled += 1
        return scheduled

    def _transition_action(self, transition: Transition,
                           hook: Optional[TransitionHook]):
        def action() -> None:
            if transition.phase == "fail":
                self.apply(transition.event, now_s=transition.time_s)
            else:
                self.repair(transition.event, now_s=transition.time_s)
            if hook is not None:
                hook(transition.time_s, transition, self)
        return action
