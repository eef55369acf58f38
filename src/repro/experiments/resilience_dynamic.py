"""Dynamic resilience: fault churn and recovery in simulated time.

Where :func:`repro.experiments.availability.resilience_sweep` deletes a
fleet fraction up front and measures the steady-state damage, this driver
schedules failures *during* the run through the discrete-event engine and
measures how the system heals: availability timelines, the rerouted vs
dropped split for severed flows, time-to-reroute, and realized MTTR.

This is the experimental surface behind the paper's Figure 2(c) caption —
"additional satellites ensure redundancy, such that operational failures
... can be handled efficiently" — measured as the fraction of injected
faults the redundancy margin absorbs without any monitored user losing
service.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES
from repro.faults.inject import FaultInjector
from repro.faults.metrics import RecoveryTracker
from repro.faults.model import FaultSchedule
from repro.faults.schedule import satellite_mtbf_schedule
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.walker import iridium_like
from repro.parallel import run_grid
from repro.simulation.engine import SimulationEngine


def _sample_users(provider: str = "resil-dyn") -> List[UserTerminal]:
    return [
        UserTerminal(f"u-{name}", site, provider, min_elevation_deg=10.0)
        for name, site in SAMPLE_SITES
    ]


def run_fault_scenario(network: OpenSpaceNetwork, schedule: FaultSchedule,
                       users: Sequence[UserTerminal],
                       horizon_s: float, epochs: int = 8,
                       reroute_delay_s: float = 15.0,
                       router=None) -> Dict:
    """Replay one fault schedule and measure recovery.

    The engine carries two event streams: the schedule's fail/repair
    transitions (each followed by an immediate probe of every monitored
    user, classifying severed flows as rerouted or dropped) and periodic
    availability probes at ``epochs`` instants across the horizon.  Every
    probe answers all monitored users with one array pass
    (:meth:`~repro.core.network.OpenSpaceNetwork.gateway_probe_paths`).

    Args:
        network: The network under test (its fault state is reset first).
        schedule: Faults to inject, in simulated time.
        users: Monitored user terminals.
        horizon_s: Simulated period length.
        epochs: Periodic probe count across the horizon.
        reroute_delay_s: Control-plane reconvergence charge for flows
            with an alternate path (see
            :class:`~repro.faults.metrics.RecoveryTracker`).
        router: Optional proactive router to invalidate on failures.

    Returns:
        The tracker summary (see
        :meth:`~repro.faults.metrics.RecoveryTracker.summary`) plus the
        tracker and injector under ``"_tracker"`` / ``"_injector"`` for
        callers that want the raw timelines.
    """
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    if horizon_s <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    network.clear_fault_state()
    probe_times = np.linspace(0.0, horizon_s, epochs, endpoint=False)
    tracker = RecoveryTracker(reroute_delay_s=reroute_delay_s,
                              horizon_s=horizon_s)
    injector = FaultInjector(network, tracker=tracker, router=router)
    sim = SimulationEngine()
    # The scenario's first probe establishes a fresh health-plane diff
    # baseline, so sweeps sample identically whether this scenario shares
    # a recorder with earlier points (serial) or owns one (a worker).
    first_sample = [True]

    def probe_all(time_s: float) -> None:
        paths = network.gateway_probe_paths(time_s, users)
        for user in users:
            tracker.record_probe(time_s, user.user_id, paths[user.user_id])
        recorder = _obs.active()
        if recorder.enabled:
            recorder.sample_health(
                time_s, network.snapshot(time_s).graph,
                faults_active=len(injector.active_faults),
                reset=first_sample[0],
            )
            first_sample[0] = False

    def on_transition(time_s: float, transition, _injector) -> None:
        if transition.event.duration_s == 0.0:
            # Instant repair (MTTR=0): fail and repair run at the same
            # instant, so the net state change is nil — probing either
            # edge would charge a phantom outage (or skew the sampled
            # availability toward fault times) for a fault that never
            # existed for any positive simulated duration.
            return
        if transition.phase == "fail":
            nodes, links = injector.failed_elements_of(transition.event)
            paths = network.gateway_probe_paths(time_s, users)
            for user in users:
                tracker.probe_after_fault(
                    time_s, transition.event, nodes, links, user.user_id,
                    paths[user.user_id],
                )
        else:
            probe_all(time_s)

    with _obs.active().span("experiment.resilience_dynamic.run",
                            faults=len(schedule), horizon_s=horizon_s):
        injector.schedule_on(sim, schedule, hook=on_transition,
                             until_s=horizon_s)
        for time_s in probe_times:
            sim.schedule(float(time_s),
                         lambda t=float(time_s): probe_all(t),
                         label="faults.probe")
        sim.run_until(horizon_s)

    result = tracker.summary()
    result["_tracker"] = tracker
    result["_injector"] = injector
    return result


def _dynamic_resilience_point(args: tuple) -> Dict:
    """One sweep row, self-contained for process-pool execution.

    Builds its own network so the point is a pure function of its args;
    the schedule seed (``seed + 7919 * index``) matches what the serial
    sweep has always used, so rows are unchanged at any job count.
    """
    mtbf_h, index, mttr_s, horizon_s, epochs, seed, reroute_delay_s = args
    stations = default_station_network()
    fleet = build_fleet(iridium_like(), "resil-dyn", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    satellite_ids = [spec.satellite_id for spec in fleet]
    users = _sample_users()
    schedule = satellite_mtbf_schedule(
        satellite_ids, horizon_s, mtbf_s=mtbf_h * 3600.0,
        mttr_s=mttr_s, seed=seed + 7919 * index,
    )
    result = run_fault_scenario(
        network, schedule, users, horizon_s=horizon_s,
        epochs=epochs, reroute_delay_s=reroute_delay_s,
    )
    row = {
        key: value for key, value in result.items()
        if not key.startswith("_")
    }
    row["mtbf_h"] = float(mtbf_h)
    return row


def dynamic_resilience_sweep(mtbf_hours: Sequence[float] = (1.0, 3.0, 12.0),
                             mttr_s: Optional[float] = 900.0,
                             horizon_s: float = 7200.0,
                             epochs: int = 8,
                             seed: int = 43,
                             reroute_delay_s: float = 15.0,
                             jobs: int = 1,
                             engine: str = "batched") -> List[Dict]:
    """Recovery metrics vs failure intensity on the reference fleet.

    Each row injects an independent per-satellite MTBF/MTTR failure
    process into the 66-satellite Walker-Star reference fleet and reports
    what the redundancy margin absorbed.  Smaller MTBF = harsher regime.

    Determinism: the per-row schedule seed is derived from ``seed`` and
    the row index, so the full sweep is reproducible from one seed.

    Args:
        mtbf_hours: Per-satellite mean time between failures, in hours.
        mttr_s: Mean time to repair, seconds; ``0`` repairs instantly
            (the no-outage control), ``None`` makes failures permanent.
        horizon_s: Simulated period per row.
        epochs: Periodic availability probes per row.
        seed: Root seed.
        reroute_delay_s: Control-plane reconvergence charge.
        jobs: Worker processes for the row fan-out; every job count
            yields identical rows.
        engine: The probe engine; ``"batched"`` (one array pass per
            probe instant, see :func:`run_fault_scenario`) is its only
            value.

    Returns:
        Rows of ``{"mtbf_h", "faults_injected", "faults_absorbed",
        "flows_rerouted", "flows_dropped", "mean_availability",
        "mean_time_to_reroute_s", "observed_mttr_s", ...}``.

    Raises:
        ValueError: before any point runs, for no epochs, a non-positive
            horizon or MTBF, a negative reroute delay, or an engine other
            than ``"batched"``.
    """
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    if horizon_s <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    if engine != "batched":
        raise ValueError(f"unknown engine {engine!r}; the only engine is "
                         "'batched'")
    # The tracker rejects a negative reroute delay here, not in a worker.
    RecoveryTracker(reroute_delay_s=reroute_delay_s, horizon_s=horizon_s)
    points = []
    for index, mtbf_h in enumerate(mtbf_hours):
        if mtbf_h <= 0.0:
            raise ValueError(f"MTBF must be positive, got {mtbf_h}")
        points.append((float(mtbf_h), index, mttr_s, horizon_s, epochs,
                       seed, reroute_delay_s))
    with _obs.active().span("experiment.resilience_dynamic.sweep",
                            points=len(points)):
        return run_grid(_dynamic_resilience_point, points, jobs=jobs,
                        label="faults")
