"""Control-plane reliability under lossy signaling and ISL flaps.

The association/authentication story of the paper's Section 2 forwards
RADIUS exchanges over ISLs; this sweep measures what that protocol is
worth when those ISLs drop control frames and flap.  For every point of
a ``loss rate x fault intensity`` grid it replays a seeded ISL-flap
schedule through the discrete-event engine and, at periodic probe
instants, runs each monitored user's full association twice:

* through :class:`~repro.core.association.ReliableAssociationProtocol`
  (lossy channel, retries with backoff, circuit breakers, anchor and
  candidate fallback), and
* through the perfect-delivery baseline protocol on the same snapshot,

reporting auth success rates, the realized attempt counts, and the
association-latency inflation the retry machinery costs.  Everything is
a pure function of the seed: the same sweep re-run prints byte-identical
rows (the ``reliability-smoke`` CI job diffs two runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.association import (
    AssociationProtocol,
    ReliableAssociationProtocol,
)
from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES
from repro.faults.inject import FaultInjector
from repro.faults.model import FaultSchedule
from repro.faults.schedule import link_flap_schedule
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.parallel import run_grid
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import (
    CircuitBreakerRegistry,
    ReliableExchange,
    RetryPolicy,
)
from repro.security.auth import RadiusServer
from repro.simulation.engine import SimulationEngine
from repro.orbits.walker import iridium_like

#: Provider name the sweep's fleet, users, and RADIUS realm share.
PROVIDER = "relia"


def _flap_links(network: OpenSpaceNetwork,
                fraction: float) -> List[Tuple[str, str]]:
    """A deterministic sample of the epoch-0 ISL set to flap."""
    isl = network.snapshot(0.0).isl_snapshot
    names = isl.node_ids
    edges = sorted(
        tuple(sorted((names[a], names[b])))
        for a, b in zip(isl.links.node_a.tolist(), isl.links.node_b.tolist())
    )
    if not edges or fraction <= 0.0:
        return []
    return edges[::round(1.0 / fraction)]


def _make_users() -> List[UserTerminal]:
    return [
        UserTerminal(f"u-{name}", site, PROVIDER, min_elevation_deg=10.0)
        for name, site in SAMPLE_SITES
    ]


def _make_server(users: Sequence[UserTerminal]) -> RadiusServer:
    server = RadiusServer(PROVIDER, b"relia-shared-secret")
    for user in users:
        server.enroll(user.user_id, b"pw-" + user.user_id.encode())
    return server


def run_reliability_scenario(
        network: OpenSpaceNetwork, schedule: FaultSchedule,
        users: Sequence[UserTerminal], horizon_s: float,
        probes: int, loss: float, policy: RetryPolicy,
        channel_seed: int = 0,
        breaker_threshold: int = 2,
        breaker_recovery_s: float = 300.0) -> Dict:
    """Replay one flap schedule and probe associations along the way.

    Args:
        network: Network under test (fault state is reset first).
        schedule: ISL-flap (or any) fault schedule to inject.
        users: Monitored terminals; each is probed at every instant.
        horizon_s: Simulated period.
        probes: Periodic association probes across the horizon.
        loss: Per-hop control-frame loss rate (also scales the
            capacity-derived loss of thin links).
        policy: Retry policy for the auth exchanges.
        channel_seed: Seed of the channel's delivery draws.
        breaker_threshold: Consecutive failures before a breaker opens.
        breaker_recovery_s: Breaker open duration.

    Returns:
        Aggregate row (success rates, attempts, latency inflation,
        degraded/breaker counters).
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    if horizon_s <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    network.clear_fault_state()

    stations = network.ground_stations
    anchor = stations[0].station_id
    fallbacks = [station.station_id for station in stations[1:3]]
    server = _make_server(users)
    baseline_server = _make_server(users)

    channel = LossyControlChannel(loss_scale=loss, base_loss=loss,
                                  seed=channel_seed, network=network)
    breakers = CircuitBreakerRegistry(failure_threshold=breaker_threshold,
                                      recovery_time_s=breaker_recovery_s)
    exchange = ReliableExchange(policy, breakers, name="auth")
    protocol = ReliableAssociationProtocol(
        radius_servers={PROVIDER: server},
        auth_anchors={PROVIDER: anchor},
        channel=channel, exchange=exchange,
        fallback_anchors={PROVIDER: fallbacks},
    )
    baseline = AssociationProtocol(
        radius_servers={PROVIDER: baseline_server},
        auth_anchors={PROVIDER: anchor},
    )
    baseline_users = {
        user.user_id: UserTerminal(user.user_id, user.location,
                                   user.home_provider,
                                   min_elevation_deg=user.min_elevation_deg)
        for user in users
    }

    injector = FaultInjector(network, channel=channel)
    engine = SimulationEngine()
    stats = {
        "attempts": 0, "successes": 0, "baseline_successes": 0,
        "rtt_sum_s": 0.0, "baseline_rtt_sum_s": 0.0, "paired": 0,
        "degraded": 0, "probed": 0,
    }

    def probe(time_s: float) -> None:
        snap = network.snapshot(time_s)
        evaluator = BeaconEvaluator(min_elevation_deg=10.0,
                                    require_free_slot=False)
        for spec in network.satellites:
            if spec.satellite_id in network.failed_satellites:
                continue
            evaluator.receive(Beacon.from_spec(spec, time_s))
        for user in users:
            password = b"pw-" + user.user_id.encode()
            result = protocol.associate(user, snap, evaluator,
                                        time_s, password)
            reference = baseline.associate(
                baseline_users[user.user_id], snap, evaluator,
                time_s, password,
            )
            stats["probed"] += 1
            stats["attempts"] += result.auth_attempts
            if result.succeeded:
                stats["successes"] += 1
            if reference.succeeded:
                stats["baseline_successes"] += 1
            if result.degraded_mode:
                stats["degraded"] += 1
            if result.succeeded and reference.succeeded:
                stats["paired"] += 1
                stats["rtt_sum_s"] += result.auth_round_trip_s
                stats["baseline_rtt_sum_s"] += reference.auth_round_trip_s

    with _obs.active().span("experiment.reliability.run",
                            faults=len(schedule), loss=loss,
                            horizon_s=horizon_s):
        injector.schedule_on(engine, schedule, until_s=horizon_s)
        for time_s in np.linspace(0.0, horizon_s, probes, endpoint=False):
            engine.schedule(float(time_s),
                            lambda t=float(time_s): probe(t),
                            label="reliability.probe")
        engine.run_until(horizon_s)
    breakers.record_gauges()
    network.clear_fault_state()

    probed = max(1, stats["probed"])
    inflation = float("nan")
    if stats["paired"] > 0 and stats["baseline_rtt_sum_s"] > 0.0:
        inflation = stats["rtt_sum_s"] / stats["baseline_rtt_sum_s"]
    breaker_opens = sum(
        breakers.breaker(key).open_count for key in sorted(
            dict(breakers.states())
        )
    )
    return {
        "probes": stats["probed"],
        "auth_success_rate": stats["successes"] / probed,
        "baseline_success_rate": stats["baseline_successes"] / probed,
        "mean_attempts": stats["attempts"] / probed,
        "latency_inflation": inflation,
        "degraded_associations": stats["degraded"],
        "breaker_opens": breaker_opens,
        "exchange_failures": exchange.failure_count,
        "channel_loss_rate": channel.loss_rate,
        "faults_injected": injector.applied_count,
    }


def _reliability_point(args: tuple) -> Dict:
    """One grid point, self-contained for process-pool execution.

    Rebuilds the reference network and flap-link sample (both pure
    functions of their inputs) so the point depends on nothing shared;
    sub-seeds (``seed + 31 * row``, ``seed + 101 * row``) match the
    serial sweep's historical derivation, keeping rows byte-identical
    at any job count.
    """
    (loss, mtbf_h, row_index, horizon_s, probes, seed, mttr_s,
     flap_fraction, policy) = args
    stations = default_station_network()
    fleet = build_fleet(iridium_like(), PROVIDER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    users = _make_users()
    links = _flap_links(network, flap_fraction)
    if mtbf_h > 0.0 and links:
        schedule = link_flap_schedule(
            links, horizon_s, mtbf_s=mtbf_h * 3600.0,
            mttr_s=mttr_s, seed=seed + 31 * row_index,
        )
    else:
        schedule = FaultSchedule(horizon_s=horizon_s)
    result = run_reliability_scenario(
        network, schedule, users, horizon_s=horizon_s,
        probes=probes, loss=loss, policy=policy,
        channel_seed=seed + 101 * row_index,
    )
    row = {"loss": float(loss), "flap_mtbf_h": float(mtbf_h)}
    row.update(result)
    return row


def reliability_sweep(loss_rates: Sequence[float] = (0.0, 0.05, 0.2),
                      flap_mtbf_hours: Sequence[float] = (0.0, 0.5),
                      horizon_s: float = 1800.0,
                      probes: int = 4,
                      seed: int = 11,
                      mttr_s: Optional[float] = 240.0,
                      flap_fraction: float = 0.25,
                      max_attempts: int = 4,
                      timeout_s: float = 0.5,
                      jobs: int = 1) -> List[Dict]:
    """Auth success and latency inflation vs loss rate x fault intensity.

    Args:
        loss_rates: Per-hop control-frame loss probabilities to sweep.
        flap_mtbf_hours: Per-link flap MTBF points, hours; ``0`` injects
            no faults (the loss-only axis).
        horizon_s: Simulated period per grid point.
        probes: Association probes per grid point.
        seed: Root seed; every grid point derives its own sub-seeds.
        mttr_s: Flap repair time, seconds (None = permanent cuts).
        flap_fraction: Fraction of the epoch-0 ISL set that flaps, in
            ``[0, 1]``.
        max_attempts: Retransmission bound of the auth exchanges.
        timeout_s: Per-attempt timeout of the auth exchanges.
        jobs: Worker processes for the grid fan-out; every job count
            yields identical rows.

    Returns:
        One row dict per grid point, in ``loss_rates`` x
        ``flap_mtbf_hours`` order, each carrying the scenario aggregates
        plus the ``loss`` / ``flap_mtbf_h`` coordinates.

    Raises:
        ValueError: before any point runs, for no probes, a non-positive
            horizon, a loss rate or flap fraction outside ``[0, 1]``, a
            negative flap MTBF, or a retry policy
            :class:`~repro.reliability.exchange.RetryPolicy` rejects.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    if horizon_s <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    for loss in loss_rates:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss}")
    for mtbf_h in flap_mtbf_hours:
        if mtbf_h < 0.0:
            raise ValueError(f"flap MTBF must be >= 0, got {mtbf_h}")
    if not 0.0 <= flap_fraction <= 1.0:
        raise ValueError(
            f"flap fraction must be in [0, 1], got {flap_fraction}")
    policy = RetryPolicy(max_attempts=max_attempts, timeout_s=timeout_s)

    points = [
        (float(loss), float(mtbf_h), row_index, horizon_s, probes, seed,
         mttr_s, flap_fraction, policy)
        for row_index, (loss, mtbf_h) in enumerate(
            (loss, mtbf_h)
            for loss in loss_rates for mtbf_h in flap_mtbf_hours)
    ]
    with _obs.active().span("experiment.reliability.sweep",
                            points=len(points)):
        return run_grid(_reliability_point, points, jobs=jobs,
                        label="reliability")
