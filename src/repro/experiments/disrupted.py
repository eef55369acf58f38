"""Disrupted communications: evacuating IoT telemetry from a blackout.

ROADMAP item 4(b)'s workload, end to end: sensors inside a region whose
terrestrial backhaul has collapsed keep producing telemetry; a regional
blackout (``faults.regional_blackout_event``) takes every gateway within
the radius down for a correlated interval; the :mod:`repro.dtn` plane
carries the bundles out — over the surviving gateways while the region
is dark, and through the drained backlog after repair.

Every grid point is a pure function of ``(seed, point coordinates)``:
the channel seed comes from :func:`repro.parallel.derive_seed`, sensor
placement from a base-seed-only derivation shared across points (so
rows differ only in the swept knobs).  ``repro dtn sweep --jobs N``
therefore prints byte-identical rows, events, and health samples at
every job count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.dtn import Bundle, CustodyTransfer, DtnScheduler
from repro.faults.inject import FaultInjector
from repro.faults.model import FaultSchedule
from repro.faults.schedule import regional_blackout_event, stations_within
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import WalkerConstellation, walker_delta
from repro.parallel import derive_seed, run_grid
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import RetryPolicy
from repro.simulation.engine import SimulationEngine

#: Provider name the sweep's fleet and sensors share.
PROVIDER = "dtn"

#: Blackout epicenter: Nairobi — the default gateway network's only
#: East-African site, so a 1500 km footprint takes down exactly one
#: gateway while the rest of the world stays up.
REGION_LAT_DEG = -1.3
REGION_LON_DEG = 36.8

#: Blackout onset as a fraction of the horizon (bundles exist before,
#: during, and after the outage).
BLACKOUT_START_FRACTION = 0.25


def _fleet_constellation(satellite_count: int) -> WalkerConstellation:
    """The sweep's 6-plane Walker-Delta fleet at 780 km, 66 deg."""
    return walker_delta(satellite_count, 6, phasing=1, altitude_km=780.0,
                        inclination_deg=66.0)


def _make_sensors(count: int, seed: int,
                  spread_deg: float = 2.0) -> List[UserTerminal]:
    """IoT sensors jittered around the region center (seeded placement)."""
    rng = np.random.default_rng(seed)
    sensors = []
    for index in range(count):
        lat = float(np.clip(REGION_LAT_DEG + rng.normal(0.0, spread_deg),
                            -85.0, 85.0))
        lon = float(REGION_LON_DEG + rng.normal(0.0, spread_deg))
        sensors.append(UserTerminal(
            f"sensor-{index:02d}", GeodeticPoint(lat, lon, 0.0),
            PROVIDER, min_elevation_deg=10.0,
        ))
    return sensors


def _make_bundles(sensors: Sequence[UserTerminal], horizon_s: float,
                  interval_s: float, size_bytes: int,
                  ttl_s: float) -> List[Bundle]:
    """Periodic telemetry: one bundle per sensor per interval, priority
    cycling through the three QoS classes."""
    bundles = []
    for sensor_index, sensor in enumerate(sensors):
        emission = 0
        clock = 0.0
        while clock < horizon_s:
            bundles.append(Bundle(
                bundle_id=f"b-{sensor_index:02d}-{emission:03d}",
                source=sensor.user_id,
                destination="",
                size_bytes=size_bytes,
                priority=(sensor_index + emission) % 3,
                ttl_s=ttl_s,
                created_s=clock,
            ))
            emission += 1
            clock += interval_s
    return bundles


def run_disrupted_scenario(network: OpenSpaceNetwork,
                           sensors: Sequence[UserTerminal],
                           schedule: FaultSchedule,
                           epoch_times: Sequence[float],
                           buffer_bytes: float,
                           bundles: Sequence[Bundle],
                           loss: float = 0.0,
                           channel_seed: int = 0,
                           max_attempts: int = 4,
                           timeout_s: float = 0.5) -> Dict:
    """Run one blackout scenario through the DTN plane.

    Args:
        network: Network under test (fault state is reset around the run).
        sensors: Bundle-originating terminals.
        schedule: Faults to inject (typically one regional blackout).
        epoch_times: Scheduler step instants / contact-plan epochs.
        buffer_bytes: Per-node custody budget.
        bundles: The telemetry to evacuate.
        loss: Per-hop control-frame loss rate of the custody channel.
        channel_seed: Seed of the channel's delivery draws.
        max_attempts: Custody retransmission bound.
        timeout_s: Per-attempt custody timeout, seconds.

    Returns:
        Aggregate row (delivery ratio/delay, custody retransmissions,
        buffer drops, TTL expiries, replans, remaining backlog).
    """
    network.clear_fault_state()
    channel = LossyControlChannel(loss_scale=loss, base_loss=loss,
                                  seed=channel_seed, network=network)
    custody = CustodyTransfer(
        channel,
        policy=RetryPolicy(max_attempts=max_attempts, timeout_s=timeout_s),
    )
    scheduler = DtnScheduler(network, sensors, custody, epoch_times,
                             buffer_bytes=buffer_bytes)
    for bundle in bundles:
        scheduler.submit(bundle)
    injector = FaultInjector(network, channel=channel)
    engine = SimulationEngine()
    with _obs.active().span("experiment.disrupted.run",
                            faults=len(schedule), bundles=len(bundles),
                            horizon_s=scheduler.horizon_s):
        # Injector first: equal-time fault transitions must apply before
        # the scheduler step that observes them.
        injector.schedule_on(engine, schedule, until_s=scheduler.horizon_s)
        result = scheduler.run(engine)
    network.clear_fault_state()
    return {
        "created": result.created,
        "delivered": result.delivered,
        "delivery_ratio": result.delivery_ratio,
        "mean_delay_s": result.mean_delay_s,
        "max_delay_s": result.max_delay_s,
        "custody_retx": result.custody_retransmissions,
        "custody_failures": result.custody_failures,
        "buffer_drops": result.dropped,
        "ttl_expired": result.expired,
        "replans": result.replans,
        "backlog": result.buffered,
        "faults_injected": injector.applied_count,
    }


def _disrupted_point(args: tuple) -> Dict:
    """One grid point, self-contained for process-pool execution.

    Rebuilds the fleet, gateway network, and sensors from the point
    alone; the channel seed is point-derived via :func:`derive_seed`
    while sensor placement derives from the base seed only, so every
    row shares one sensor field and rows are identical at any job count.
    """
    (radius_km, duration_s, buffer_kb, horizon_s, step_s, loss,
     sensor_count, satellite_count, interval_s, size_bytes, ttl_s,
     seed) = args
    stations = default_station_network()
    fleet = build_fleet(_fleet_constellation(satellite_count), PROVIDER,
                        SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    sensors = _make_sensors(sensor_count,
                            seed=derive_seed(seed, "disrupted-sensors"))
    epoch_times = [float(t) for t in
                   np.arange(0.0, horizon_s, step_s)]
    bundles = _make_bundles(sensors, horizon_s, interval_s, size_bytes,
                            ttl_s)
    start_s = BLACKOUT_START_FRACTION * horizon_s
    down = stations_within(stations, REGION_LAT_DEG, REGION_LON_DEG,
                           radius_km)
    if down:
        schedule = FaultSchedule(
            events=[regional_blackout_event(
                stations, REGION_LAT_DEG, REGION_LON_DEG, radius_km,
                start_s=start_s, duration_s=duration_s,
            )],
            horizon_s=horizon_s,
        )
    else:
        schedule = FaultSchedule(horizon_s=horizon_s)
    row = run_disrupted_scenario(
        network, sensors, schedule, epoch_times,
        buffer_bytes=buffer_kb * 1024.0, bundles=bundles, loss=loss,
        channel_seed=derive_seed(seed, "disrupted", radius_km,
                                 duration_s, buffer_kb),
    )
    return {
        "radius_km": float(radius_km),
        "blackout_s": float(duration_s),
        "buffer_kb": float(buffer_kb),
        "stations_down": len(down),
        **row,
    }


def disrupted_sweep(radii_km: Sequence[float] = (0.0, 1500.0, 3500.0),
                    durations_s: Sequence[float] = (3600.0,),
                    buffer_kb: Sequence[float] = (8.0, 64.0),
                    horizon_s: float = 7200.0,
                    step_s: float = 600.0,
                    loss: float = 0.05,
                    sensors: int = 6,
                    satellites: int = 24,
                    bundle_interval_s: float = 900.0,
                    bundle_bytes: int = 4096,
                    ttl_s: float = 7200.0,
                    seed: int = 17,
                    jobs: int = 1) -> List[Dict]:
    """Delivery ratio/delay vs blackout radius, duration, buffer budget.

    Each row blacks out every gateway within ``radius_km`` of the
    Nairobi region center for ``duration_s`` (starting a quarter into
    the horizon) and evacuates the region's periodic IoT telemetry
    through the DTN plane under the given per-node buffer budget.

    Args:
        radii_km: Blackout radii to sweep (``0`` = no blackout control).
        durations_s: Blackout durations, seconds.
        buffer_kb: Per-node custody budgets, KiB.
        horizon_s: Simulated period per point.
        step_s: Scheduler epoch length.
        loss: Per-hop control-frame loss rate.
        sensors: IoT sensors in the region.
        satellites: Walker-Delta fleet size (6 planes).
        bundle_interval_s: Telemetry period per sensor.
        bundle_bytes: Bundle payload size.
        ttl_s: Bundle lifetime.
        seed: Root seed.
        jobs: Worker processes; every job count yields identical rows.

    Returns:
        One row dict per grid point, in ``radii_km`` x ``durations_s``
        x ``buffer_kb`` order.

    Raises:
        ValueError: before any point runs, for a negative radius, a
            non-positive duration, buffer budget, step, horizon, bundle
            interval, bundle size or TTL, no sensors, a loss rate outside
            ``[0, 1]``, or a fleet size that is not a positive multiple
            of 6.
    """
    for radius in radii_km:
        if radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
    for duration in durations_s:
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
    for budget in buffer_kb:
        if budget <= 0.0:
            raise ValueError(f"buffer budget must be positive, got {budget}")
    if horizon_s <= 0.0 or step_s <= 0.0 or step_s > horizon_s:
        raise ValueError(
            f"need 0 < step ({step_s}) <= horizon ({horizon_s})"
        )
    if sensors < 1:
        raise ValueError(f"need at least one sensor, got {sensors}")
    if bundle_interval_s <= 0.0:
        raise ValueError(
            f"bundle interval must be positive, got {bundle_interval_s}"
        )
    if bundle_bytes < 1:
        raise ValueError(f"bundle size must be positive, got {bundle_bytes}")
    if not ttl_s > 0.0:
        raise ValueError(f"bundle TTL must be positive, got {ttl_s}")
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {loss}")
    # Build the fleet's layout once: a size the 6-plane Walker cannot
    # hold fails here, not inside a worker.
    _fleet_constellation(satellites)

    points = [
        (float(radius), float(duration), float(budget), float(horizon_s),
         float(step_s), float(loss), int(sensors), int(satellites),
         float(bundle_interval_s), int(bundle_bytes), float(ttl_s),
         int(seed))
        for radius in radii_km
        for duration in durations_s
        for budget in buffer_kb
    ]
    with _obs.active().span("experiment.disrupted.sweep",
                            points=len(points)):
        return run_grid(_disrupted_point, points, jobs=jobs, label="dtn")
