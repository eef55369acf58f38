"""Mega-constellation scale sweep: topology churn and probe latency.

For every swept fleet size this experiment builds a Walker-Delta
constellation, walks one full orbital period in equal epochs, and builds
the network snapshot at each epoch.  Each row reports the topology churn
the snapshot deltas record (edges appeared/disappeared per epoch, churn
fraction, full vs delta-recorded builds) plus a user-visible latency
probe (gateway-to-gateway shortest-path delay).

Every row is a pure function of the arguments — no randomness — so the
sweep prints byte-identical rows at any ``--jobs`` count (the
``scale-smoke`` CI job diffs two runs and a ``--jobs 2`` run).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.parallel import run_grid
from repro.routing.metrics import EdgeCostModel

FLEET_OWNER = "scale-fleet"

#: Latency probe endpoints: a transatlantic gateway pair from the
#: default station network (present in every snapshot's station set).
PROBE_STATIONS = ("gs-virginia", "gs-frankfurt")

#: Raw propagation delay per edge: the snapshot arrays compile the same
#: CSR under this model as the graph view does under ``delay_weight``.
PROBE_COSTS = EdgeCostModel(queue_weight=0.0)


def plane_count_for(satellites: int) -> int:
    """The divisor of ``satellites`` nearest the near-square plane count.

    Walker lattices need ``planes | satellites``; this snaps the
    ``sqrt(N/2)`` heuristic to the closest admissible divisor (ties go
    to the smaller plane count, deterministically).
    """
    if satellites < 1:
        raise ValueError(f"need at least one satellite, got {satellites}")
    target = math.sqrt(satellites / 2.0)
    divisors = [d for d in range(1, satellites + 1) if satellites % d == 0]
    return min(divisors, key=lambda d: (abs(d - target), d))


def _probe_latency_ms(snap) -> float:
    """Shortest-path delay between the probe gateways, NaN if unreachable.

    Routes on the snapshot's array-compiled CSR, so no networkx graph is
    built.
    """
    src, dst = PROBE_STATIONS
    adjacency = snap.csr_adjacency(PROBE_COSTS)
    if src not in adjacency or dst not in adjacency:
        return math.nan
    delay_s = adjacency.single_source(src).distance(src, dst)
    if not math.isfinite(delay_s):
        return math.nan
    return delay_s * 1000.0


def _scale_point(args: tuple) -> Dict:
    """One fleet size, self-contained for process-pool execution."""
    satellites, epochs, max_range_km = args
    planes = plane_count_for(satellites)
    constellation = walker_delta(satellites, planes)
    period_s = next(iter(constellation)).period_s
    times = [k * period_s / epochs for k in range(epochs)]

    fleet = build_fleet(constellation, FLEET_OWNER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network(),
                               max_isl_range_km=max_range_km)

    edge_counts: List[int] = []
    churn: List[float] = []
    latencies: List[float] = []
    for t in times:
        snap = network.snapshot(t)
        edge_counts.append(snap.isl_snapshot.link_count)
        latencies.append(_probe_latency_ms(snap))
        last = network.last_snapshot_delta
        if last is not None and last.isl is not None:
            churn.append(last.isl.churn_fraction)

    stats = network.delta_stats
    reachable = [ms for ms in latencies if ms == ms]
    _obs.active().count("experiment.scale.epochs", len(times))
    return {
        "satellites": int(satellites),
        "planes": int(planes),
        "epochs": int(epochs),
        "period_s": float(period_s),
        "mean_isl_edges": float(sum(edge_counts) / len(edge_counts)),
        "mean_degree": float(
            2.0 * sum(edge_counts) / len(edge_counts) / satellites
        ),
        "churn_mean": float(sum(churn) / len(churn)) if churn else 0.0,
        "churn_max": float(max(churn)) if churn else 0.0,
        "full_builds": int(stats["full_builds"]),
        "delta_builds": int(stats["delta_builds"]),
        "edges_appeared": int(stats["edges_appeared"]),
        "edges_disappeared": int(stats["edges_disappeared"]),
        "probe_latency_ms": (
            float(sum(reachable) / len(reachable)) if reachable
            else math.nan
        ),
        "probe_reachable_epochs": len(reachable),
    }


def scale_sweep(satellite_counts: Sequence[int] = (48, 180),
                epochs: int = 6,
                max_range_km: float = 3000.0,
                jobs: int = 1) -> List[Dict]:
    """Topology churn and probe latency vs constellation size.

    Args:
        satellite_counts: Walker-Delta fleet sizes to sweep.
        epochs: Snapshot epochs spread over one full orbital period.
        max_range_km: Hard ISL range limit.
        jobs: Worker processes; every job count yields identical rows.

    Returns:
        One row dict per fleet size.
    """
    if not satellite_counts:
        raise ValueError("need at least one fleet size to sweep")
    for count in satellite_counts:
        if count < 2:
            raise ValueError(f"need at least two satellites, got {count}")
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    if max_range_km <= 0.0:
        raise ValueError(f"range must be positive, got {max_range_km}")

    points = [
        (int(count), int(epochs), float(max_range_km))
        for count in satellite_counts
    ]
    with _obs.active().span("experiment.scale.sweep", points=len(points)):
        return run_grid(_scale_point, points, jobs=jobs, label="scale")
