"""Diurnal demand sweep: million-user fluid load vs constellation size.

For every ``satellite count x UTC hour`` grid point this sweep builds a
Walker-Delta fleet, aggregates the modeled subscriber population onto an
equal-area ground grid (:mod:`repro.demand.grid`), applies the local-
solar-time diurnal curve and QoS flow mix (:mod:`repro.demand.profile`),
and drives the offered load through the vectorized fluid engine
(:mod:`repro.demand.fluid`) on the snapshot's own arrays: one reverse
search over the snapshot's CSR maps every loaded cell to its serving
gateway (a per-cell search runs only where a route is not provably
unique), then a max-min-fair waterfilling fixed point allocates link
capacity, each cell's access links scaled by its subscriber count.  Each
point reports the congestion headline numbers (served fraction,
mean/peak utilization, p95 queueing-delay inflation) and the settlement
revenue the carried traffic produces (:mod:`repro.demand.congestion`).
The snapshot is never modified; every step, the health sample of an
enabled recorder included, reads its arrays.

Everything is a pure function of the seed — the same sweep re-run, at
any ``--jobs`` count, prints byte-identical rows (the ``demand-smoke``
CI job diffs two runs and a ``--jobs 2`` run).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import NetworkSnapshot, OpenSpaceNetwork
from repro.demand.congestion import peak_statistics, settle_demand
from repro.demand.fluid import run_fluid, weighted_percentile
from repro.demand.grid import DISTRIBUTIONS, GridSpec, population_grid
from repro.demand.profile import offered_load_bps
from repro.experiments.scale import plane_count_for
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.parallel import derive_seed, run_grid
from repro.routing.metrics import DELAY_ONLY

#: Operators whose subscribers the grid cells round-robin across; the
#: fleet itself is owned by a third operator so carried traffic is
#: billable cross-operator transit.
PROVIDERS = ("op-a", "op-b")
FLEET_OWNER = "demand-fleet"


def access_capacity_bps(snap: NetworkSnapshot,
                        cell_users: np.ndarray) -> np.ndarray:
    """Edge capacities with each cell's access links scaled by its users.

    A grid cell's terminal stands in for thousands of independent user
    terminals, each with its own access link; the aggregate access
    capacity is the per-terminal capacity times the cell's subscriber
    count (the congestion question then lives on the shared ISL and
    gateway links, which is the point of the fluid model).  Cells of at
    most one user and every non-access edge keep their capacity.
    ``snap.edges`` is not modified.

    Args:
        snap: A snapshot whose users are the cell terminals.
        cell_users: Subscribers per cell, in the snapshot's user order.

    Returns:
        One capacity per row of ``snap.edges``.
    """
    # Users are the last nodes, and an access link joins one user to one
    # satellite, so the endpoint factors' product is that user's count.
    factor = np.ones(len(snap.nodes))
    factor[len(snap.nodes) - len(snap.nodes_of_kind("user")):] = np.maximum(
        cell_users, 1)
    edges = snap.edges
    return edges.capacity_bps * (factor[edges.u] * factor[edges.v])


def _demand_point(args: tuple) -> Dict:
    """One grid point, self-contained for process-pool execution.

    The population grid is a pure function of ``derive_seed(seed,
    "demand-grid", total_users, distribution)`` — every point of one
    sweep loads the *same* subscriber field, so rows differ only through
    constellation size and local solar time.
    """
    (satellites, hour, row_index, total_users, bands, equator_columns,
     distribution, spread_deg, seed, duration_s) = args
    spec = GridSpec(bands=bands, equator_columns=equator_columns)
    rng = np.random.default_rng(
        derive_seed(seed, "demand-grid", total_users, distribution)
    )
    grid = population_grid(total_users, rng, spec,
                           distribution=distribution,
                           spread_deg=spread_deg)

    constellation = walker_delta(satellites, plane_count_for(satellites))
    fleet = build_fleet(constellation, FLEET_OWNER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())
    time_s = hour * 3600.0
    snap = network.snapshot(time_s, users=grid.terminals(PROVIDERS))

    occupied = grid.occupied
    cell_ids = grid.cell_ids(occupied)
    users = grid.users[occupied]
    demand = offered_load_bps(users, grid.lon_deg[occupied], hour_utc=hour)
    edges = snap.edges._replace(capacity_bps=access_capacity_bps(snap, users))
    result = run_fluid(snap.csr_adjacency(DELAY_ONLY), edges,
                       snap.nodes_of_kind("ground_station"), cell_ids, demand)
    recorder = _obs.active()
    if recorder.enabled:
        recorder.sample_health(time_s, snap, utilization=result.utilization,
                               reset=True)

    stats = peak_statistics(result)
    inflation = result.delay_inflation()
    settlement = settle_demand(result, dict(zip(snap.nodes, snap.owners)),
                               duration_s=duration_s, time_s=time_s)
    return {
        "satellites": int(satellites),
        "hour_utc": float(hour),
        "users": int(grid.total_users),
        "cells": len(cell_ids),
        "routed_cells": int(result.routed.sum()),
        "offered_gbps": float(demand.sum() / 1e9),
        "served_fraction": result.served_fraction,
        "mean_utilization": stats["mean_utilization"],
        "peak_utilization": stats["peak_utilization"],
        "hot_link_share": stats["hot_link_share"],
        "p95_delay_inflation": weighted_percentile(
            inflation, users.astype(np.float64), 0.95
        ),
        "revenue_usd": settlement.revenue_usd,
        "carried_gb": settlement.carried_gb,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def demand_sweep(satellite_counts: Sequence[int] = (24, 66),
                 hours_utc: Sequence[float] = (4.0, 12.0, 20.0),
                 total_users: int = 1_000_000,
                 bands: int = 18,
                 equator_columns: int = 36,
                 distribution: str = "uniform_land",
                 spread_deg: float = 6.0,
                 seed: int = 7,
                 duration_s: float = 3600.0,
                 jobs: int = 1) -> List[Dict]:
    """Peak-hour congestion and revenue vs constellation size.

    Args:
        satellite_counts: Walker-Delta fleet sizes to sweep.
        hours_utc: UTC instants sampled (the diurnal curve converts
            these to local solar time per cell).
        total_users: Modeled subscriber count (conserved exactly onto
            the grid).
        bands: Equal-area latitude bands of the population grid.
        equator_columns: Longitude columns at the equator.
        distribution: ``"uniform_land"`` or ``"underserved"``.
        spread_deg: Cluster spread for the underserved distribution.
        seed: Root seed; the population grid derives from it.
        duration_s: Settlement interval each point's rates sustain.
        jobs: Worker processes; every job count yields identical rows.

    Returns:
        One row dict per ``satellite_counts x hours_utc`` point.

    Raises:
        ValueError: For an empty grid or an out-of-range argument,
            before any fleet is built; for ``"underserved"``, also for a
            spread that is not positive or too narrow to place weight on
            any grid cell.
    """
    if not satellite_counts:
        raise ValueError("satellite_counts must name at least one fleet size")
    if not hours_utc:
        raise ValueError("hours_utc must name at least one hour")
    for count in satellite_counts:
        if count < 1:
            raise ValueError(f"need at least one satellite, got {count}")
    for hour in hours_utc:
        if not 0.0 <= hour < 24.0:
            raise ValueError(f"hour must be in [0, 24), got {hour}")
    for name, value in (("total_users", total_users), ("bands", bands),
                        ("equator_columns", equator_columns)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not duration_s > 0.0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; "
                         f"expected one of {DISTRIBUTIONS}")
    if distribution == "underserved":
        # One throwaway draw runs the grid's own spread and weight checks
        # here rather than inside a worker.
        population_grid(1, np.random.default_rng(0),
                        GridSpec(bands=bands, equator_columns=equator_columns),
                        distribution=distribution, spread_deg=spread_deg)

    points = [
        (int(count), float(hour), row_index, total_users, bands,
         equator_columns, distribution, spread_deg, seed, duration_s)
        for row_index, (count, hour) in enumerate(
            (count, hour)
            for count in satellite_counts for hour in hours_utc)
    ]
    with _obs.active().span("experiment.demand.sweep", points=len(points)):
        return run_grid(_demand_point, points, jobs=jobs, label="demand")
