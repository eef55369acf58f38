"""Availability and resilience experiments (paper §4).

Two claims beyond the Figure 2 curves:

* "the critical mass needed for such a system to achieve global coverage
  and **reliable performance**" — :func:`availability_sweep` measures the
  fraction of time sample users actually have a service path, vs fleet
  size;
* "additional satellites ensure redundancy, such that **operational
  failures**, load balancing, and range cutoffs ... can be handled
  efficiently" (Figure 2(c) caption) — :func:`resilience_sweep` kills a
  growing fraction of the fleet and measures how service degrades, with
  and without the redundancy margin.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like, random_constellation

#: Sample users spanning latitudes (equator to polar).
SAMPLE_SITES = [
    ("equatorial", GeodeticPoint(-1.29, 36.82)),
    ("mid-latitude", GeodeticPoint(45.0, 10.0)),
    ("high-latitude", GeodeticPoint(65.0, -20.0)),
]


def _service_availability(network: OpenSpaceNetwork,
                          users: Sequence[UserTerminal],
                          times_s: Sequence[float]) -> List[float]:
    """Fraction of sampled instants each user can reach any gateway.

    One :meth:`~repro.core.network.OpenSpaceNetwork.gateway_probe_paths`
    call answers every user of one instant, on one snapshot build.
    """
    served = [0] * len(users)
    for time_s in times_s:
        paths = network.gateway_probe_paths(
            network.snapshot(float(time_s)), users)
        for index, user in enumerate(users):
            if paths[user.user_id] is not None:
                served[index] += 1
    return [count / len(times_s) for count in served]


def availability_sweep(fleet_sizes: Sequence[int] = (12, 24, 40, 55, 66),
                       epochs: int = 8,
                       seed: int = 37,
                       include_structured: bool = True) -> List[Dict]:
    """Service availability vs fleet size for the sample users.

    Fleets are random constellations (the paper's methodology); each is
    sampled at ``epochs`` instants over one orbital period plus Earth
    rotation.  A final row evaluates the *structured* Walker Star fleet at
    66 satellites — quantifying how much deliberate constellation design
    buys over random placement at the same size.

    Returns:
        Rows of ``{"satellites", "layout", "<site>_availability"...,
        "mean"}``.
    """
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    rng = np.random.default_rng(seed)
    stations = default_station_network()
    times = np.linspace(0.0, 7200.0, epochs, endpoint=False)
    users = [UserTerminal(f"u-{name}", site, "avail", min_elevation_deg=10.0)
             for name, site in SAMPLE_SITES]
    rows = []

    def evaluate(constellation, size, layout):
        fleet = build_fleet(constellation, "avail", SizeClass.MEDIUM)
        network = OpenSpaceNetwork(fleet, stations)
        row: Dict = {"satellites": size, "layout": layout}
        values = _service_availability(network, users, times)
        for (name, _site), availability in zip(SAMPLE_SITES, values):
            row[f"{name}_availability"] = availability
        row["mean"] = float(np.mean(values))
        return row

    for size in fleet_sizes:
        rows.append(evaluate(random_constellation(size, rng), size, "random"))
    if include_structured:
        rows.append(evaluate(iridium_like(), 66, "walker-star"))
    return rows


def resilience_sweep(failure_fractions: Sequence[float] = (
                         0.0, 0.1, 0.2, 0.3, 0.5),
                     epochs: int = 4,
                     seed: int = 41) -> List[Dict]:
    """Graceful degradation under satellite failures (Fig 2(c) caption).

    Starts from the 66-satellite reference fleet (which carries
    redundancy beyond bare coverage) and fails a random fraction;
    availability at the sample sites shows how much failure the margin
    absorbs before service collapses.

    This is the *static* mode of the :mod:`repro.faults` machinery: each
    fraction becomes one permanent, correlated satellite outage applied
    at t=0 through a :class:`~repro.faults.inject.FaultInjector`, so the
    network under test is the full fleet with a fault mask rather than a
    pre-pruned copy.  The failed-index draws are unchanged from the
    original implementation, so seeded results carry over exactly.  For
    failures arriving *during* the run (with repair), see
    :func:`repro.experiments.resilience_dynamic.dynamic_resilience_sweep`.

    Returns:
        Rows of ``{"failed_fraction", "surviving", "mean_availability"}``.
    """
    from repro.faults.inject import FaultInjector
    from repro.faults.schedule import satellite_outage_event

    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    rng = np.random.default_rng(seed)
    stations = default_station_network()
    constellation = iridium_like()
    full_fleet = build_fleet(constellation, "resil", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(full_fleet, stations)
    times = np.linspace(0.0, 7200.0, epochs, endpoint=False)
    users = [UserTerminal(f"u-{name}", site, "resil", min_elevation_deg=10.0)
             for name, site in SAMPLE_SITES]
    rows = []
    for fraction in failure_fractions:
        if not 0.0 <= fraction < 1.0:
            raise ValueError(
                f"failure fraction must be in [0, 1), got {fraction}"
            )
        failed_count = int(round(fraction * len(full_fleet)))
        failed = set(
            rng.choice(len(full_fleet), size=failed_count, replace=False)
        ) if failed_count else set()
        network.clear_fault_state()
        injector = FaultInjector(network)
        if failed:
            injector.apply(satellite_outage_event(
                [full_fleet[int(index)].satellite_id
                 for index in sorted(failed)],
                fault_id=f"static-loss-{fraction:g}",
            ))
        values = _service_availability(network, users, times)
        rows.append({
            "failed_fraction": fraction,
            "surviving": len(full_fleet) - len(failed),
            "mean_availability": float(np.mean(values)),
        })
    network.clear_fault_state()
    return rows
