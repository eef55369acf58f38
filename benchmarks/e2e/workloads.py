"""The four end-to-end workloads and their output checks.

Each workload is a closed loop of steps: the next step starts when the
previous one returns.  Step 0 is the untimed warm-up; every step's inputs
derive from the workload seed and the step index alone, so one seed
always replays the same inputs.  The harness calls only public
experiment and network APIs, and each workload imports them when it is
built, so a cold start pays for its own imports only.

``check`` runs outside the timed region.  It raises :class:`CheckFailed`
when an output breaks a closed form or a conservation law, and otherwise
returns the step's summary, whose digest the harness compares with the
committed digests of the default seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List

import numpy as np

from repro.orbits.constants import EARTH_POLAR_RADIUS_KM, SPEED_OF_LIGHT_KM_S


class CheckFailed(AssertionError):
    """An output check failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(seed: int, *components) -> int:
    """A stable non-negative 31-bit input seed for one part of a run."""
    text = "/".join(str(part) for part in (seed,) + components)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def _rounded(value):
    """Floats cut to ten significant digits, so a digest ignores
    last-bit differences between numpy builds."""
    if isinstance(value, float):
        return float(f"{value:.10g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(key): _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    if isinstance(value, np.generic):
        return _rounded(value.item())
    return value


def digest(summary) -> str:
    """SHA-256 of a step summary's canonical JSON."""
    text = json.dumps(_rounded(summary), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def min_delay_s(site_a_ecef: np.ndarray, site_b_ecef: np.ndarray) -> float:
    """Least one-way delay between two ground sites over any path.

    Every link in a snapshot clears the Earth, which contains the ball
    of polar radius; the shortest path outside that ball is at least the
    great-circle arc on it between the sites' directions.
    """
    cos_angle = float(np.dot(site_a_ecef, site_b_ecef)
                      / (np.linalg.norm(site_a_ecef)
                         * np.linalg.norm(site_b_ecef)))
    angle = math.acos(max(-1.0, min(1.0, cos_angle)))
    return EARTH_POLAR_RADIUS_KM * angle / SPEED_OF_LIGHT_KM_S


class Workload:
    """Interface: ``step(index)`` is timed; ``check(index, output)`` and
    ``verify(last_index)`` run outside the timed region."""

    def verify(self, last_index: int) -> List[int]:
        """Indices of steps that fail a check needing the whole run."""
        return []


class MegaWalk(Workload):
    """One epoch of a 10,000-satellite fleet per step, 30 s apart."""

    SATELLITES = 10_000
    ISL_RANGE_KM = 3000.0
    SPACING_S = 30.0
    SOURCE, TARGET = "gs-virginia", "gs-frankfurt"

    def __init__(self, seed: int):
        from repro.core.interop import SizeClass, build_fleet
        from repro.core.network import OpenSpaceNetwork
        from repro.experiments.scale import plane_count_for
        from repro.ground.station import default_station_network
        from repro.orbits.walker import walker_delta

        count = self.SATELLITES
        self.start_s = float(derive(seed, "mega_walk", "start") % 86400)
        self.fleet = build_fleet(walker_delta(count, plane_count_for(count)),
                                 "bench-mega", size_class=SizeClass.MEDIUM)
        self.stations = default_station_network()
        self.network = OpenSpaceNetwork(self.fleet, self.stations,
                                        max_isl_range_km=self.ISL_RANGE_KM)
        self.max_degree = {spec.satellite_id: spec.to_isl_node().max_degree
                           for spec in self.fleet}
        sites = {station.station_id: station.location.ecef()
                 for station in self.stations}
        self.min_delay_s = min_delay_s(sites[self.SOURCE], sites[self.TARGET])
        self.snapshot_digests: Dict[int, str] = {}

    def time_s(self, index: int) -> float:
        return self.start_s + self.SPACING_S * index

    def step(self, index: int):
        snap = self.network.snapshot(self.time_s(index))
        paths = snap.csr_adjacency().single_source(self.SOURCE)
        return snap, paths.distance(self.SOURCE, self.TARGET)

    def check(self, index: int, output) -> dict:
        snap, delay_s = output
        require(math.isfinite(delay_s), "probe gateways are disconnected")
        require(delay_s >= self.min_delay_s,
                f"probe delay {delay_s} s beats the great-circle bound "
                f"{self.min_delay_s} s")
        over = [node for node, degree in snap.isl_snapshot.graph.degree()
                if degree > self.max_degree[node]]
        require(not over, f"ISL degree above the maximum at {over[:5]}")
        self.snapshot_digests[index] = snap.digest()
        return {"time_s": snap.time_s, "delay_s": delay_s,
                "isl_links": snap.isl_snapshot.link_count,
                "edges": snap.graph.number_of_edges()}

    def verify(self, last_index: int) -> List[int]:
        """Warm-up and last step against independent full builds.

        Returns the indices whose delta-built digest differs; a step
        that already failed has no digest and is skipped.  Frees the
        walked network first, so the reference builds do not stack on it.
        """
        from repro.core.network import OpenSpaceNetwork

        self.network = None
        reference = OpenSpaceNetwork(
            self.fleet, self.stations, max_isl_range_km=self.ISL_RANGE_KM,
            snapshot_cache_size=0, snapshot_delta=False,
        )
        return [index for index in sorted({0, last_index})
                if index in self.snapshot_digests
                and reference.snapshot(self.time_s(index)).digest()
                != self.snapshot_digests[index]]


class FleetSweep(Workload):
    """One full paper Figure 2(b) per step on the batched engine."""

    def __init__(self, seed: int):
        from repro.experiments.figure2 import (
            DEFAULT_GATEWAY_SITE,
            DEFAULT_USER_SITE,
            figure_2b_latency,
        )

        self.seed = seed
        self.figure_2b_latency = figure_2b_latency
        self.min_delay_ms = 1000.0 * min_delay_s(DEFAULT_USER_SITE.ecef(),
                                                 DEFAULT_GATEWAY_SITE.ecef())

    def step(self, index: int):
        return self.figure_2b_latency(
            trials=8, epochs=48, seed=derive(self.seed, "fleet_sweep", index),
            jobs=1, engine="batched",
        )

    def check(self, index: int, output) -> dict:
        for row in output["series"]:
            require(row["p50"] >= self.min_delay_ms,
                    f"{row['x']} satellites: p50 {row['p50']} ms beats the "
                    f"great-circle bound {self.min_delay_ms} ms")
        for count, reach in output["reachability"].items():
            require(0.0 <= reach <= 1.0,
                    f"{count} satellites: reachability {reach}")
        return output


class DiurnalDemand(Workload):
    """One 1.2 M-user ``demand_sweep`` point per step, one UTC hour each."""

    USERS = 1_200_000

    def __init__(self, seed: int):
        from repro.experiments.demand import demand_sweep

        self.seed = seed
        self.demand_sweep = demand_sweep
        self.first_hour = derive(seed, "diurnal_demand", "hour") % 24

    def step(self, index: int):
        (row,) = self.demand_sweep(
            satellite_counts=(264,),
            hours_utc=(float((self.first_hour + index) % 24),),
            total_users=self.USERS, bands=36, equator_columns=72,
            distribution="uniform_land",
            seed=derive(self.seed, "diurnal_demand", index), jobs=1,
        )
        return row

    def check(self, index: int, output) -> dict:
        require(output["converged"], "fluid fixed point did not converge")
        require(output["users"] == self.USERS,
                f"grid holds {output['users']} users, not {self.USERS}")
        require(0.0 <= output["served_fraction"] <= 1.0,
                f"served fraction {output['served_fraction']}")
        require(output["peak_utilization"] <= 1.0 + 1e-9,
                f"peak utilisation {output['peak_utilization']}")
        return output


class FaultRecovery(Workload):
    """One 66-satellite ``dynamic_resilience_sweep`` scenario per step."""

    def __init__(self, seed: int):
        from repro.experiments.resilience_dynamic import (
            dynamic_resilience_sweep,
        )

        self.seed = seed
        self.sweep = dynamic_resilience_sweep

    def step(self, index: int):
        (row,) = self.sweep(
            mtbf_hours=(1.0,), mttr_s=900.0, horizon_s=3600.0, epochs=24,
            seed=derive(self.seed, "fault_recovery", index), jobs=1,
            engine="batched",
        )
        return row

    def check(self, index: int, output) -> dict:
        require(output["faults_absorbed"] + output["faults_user_affecting"]
                == output["faults_injected"],
                f"absorbed {output['faults_absorbed']} + user-affecting "
                f"{output['faults_user_affecting']} != injected "
                f"{output['faults_injected']}")
        require(0.0 <= output["mean_availability"] <= 1.0,
                f"availability {output['mean_availability']}")
        return output


WORKLOADS = {
    "mega_walk": MegaWalk,
    "fleet_sweep": FleetSweep,
    "diurnal_demand": DiurnalDemand,
    "fault_recovery": FaultRecovery,
}
