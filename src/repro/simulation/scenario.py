"""Scenario configuration and execution.

A :class:`Scenario` bundles everything one simulation run needs —
constellation, operators, ground segment, user population, workload — and
produces a :class:`ScenarioResult` with the standard metric set.  The
experiment drivers and examples are thin wrappers over scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.interop import SizeClass, SpacecraftSpec
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import GroundStation, default_station_network
from repro.orbits.walker import (
    WalkerConstellation,
    iridium_like,
    random_constellation,
)
from repro.simulation.metrics import LatencyCollector
from repro.simulation.traffic import UserPopulation, uniform_land_users


@dataclass
class Scenario:
    """One simulation configuration.

    Attributes:
        name: Scenario label (appears in reports).
        satellite_count: Fleet size; satellites beyond the constellation's
            size are ignored.
        operator_names: Operators splitting the fleet round-robin.
        size_mix: Size class per operator (cycled); defaults to MEDIUM.
        user_count: Users in the population.
        constellation: Explicit constellation; defaults to Iridium-like
            when ``satellite_count <= 66`` else a random constellation.
        ground_stations: Gateway network (defaults to the standard 15).
        seed: Root RNG seed.
        sample_times_s: Times at which flows are evaluated.
    """

    name: str = "scenario"
    satellite_count: int = 66
    operator_names: Sequence[str] = ("op-a", "op-b", "op-c")
    size_mix: Sequence[SizeClass] = (SizeClass.MEDIUM,)
    user_count: int = 20
    constellation: Optional[WalkerConstellation] = None
    ground_stations: Optional[List[GroundStation]] = None
    seed: int = 0
    sample_times_s: Sequence[float] = (0.0, 300.0, 600.0)

    def build_fleet(self) -> List[SpacecraftSpec]:
        """The per-operator interleaved fleet."""
        constellation = self.constellation
        if constellation is None:
            if self.satellite_count <= 66:
                constellation = iridium_like()
            else:
                constellation = random_constellation(
                    self.satellite_count, np.random.default_rng(self.seed)
                )
        elements = list(constellation)[: self.satellite_count]
        fleet: List[SpacecraftSpec] = []
        operators = list(self.operator_names)
        sizes = list(self.size_mix)
        from repro.core.interop import (
            large_spacecraft,
            medium_spacecraft,
            small_spacecraft,
        )
        factories = {
            SizeClass.SMALL: small_spacecraft,
            SizeClass.MEDIUM: medium_spacecraft,
            SizeClass.LARGE: large_spacecraft,
        }
        for index, element in enumerate(elements):
            owner = operators[index % len(operators)]
            size = sizes[index % len(sizes)]
            fleet.append(
                factories[size](f"sat-{owner}-{index}", owner, element)
            )
        return fleet

    def build_network(self) -> OpenSpaceNetwork:
        stations = (
            self.ground_stations
            if self.ground_stations is not None
            else default_station_network()
        )
        return OpenSpaceNetwork(self.build_fleet(), stations)

    def build_population(self) -> UserPopulation:
        rng = np.random.default_rng(self.seed + 1)
        return uniform_land_users(
            self.user_count, rng, list(self.operator_names)
        )

    def run(self) -> "ScenarioResult":
        """Evaluate user-to-gateway latency for every user at every time."""
        network = self.build_network()
        population = self.build_population()
        collector = LatencyCollector()
        for time_s in self.sample_times_s:
            snap = network.snapshot(time_s, users=population.users)
            for user in population.users:
                metrics = snap.nearest_ground_station_route(user.user_id)
                collector.record(
                    None if metrics is None else metrics.total_delay_s
                )
        return ScenarioResult(
            scenario_name=self.name,
            satellite_count=self.satellite_count,
            latency=collector,
        )


@dataclass
class ScenarioResult:
    """Standard metric set from one scenario run.

    Attributes:
        scenario_name: The source scenario's label.
        satellite_count: Fleet size used.
        latency: Per-flow latency collector (with reachability).
    """

    scenario_name: str
    satellite_count: int
    latency: LatencyCollector
