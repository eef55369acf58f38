"""Workload generation: user populations and traffic flows.

The paper motivates OpenSpace with users in "regions that are sparsely
populated, experience political instability, or are prone to natural
disasters" — populations here can be drawn uniformly over land-ish
latitudes, clustered around underserved regions, or placed explicitly.
Flows are Poisson arrivals with lognormal sizes (a standard heavy-tailed
traffic shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow.

    Attributes:
        flow_id: Unique identifier.
        user_id: Originating user.
        start_s: Arrival time.
        size_bytes: Transfer size.
        qos_class: Service class name (``"best_effort"``, ``"standard"``,
            ``"premium"``).
    """

    flow_id: str
    user_id: str
    start_s: float
    size_bytes: float
    qos_class: str = "best_effort"


#: Representative underserved regions the paper's introduction motivates
#: (remote communities, disaster-prone and politically unstable areas).
UNDERSERVED_REGIONS: List[Tuple[str, float, float]] = [
    ("rural-kenya", -0.5, 37.5),
    ("amazon-basin", -4.0, -63.0),
    ("sahel", 14.5, 3.0),
    ("himalaya-foothills", 28.0, 84.5),
    ("papua", -5.5, 141.0),
    ("arctic-canada", 66.0, -95.0),
    ("pacific-islands", -17.5, 178.0),
    ("afghan-highlands", 34.5, 67.0),
]


@dataclass
class UserPopulation:
    """A set of user terminals plus per-user demand weights."""

    users: List[UserTerminal] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.weights and len(self.weights) != len(self.users):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.users)} users"
            )
        for weight in self.weights:
            if weight < 0.0:
                raise ValueError(
                    f"demand weights must be >= 0, got {weight}"
                )
        if not self.weights:
            self.weights = [1.0] * len(self.users)

    def __len__(self) -> int:
        return len(self.users)

    def normalized_weights(self) -> np.ndarray:
        weights = np.array(self.weights, dtype=np.float64)
        # Re-check sign here: ``weights`` is a mutable list a caller can
        # rewrite after construction, and a negative entry could slip
        # through the ``total <= 0`` guard and become a negative
        # "probability".
        if weights.size and weights.min() < 0.0:
            raise ValueError(
                f"demand weights must be >= 0, got {weights.min()}"
            )
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("population weights must sum to > 0")
        return weights / total


def uniform_land_users(count: int, rng: np.random.Generator,
                       home_providers: Sequence[str],
                       max_latitude_deg: float = 70.0,
                       min_elevation_deg: float = 10.0) -> UserPopulation:
    """Users spread uniformly over the sphere up to a latitude cap.

    Latitude is drawn area-uniform (``asin`` of a uniform variate) and
    clipped to the inhabited band; home providers round-robin across the
    supplied list so every operator has subscribers everywhere (the
    rampant-roaming regime the paper describes).
    """
    if count < 1:
        raise ValueError(f"need at least one user, got {count}")
    if not home_providers:
        raise ValueError("need at least one home provider")
    users = []
    for index in range(count):
        sin_lat = rng.uniform(
            -math.sin(math.radians(max_latitude_deg)),
            math.sin(math.radians(max_latitude_deg)),
        )
        lat = math.degrees(math.asin(sin_lat))
        lon = float(rng.uniform(-180.0, 180.0))
        users.append(UserTerminal(
            user_id=f"user-{index}",
            location=GeodeticPoint(lat, lon, 0.0),
            home_provider=home_providers[index % len(home_providers)],
            min_elevation_deg=min_elevation_deg,
        ))
    return UserPopulation(users=users)


def underserved_region_users(per_region: int, rng: np.random.Generator,
                             home_providers: Sequence[str],
                             spread_deg: float = 3.0) -> UserPopulation:
    """Users clustered around the motivating underserved regions."""
    if per_region < 1:
        raise ValueError(f"need at least one user per region, got {per_region}")
    users = []
    index = 0
    for region, lat, lon in UNDERSERVED_REGIONS:
        for _ in range(per_region):
            users.append(UserTerminal(
                user_id=f"user-{region}-{index}",
                location=GeodeticPoint(
                    max(-89.0, min(89.0, lat + float(rng.normal(0, spread_deg)))),
                    ((lon + float(rng.normal(0, spread_deg)) + 180.0) % 360.0)
                    - 180.0,
                ),
                home_provider=home_providers[index % len(home_providers)],
            ))
            index += 1
    return UserPopulation(users=users)


class PoissonFlowGenerator:
    """Poisson flow arrivals with lognormal sizes.

    Args:
        population: Users originating traffic (weight-proportional).
        arrival_rate_per_s: Aggregate flow arrival rate.
        mean_flow_mb: Mean flow size in megabytes.
        sigma: Lognormal shape (heavier tail for larger sigma).
        qos_mix: ``(class_name, probability)`` pairs; probabilities must
            sum to 1.
        rng: Seeded generator.
    """

    def __init__(self, population: UserPopulation, arrival_rate_per_s: float,
                 rng: np.random.Generator, mean_flow_mb: float = 20.0,
                 sigma: float = 1.2,
                 qos_mix: Sequence[Tuple[str, float]] = (
                     ("best_effort", 0.6), ("standard", 0.3), ("premium", 0.1),
                 )):
        if arrival_rate_per_s <= 0.0:
            raise ValueError(
                f"arrival rate must be positive, got {arrival_rate_per_s}"
            )
        total_p = sum(p for _, p in qos_mix)
        if abs(total_p - 1.0) > 1e-9:
            raise ValueError(f"QoS mix probabilities sum to {total_p}, not 1")
        self.population = population
        self.arrival_rate_per_s = arrival_rate_per_s
        self.mean_flow_mb = mean_flow_mb
        self.sigma = sigma
        self.qos_mix = list(qos_mix)
        self._rng = rng
        # Lognormal mu chosen so the mean is mean_flow_mb.
        self._mu = math.log(mean_flow_mb * 1e6) - sigma * sigma / 2.0

    def generate(self, duration_s: float) -> List[FlowSpec]:
        """All flows arriving within ``[0, duration_s)``, time-ordered."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        flows: List[FlowSpec] = []
        weights = self.population.normalized_weights()
        class_names = [name for name, _ in self.qos_mix]
        class_probs = [p for _, p in self.qos_mix]
        t = 0.0
        index = 0
        while True:
            t += float(self._rng.exponential(1.0 / self.arrival_rate_per_s))
            if t >= duration_s:
                break
            user = self.population.users[
                int(self._rng.choice(len(self.population), p=weights))
            ]
            size = float(self._rng.lognormal(self._mu, self.sigma))
            qos = str(self._rng.choice(class_names, p=class_probs))
            flows.append(FlowSpec(
                flow_id=f"flow-{index}",
                user_id=user.user_id,
                start_s=t,
                size_bytes=size,
                qos_class=qos,
            ))
            index += 1
        return flows
