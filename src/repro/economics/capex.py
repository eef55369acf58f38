"""Satellite capital-cost model.

"Manufacturing and launching satellites poses a significant cost, due to
cost of materials, the expertise required for designing and building
hardware and software systems, paying for licensing requirements, and
launching and maneuvering satellites into the desired orbit.  As an
example of licensing requirements, the FCC has proposed small satellite
regulatory fees of about $12,145."

The model prices a spacecraft from its spec (bus class + terminal bill of
materials, launch mass, licensing) and aggregates constellation budgets —
the numbers behind the paper's argument that collaboration lowers the
entry barrier versus each small firm buying global coverage alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.interop import SizeClass, SpacecraftSpec

#: The paper's cited FCC small-satellite regulatory fee.
FCC_SMALLSAT_FEE_USD = 12_145.0

#: Bus (structure, power, ADCS, OBC, integration) cost by size class.
_BUS_COST_USD: Dict[SizeClass, float] = {
    SizeClass.SMALL: 350_000.0,
    SizeClass.MEDIUM: 2_500_000.0,
    SizeClass.LARGE: 9_000_000.0,
}

#: Dry bus mass by size class, kg (terminals add their own mass).
_BUS_MASS_KG: Dict[SizeClass, float] = {
    SizeClass.SMALL: 12.0,
    SizeClass.MEDIUM: 150.0,
    SizeClass.LARGE: 700.0,
}


@dataclass(frozen=True)
class SatelliteCostModel:
    """Pricing assumptions.

    Attributes:
        launch_cost_per_kg: Rideshare launch price (Falcon-9-class
            rideshare runs ~$5,500-6,500/kg).
        licensing_fee: Regulatory fee per spacecraft (paper's FCC figure).
        integration_overhead: Fraction of hardware cost spent on assembly,
            integration, and test.
        annual_operations_per_sat: Yearly ground-ops cost per spacecraft.
    """

    launch_cost_per_kg: float = 6_000.0
    licensing_fee: float = FCC_SMALLSAT_FEE_USD
    integration_overhead: float = 0.15
    annual_operations_per_sat: float = 100_000.0

    def hardware_cost(self, spec: SpacecraftSpec) -> float:
        """Bus + terminal bill of materials."""
        cost = _BUS_COST_USD[spec.size_class]
        for terminal in spec.isl_terminals:
            cost += terminal.unit_cost_usd
        if spec.ground_terminal is not None:
            cost += spec.ground_terminal.unit_cost_usd
        return cost

    def launch_mass_kg(self, spec: SpacecraftSpec) -> float:
        """Wet mass: bus plus every terminal."""
        mass = _BUS_MASS_KG[spec.size_class]
        for terminal in spec.isl_terminals:
            mass += terminal.mass_kg
        if spec.ground_terminal is not None:
            mass += spec.ground_terminal.mass_kg
        return mass


@dataclass
class ConstellationBudget:
    """Aggregated budget for a fleet.

    Attributes:
        fleet_size: Number of spacecraft.
        hardware_usd: Total hardware cost.
        launch_usd: Total launch cost.
        licensing_usd: Total regulatory fees.
        total_usd: All-in capital cost.
        annual_operations_usd: Recurring yearly cost.
    """

    fleet_size: int
    hardware_usd: float
    launch_usd: float
    licensing_usd: float
    total_usd: float
    annual_operations_usd: float


def constellation_budget(fleet: Sequence[SpacecraftSpec],
                         model: SatelliteCostModel = SatelliteCostModel()) -> ConstellationBudget:
    """Price a whole fleet under a cost model."""
    hardware = sum(
        model.hardware_cost(s) * (1.0 + model.integration_overhead)
        for s in fleet
    )
    launch = sum(
        model.launch_mass_kg(s) * model.launch_cost_per_kg for s in fleet
    )
    licensing = model.licensing_fee * len(fleet)
    return ConstellationBudget(
        fleet_size=len(fleet),
        hardware_usd=hardware,
        launch_usd=launch,
        licensing_usd=licensing,
        total_usd=hardware + launch + licensing,
        annual_operations_usd=model.annual_operations_per_sat * len(fleet),
    )


def entry_cost_comparison(solo_fleet: Sequence[SpacecraftSpec],
                          shared_fleet: Sequence[SpacecraftSpec],
                          participant_count: int,
                          model: SatelliteCostModel = SatelliteCostModel()) -> Dict[str, float]:
    """Entry cost: going it alone vs a share of a federated fleet.

    The paper's core economic claim: a small firm cannot afford the
    all-or-nothing constellation a monolith needs, but can afford its
    share of a collaboratively assembled one.

    Args:
        solo_fleet: The fleet a firm would need for viable solo service.
        shared_fleet: The collectively assembled OpenSpace fleet.
        participant_count: Firms sharing the federated fleet's cost.

    Returns:
        ``{"solo_usd", "shared_total_usd", "per_participant_usd",
        "savings_factor"}``.
    """
    if participant_count < 1:
        raise ValueError(
            f"need at least one participant, got {participant_count}"
        )
    solo = constellation_budget(solo_fleet, model).total_usd
    shared = constellation_budget(shared_fleet, model).total_usd
    per_participant = shared / participant_count
    return {
        "solo_usd": solo,
        "shared_total_usd": shared,
        "per_participant_usd": per_participant,
        "savings_factor": solo / per_participant if per_participant else float("inf"),
    }
