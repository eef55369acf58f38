"""Spacecraft power budgets for ISL establishment.

The paper: "given the power cost of executing rotations for ISLs and
establishing those links, satellites may have power consumption constraints
that limit the number of ISLs they can establish and the size of data
transfers they can facilitate."  This module models that constraint: an
energy budget replenished by solar generation and drained by housekeeping
and active ISL terminals, with a ceiling on concurrent ISLs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PowerBudget:
    """A spacecraft's electrical power state.

    Attributes:
        battery_capacity_wh: Usable battery capacity.
        charge_wh: Current stored energy.
        solar_generation_w: Orbit-average generation (eclipse-averaged).
        bus_load_w: Constant housekeeping load.
        max_concurrent_isls: Hard limit on simultaneously active ISLs
            (thermal/power ceiling); small spacecraft typically 2, large 4+.
    """

    battery_capacity_wh: float
    solar_generation_w: float
    bus_load_w: float = 20.0
    max_concurrent_isls: int = 2
    charge_wh: float = field(default=-1.0)
    _active_isls: Dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.battery_capacity_wh <= 0.0:
            raise ValueError(
                f"battery capacity must be positive, got {self.battery_capacity_wh}"
            )
        if self.max_concurrent_isls < 0:
            raise ValueError(
                f"max concurrent ISLs must be >= 0, got {self.max_concurrent_isls}"
            )
        if self.charge_wh < 0.0:
            self.charge_wh = self.battery_capacity_wh

    @property
    def active_isl_count(self) -> int:
        return len(self._active_isls)

    @property
    def isl_load_w(self) -> float:
        """Power drawn by currently active ISL terminals."""
        return sum(self._active_isls.values())

    def step(self, dt_s: float) -> None:
        """Advance the battery state by ``dt_s`` seconds of operation."""
        if dt_s < 0.0:
            raise ValueError(f"dt must be >= 0, got {dt_s}")
        net_w = self.solar_generation_w - self.bus_load_w - self.isl_load_w
        self.charge_wh = min(
            self.battery_capacity_wh,
            max(0.0, self.charge_wh + net_w * dt_s / 3600.0),
        )


def smallsat_power_budget() -> PowerBudget:
    """A 6U-cubesat-class budget: RF ISLs only, tight margins."""
    return PowerBudget(
        battery_capacity_wh=80.0,
        solar_generation_w=40.0,
        bus_load_w=12.0,
        max_concurrent_isls=2,
    )


def midsat_power_budget() -> PowerBudget:
    """A smallsat-bus budget able to host one laser terminal."""
    return PowerBudget(
        battery_capacity_wh=600.0,
        solar_generation_w=300.0,
        bus_load_w=60.0,
        max_concurrent_isls=3,
    )


def largesat_power_budget() -> PowerBudget:
    """A Starlink-class bus: multiple laser ISLs."""
    return PowerBudget(
        battery_capacity_wh=3000.0,
        solar_generation_w=2000.0,
        bus_load_w=250.0,
        max_concurrent_isls=5,
    )
