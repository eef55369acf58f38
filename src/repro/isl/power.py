"""Spacecraft power and slew budgets for ISL establishment.

The paper: "given the power cost of executing rotations for ISLs and
establishing those links, satellites may have power consumption constraints
that limit the number of ISLs they can establish and the size of data
transfers they can facilitate."  This module models that constraint: an
energy budget replenished by solar generation and drained by terminal
operation and attitude slews, plus a slew-time model for repointing a
laser terminal.
"""

from __future__ import annotations

import math
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

    def can_activate_isl(self, draw_w: float) -> bool:
        """Whether another ISL of the given draw fits in the budget.

        An ISL fits when the concurrency ceiling is not hit and the total
        load stays within what generation plus a 20%-depth battery assist
        can sustain.
        """
        if self.active_isl_count >= self.max_concurrent_isls:
            return False
        sustainable_w = self.solar_generation_w + (
            0.2 * self.battery_capacity_wh
        )  # Wh treated as a one-hour assist rate
        return self.bus_load_w + self.isl_load_w + draw_w <= sustainable_w

    def activate_isl(self, link_id: str, draw_w: float) -> None:
        """Register an active ISL's power draw.

        Raises:
            RuntimeError: When the budget cannot host the link (callers
                should have checked :meth:`can_activate_isl`).
        """
        if link_id in self._active_isls:
            return
        if not self.can_activate_isl(draw_w):
            raise RuntimeError(
                f"power budget exhausted: {self.active_isl_count} active ISLs, "
                f"load {self.isl_load_w:.0f} W, cannot add {draw_w:.0f} W"
            )
        self._active_isls[link_id] = draw_w

    def deactivate_isl(self, link_id: str) -> None:
        """Drop an ISL's draw; unknown ids are ignored (idempotent teardown)."""
        self._active_isls.pop(link_id, None)

    def step(self, dt_s: float) -> None:
        """Advance the battery state by ``dt_s`` seconds of operation."""
        if dt_s < 0.0:
            raise ValueError(f"dt must be >= 0, got {dt_s}")
        net_w = self.solar_generation_w - self.bus_load_w - self.isl_load_w
        self.charge_wh = min(
            self.battery_capacity_wh,
            max(0.0, self.charge_wh + net_w * dt_s / 3600.0),
        )

    @property
    def depleted(self) -> bool:
        """True when the battery has run flat (ISLs must shed load)."""
        return self.charge_wh <= 0.0


@dataclass(frozen=True)
class SlewModel:
    """Attitude-slew timing and energy for (re)pointing a laser terminal.

    "Laser-links between satellites, even if available, are directional,
    which means that the satellites once paired, can re-orient (i.e., spin)
    to maintain a reliable link."

    Attributes:
        max_rate_deg_s: Peak slew rate.
        acceleration_deg_s2: Angular acceleration (bang-bang profile).
        power_w: Reaction-wheel/gimbal power while slewing.
    """

    max_rate_deg_s: float = 1.0
    acceleration_deg_s2: float = 0.1
    power_w: float = 15.0

    def slew_time_s(self, angle_deg: float) -> float:
        """Time for a rest-to-rest slew through ``angle_deg`` (bang-bang)."""
        if angle_deg < 0.0:
            raise ValueError(f"angle must be >= 0, got {angle_deg}")
        if angle_deg == 0.0:
            return 0.0
        # Distance covered accelerating to (and braking from) peak rate.
        ramp_angle = self.max_rate_deg_s**2 / self.acceleration_deg_s2
        if angle_deg <= ramp_angle:
            return 2.0 * math.sqrt(angle_deg / self.acceleration_deg_s2)
        ramp_time = 2.0 * self.max_rate_deg_s / self.acceleration_deg_s2
        cruise_time = (angle_deg - ramp_angle) / self.max_rate_deg_s
        return ramp_time + cruise_time

    def slew_energy_wh(self, angle_deg: float) -> float:
        """Energy consumed by a slew through ``angle_deg``."""
        return self.power_w * self.slew_time_s(angle_deg) / 3600.0


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
