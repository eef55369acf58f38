"""Integration: power budgets through eclipse cycles.

The paper: satellites "may have power consumption constraints that limit
the number of ISLs they can establish and the size of data transfers they
can facilitate."  This test drives a spacecraft's power budget through a
real orbit's eclipse cycle with ISLs active, verifying the battery
cycles as physics says it should and that an undersized craft must shed
ISL load to survive the night.  Eclipse is the standard cylindrical-shadow
approximation under a mean sun advancing along the ecliptic from the
vernal equinox at t=0.
"""

import math

import numpy as np
import pytest

from repro.isl.power import PowerBudget
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerPropagator

#: Obliquity of the ecliptic, radians.
ECLIPTIC_OBLIQUITY_RAD = math.radians(23.439)

#: Length of the (modelled) year, seconds.
YEAR_S = 365.25 * 86400.0


def sun_direction(time_s: float) -> np.ndarray:
    """Unit vector from the Earth to the Sun in ECI at ``time_s``.

    The Sun advances uniformly along the ecliptic from the vernal equinox
    at t=0 — a mean-sun model, adequate for eclipse statistics.
    """
    mean_longitude = 2.0 * math.pi * (time_s / YEAR_S)
    cos_l, sin_l = math.cos(mean_longitude), math.sin(mean_longitude)
    cos_e, sin_e = math.cos(ECLIPTIC_OBLIQUITY_RAD), math.sin(
        ECLIPTIC_OBLIQUITY_RAD
    )
    return np.array([cos_l, sin_l * cos_e, sin_l * sin_e])


def in_eclipse(position_eci_km: np.ndarray, time_s: float) -> bool:
    """Whether a satellite is inside the Earth's (cylindrical) shadow."""
    position = np.asarray(position_eci_km, dtype=float)
    sun = sun_direction(time_s)
    along_sun = float(position @ sun)
    if along_sun >= 0.0:
        return False  # sunward side: lit
    radial = position - along_sun * sun
    return float(np.linalg.norm(radial)) < EARTH_RADIUS_KM


def run_orbit(budget, propagator, isl_draw_w, step_s=60.0):
    """Step a budget through one orbit, gating generation on eclipse.

    Returns the minimum charge reached.
    """
    period = propagator.period_s
    base_generation = budget.solar_generation_w
    min_charge = budget.charge_wh
    t = 0.0
    budget.activate_isl("isl", isl_draw_w)
    while t < period:
        dark = in_eclipse(propagator.position_at(t), t)
        budget.solar_generation_w = 0.0 if dark else base_generation
        budget.step(step_s)
        min_charge = min(min_charge, budget.charge_wh)
        t += step_s
    budget.solar_generation_w = base_generation
    return min_charge


@pytest.fixture(scope="module")
def equatorial_propagator():
    return KeplerPropagator(
        OrbitalElements.circular(780.0, inclination_rad=0.0)
    )


class TestPowerThroughEclipse:
    def test_healthy_budget_survives_the_night(self, equatorial_propagator):
        budget = PowerBudget(battery_capacity_wh=600.0,
                             solar_generation_w=300.0, bus_load_w=60.0,
                             max_concurrent_isls=3)
        min_charge = run_orbit(budget, equatorial_propagator,
                               isl_draw_w=60.0)
        assert min_charge > 0.0
        assert not budget.depleted

    def test_undersized_battery_depletes_in_eclipse(self,
                                                    equatorial_propagator):
        # ~35 min of eclipse at 120 W net drain needs ~70 Wh; give 30.
        budget = PowerBudget(battery_capacity_wh=30.0,
                             solar_generation_w=300.0, bus_load_w=60.0,
                             max_concurrent_isls=3)
        min_charge = run_orbit(budget, equatorial_propagator,
                               isl_draw_w=60.0)
        assert min_charge == 0.0

    def test_shedding_isl_load_saves_the_undersized_craft(
            self, equatorial_propagator):
        budget = PowerBudget(battery_capacity_wh=45.0,
                             solar_generation_w=300.0, bus_load_w=60.0,
                             max_concurrent_isls=3)
        # Same craft, no ISL during eclipse: only the 60 W bus drains.
        min_charge = run_orbit(budget, equatorial_propagator,
                               isl_draw_w=0.0)
        assert min_charge > 0.0

    def test_battery_recharges_after_eclipse(self, equatorial_propagator):
        budget = PowerBudget(battery_capacity_wh=600.0,
                             solar_generation_w=300.0, bus_load_w=60.0,
                             max_concurrent_isls=3)
        run_orbit(budget, equatorial_propagator, isl_draw_w=60.0)
        # After a full orbit the craft is back in sun with net surplus;
        # within another half-orbit of sunlight the battery refills.
        budget.deactivate_isl("isl")
        budget.step(equatorial_propagator.period_s / 2.0)
        assert budget.charge_wh == pytest.approx(600.0)
