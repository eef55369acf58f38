"""Tests for spacecraft power budgets."""

import pytest

from repro.isl.power import (
    PowerBudget,
    largesat_power_budget,
    midsat_power_budget,
    smallsat_power_budget,
)


class TestPowerBudget:
    def test_charge_defaults_to_full(self):
        budget = PowerBudget(battery_capacity_wh=100.0, solar_generation_w=50.0)
        assert budget.charge_wh == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerBudget(battery_capacity_wh=0.0, solar_generation_w=50.0)
        with pytest.raises(ValueError):
            PowerBudget(battery_capacity_wh=10.0, solar_generation_w=5.0,
                        max_concurrent_isls=-1)

    def test_step_discharges_under_load(self):
        budget = PowerBudget(battery_capacity_wh=100.0,
                             solar_generation_w=10.0, bus_load_w=20.0)
        budget.step(3600.0)
        assert budget.charge_wh == pytest.approx(90.0)

    def test_step_charges_in_surplus_and_caps(self):
        budget = PowerBudget(battery_capacity_wh=100.0,
                             solar_generation_w=100.0, bus_load_w=10.0,
                             charge_wh=95.0)
        budget.step(3600.0)
        assert budget.charge_wh == 100.0

    def test_depleted_flag(self):
        budget = PowerBudget(battery_capacity_wh=10.0, solar_generation_w=0.0,
                             bus_load_w=20.0, charge_wh=1.0)
        budget.step(3600.0)
        assert budget.charge_wh == 0.0  # flat: ISLs must shed load

    def test_step_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            smallsat_power_budget().step(-1.0)

    def test_class_presets_ordered(self):
        small = smallsat_power_budget()
        mid = midsat_power_budget()
        large = largesat_power_budget()
        assert (small.solar_generation_w < mid.solar_generation_w
                < large.solar_generation_w)
        assert small.max_concurrent_isls <= mid.max_concurrent_isls
