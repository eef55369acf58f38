"""Tests for the interoperability profile and spacecraft specs."""

import pytest

from repro.core.interop import (
    InteropError,
    InteroperabilityProfile,
    SizeClass,
    SpacecraftSpec,
    build_fleet,
    large_spacecraft,
    medium_spacecraft,
    small_spacecraft,
)
from repro.orbits.elements import OrbitalElements
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import standard_sband_isl_terminal


@pytest.fixture
def elements():
    return OrbitalElements.circular(780.0, inclination_rad=1.5)


class TestSpacecraftSpec:
    def test_small_has_no_optical(self, elements):
        spec = small_spacecraft("s1", "op", elements)
        assert not spec.supports_optical
        assert len(spec.rf_isl_terminals) == 2

    def test_medium_and_large_have_optical(self, elements):
        assert medium_spacecraft("m1", "op", elements).supports_optical
        assert large_spacecraft("l1", "op", elements).supports_optical

    def test_to_isl_node_carries_power_ceiling(self, elements):
        spec = medium_spacecraft("m1", "op", elements)
        node = spec.to_isl_node()
        assert node.max_degree == spec.power.max_concurrent_isls
        assert node.owner == "op"
        assert node.allow_optical

    def test_to_isl_node_override(self, elements):
        spec = medium_spacecraft("m1", "op", elements)
        node = spec.to_isl_node(allow_optical=False)
        assert not node.allow_optical


class TestProfile:
    def test_standard_fleets_compliant(self, elements):
        profile = InteroperabilityProfile()
        for factory in (small_spacecraft, medium_spacecraft, large_spacecraft):
            assert profile.is_compliant(factory("x", "op", elements))

    def test_no_rf_isl_fails(self, elements):
        spec = SpacecraftSpec(
            satellite_id="bad", owner="op", size_class=SizeClass.MEDIUM,
            elements=elements, isl_terminals=[OpticalTerminal()],
            laser_boresights_deg=[0.0],
        )
        with pytest.raises(InteropError, match="mandatory RF"):
            InteroperabilityProfile().validate(spec)

    def test_optical_without_boresights_fails(self, elements):
        spec = SpacecraftSpec(
            satellite_id="bad", owner="op", size_class=SizeClass.MEDIUM,
            elements=elements,
            isl_terminals=[standard_sband_isl_terminal(), OpticalTerminal()],
        )
        with pytest.raises(InteropError, match="boresight"):
            InteroperabilityProfile().validate(spec)

    def test_ground_terminal_requirement(self, elements):
        profile = InteroperabilityProfile(require_ground_terminal=True)
        relay_only = SpacecraftSpec(
            satellite_id="relay", owner="op", size_class=SizeClass.SMALL,
            elements=elements, isl_terminals=[standard_sband_isl_terminal()],
        )
        with pytest.raises(InteropError, match="ground-facing"):
            profile.validate(relay_only)

    def test_min_degree_requirement(self, elements):
        from repro.isl.power import PowerBudget
        profile = InteroperabilityProfile(min_isl_degree=2)
        weak = SpacecraftSpec(
            satellite_id="weak", owner="op", size_class=SizeClass.SMALL,
            elements=elements, isl_terminals=[standard_sband_isl_terminal()],
            power=PowerBudget(battery_capacity_wh=10.0,
                              solar_generation_w=10.0,
                              max_concurrent_isls=1),
        )
        with pytest.raises(InteropError, match="degree"):
            profile.validate(weak)

    def test_error_lists_all_problems(self, elements):
        profile = InteroperabilityProfile(require_ground_terminal=True)
        spec = SpacecraftSpec(
            satellite_id="bad", owner="op", size_class=SizeClass.SMALL,
            elements=elements, isl_terminals=[],
        )
        with pytest.raises(InteropError) as exc:
            profile.validate(spec)
        assert "mandatory RF" in str(exc.value)
        assert "ground-facing" in str(exc.value)


class TestBuildFleet:
    def test_one_spec_per_satellite(self, iridium):
        fleet = build_fleet(iridium, "acme", SizeClass.SMALL)
        assert len(fleet) == len(iridium)
        assert all(spec.owner == "acme" for spec in fleet)

    def test_ids_unique(self, iridium):
        fleet = build_fleet(iridium, "acme", SizeClass.MEDIUM)
        ids = {spec.satellite_id for spec in fleet}
        assert len(ids) == len(fleet)

    def test_elements_preserved(self, iridium):
        fleet = build_fleet(iridium, "acme", SizeClass.LARGE)
        assert fleet[7].elements == iridium.elements[7]
