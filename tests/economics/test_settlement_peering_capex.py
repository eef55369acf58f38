"""Tests for settlement, peering recommendation, and the capex model."""

import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.economics.capex import (
    FCC_SMALLSAT_FEE_USD,
    SatelliteCostModel,
    constellation_budget,
    entry_cost_comparison,
)
from repro.economics.ledger import TrafficLedger
from repro.economics.peering import PeeringAdvisor
from repro.economics.settlement import RateCard, SettlementEngine
from repro.orbits.walker import iridium_like


@pytest.fixture
def ledger():
    led = TrafficLedger()
    led.file_path_transfer("t1", "isp-a", ["isp-b"], 50.0, 0.0)
    led.file_path_transfer("t2", "isp-b", ["isp-a"], 45.0, 1.0)
    led.file_path_transfer("t3", "isp-c", ["isp-a"], 5.0, 2.0)
    return led


class TestRateCard:
    def test_optical_premium_over_rf(self):
        card = RateCard("isp-x")
        assert card.optical_rate_per_gb > card.rf_rate_per_gb

    def test_peer_discount_applied(self):
        card = RateCard("isp-x", rf_rate_per_gb=0.04, peer_discount=0.5)
        assert card.rate_for("rf", is_peer=True) == pytest.approx(0.02)
        assert card.rate_for("rf", is_peer=False) == pytest.approx(0.04)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown segment kind"):
            RateCard("isp-x").rate_for("quantum", False)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateCard("x", rf_rate_per_gb=-0.01)
        with pytest.raises(ValueError):
            RateCard("x", peer_discount=1.5)


class TestSettlementEngine:
    def test_invoices_from_ledger(self, ledger):
        engine = SettlementEngine()
        invoices = engine.invoices_from_ledger(ledger)
        by_pair = {(i.customer, i.carrier): i for i in invoices}
        assert by_pair[("isp-a", "isp-b")].gigabytes == 50.0
        assert by_pair[("isp-a", "isp-b")].amount_usd == pytest.approx(
            50.0 * 0.04
        )

    def test_net_positions_balance_to_zero(self, ledger):
        engine = SettlementEngine()
        invoices = engine.invoices_from_ledger(ledger)
        positions = engine.net_positions(invoices)
        assert sum(positions.values()) == pytest.approx(0.0)

    def test_peering_discount_flows_through(self, ledger):
        engine = SettlementEngine(rate_cards={
            "isp-b": RateCard("isp-b", peer_discount=0.0),
        }, peers={frozenset({"isp-a", "isp-b"})})
        invoices = engine.invoices_from_ledger(ledger)
        ab = [i for i in invoices
              if i.customer == "isp-a" and i.carrier == "isp-b"][0]
        assert ab.amount_usd == 0.0


class TestPeeringAdvisor:
    def test_symmetric_pair_recommended(self, ledger):
        advisor = PeeringAdvisor(min_mutual_gb=50.0, min_symmetry=0.5)
        recs = advisor.recommendations(ledger)
        recommended = {(r.isp_a, r.isp_b) for r in recs if r.recommended}
        assert ("isp-a", "isp-b") in recommended

    def test_asymmetric_pair_not_recommended(self, ledger):
        advisor = PeeringAdvisor(min_mutual_gb=1.0, min_symmetry=0.5)
        rec = [r for r in advisor.recommendations(ledger)
               if {r.isp_a, r.isp_b} == {"isp-a", "isp-c"}][0]
        assert not rec.recommended
        assert "asymmetric" in rec.rationale

    def test_low_volume_not_recommended(self):
        led = TrafficLedger()
        led.file_path_transfer("t1", "isp-a", ["isp-b"], 1.0, 0.0)
        led.file_path_transfer("t2", "isp-b", ["isp-a"], 1.0, 1.0)
        advisor = PeeringAdvisor(min_mutual_gb=100.0)
        rec = advisor.recommendations(led)[0]
        assert not rec.recommended
        assert "below threshold" in rec.rationale

    def test_recommended_sorted_first(self, ledger):
        recs = PeeringAdvisor(min_mutual_gb=50.0).recommendations(ledger)
        flags = [r.recommended for r in recs]
        assert flags == sorted(flags, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeeringAdvisor(min_mutual_gb=-1.0)
        with pytest.raises(ValueError):
            PeeringAdvisor(min_symmetry=2.0)


class TestCapex:
    @pytest.fixture(scope="class")
    def fleets(self):
        constellation = iridium_like()
        return {
            SizeClass.SMALL: build_fleet(constellation, "op", SizeClass.SMALL),
            SizeClass.MEDIUM: build_fleet(constellation, "op", SizeClass.MEDIUM),
            SizeClass.LARGE: build_fleet(constellation, "op", SizeClass.LARGE),
        }

    def test_fcc_fee_matches_paper(self):
        assert FCC_SMALLSAT_FEE_USD == 12_145.0

    def test_laser_terminal_dominates_small_sat_cost_delta(self, fleets):
        small_unit = constellation_budget(fleets[SizeClass.SMALL][:1]).total_usd
        medium_unit = constellation_budget(
            fleets[SizeClass.MEDIUM][:1]).total_usd
        # Medium adds a $500k laser terminal plus a bigger bus.
        assert medium_unit - small_unit > 500_000.0

    def test_size_classes_ordered_by_cost(self, fleets):
        costs = [
            constellation_budget(fleets[size][:1]).total_usd
            for size in (SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)
        ]
        assert costs == sorted(costs)

    def test_budget_components_sum(self, fleets):
        budget = constellation_budget(fleets[SizeClass.MEDIUM])
        assert budget.total_usd == pytest.approx(
            budget.hardware_usd + budget.launch_usd + budget.licensing_usd
        )
        assert budget.fleet_size == 66
        assert budget.licensing_usd == pytest.approx(66 * FCC_SMALLSAT_FEE_USD)

    def test_per_satellite_average(self, fleets):
        # A uniform fleet costs 66 times one of its spacecraft.
        budget = constellation_budget(fleets[SizeClass.SMALL])
        single = constellation_budget(fleets[SizeClass.SMALL][:1])
        assert budget.total_usd == pytest.approx(66 * single.total_usd)

    def test_entry_cost_collaboration_savings(self, fleets):
        comparison = entry_cost_comparison(
            fleets[SizeClass.MEDIUM], fleets[SizeClass.MEDIUM],
            participant_count=6,
        )
        assert comparison["savings_factor"] == pytest.approx(6.0)
        assert comparison["per_participant_usd"] < comparison["solo_usd"]

    def test_entry_cost_rejects_zero_participants(self, fleets):
        with pytest.raises(ValueError):
            entry_cost_comparison(fleets[SizeClass.SMALL],
                                  fleets[SizeClass.SMALL], 0)

    def test_launch_mass_includes_terminals(self, fleets):
        model = SatelliteCostModel()
        spec = fleets[SizeClass.MEDIUM][0]
        mass = model.launch_mass_kg(spec)
        assert mass > 150.0  # bus plus the 15 kg laser terminal and others
