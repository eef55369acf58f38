"""Tests for Shapley-based collaboration incentives."""

import pytest

from repro.economics.incentives import (
    coverage_utility,
    revenue_sharing,
    shapley_values,
    viable_service_utility,
)


class TestShapley:
    def test_symmetric_players_split_evenly(self):
        def utility(coalition):
            return float(len(coalition))
        values, _ = shapley_values(["a", "b", "c"], utility)
        for v in values.values():
            assert v == pytest.approx(1.0)

    def test_efficiency(self):
        def utility(coalition):
            return float(len(coalition)) ** 1.5
        values, cache = shapley_values(["a", "b", "c", "d"], utility)
        assert sum(values.values()) == pytest.approx(
            cache[frozenset("abcd")]
        )

    def test_dummy_player_gets_zero(self):
        def utility(coalition):
            return 1.0 if "a" in coalition else 0.0
        values, _ = shapley_values(["a", "b"], utility)
        assert values["a"] == pytest.approx(1.0)
        assert values["b"] == pytest.approx(0.0)

    def test_glove_game(self):
        # One left glove (a), two right gloves (b, c); a pair is worth 1.
        def utility(coalition):
            return 1.0 if "a" in coalition and (
                {"b", "c"} & set(coalition)) else 0.0
        values, _ = shapley_values(["a", "b", "c"], utility)
        assert values["a"] == pytest.approx(2 / 3)
        assert values["b"] == pytest.approx(1 / 6)
        assert values["c"] == pytest.approx(1 / 6)

    def test_nonzero_empty_coalition_rejected(self):
        with pytest.raises(ValueError, match="empty coalition"):
            shapley_values(["a"], lambda c: 1.0)

    def test_too_many_players_rejected(self):
        with pytest.raises(ValueError, match="intractable"):
            shapley_values([str(i) for i in range(13)], lambda c: 0.0)

    def test_duplicate_players_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            shapley_values(["a", "a"], lambda c: 0.0)


class TestRevenueSharing:
    def test_payments_sum_to_pool(self):
        def utility(coalition):
            return float(len(coalition))
        report = revenue_sharing(["a", "b", "c"], utility, 900.0)
        assert sum(report.payments.values()) == pytest.approx(900.0)

    def test_negative_pool_rejected(self):
        with pytest.raises(ValueError):
            revenue_sharing(["a"], lambda c: float(len(c)), -1.0)

    def test_linear_utility_no_surplus(self):
        # Purely additive utility: collaboration changes nothing.
        def utility(coalition):
            return float(len(coalition))
        report = revenue_sharing(["a", "b"], utility, 100.0)
        for surplus in report.collaboration_surplus.values():
            assert surplus == pytest.approx(0.0, abs=1e-9)
        assert report.all_gain


@pytest.fixture(scope="module")
def three_operator_fleets(iridium):
    from repro.core.interop import SizeClass, build_fleet
    fleet = build_fleet(iridium, "x", SizeClass.SMALL)
    return {
        "big": fleet[:40],
        "small1": fleet[40:53],
        "small2": fleet[53:],
    }


class TestCoverageUtilities:
    def test_coverage_utility_monotone(self, three_operator_fleets):
        utility = coverage_utility(three_operator_fleets)
        solo = utility(frozenset({"small1"}))
        pair = utility(frozenset({"small1", "small2"}))
        grand = utility(frozenset(three_operator_fleets))
        assert 0.0 < solo < pair <= grand <= 1.0

    def test_empty_coalition_zero(self, three_operator_fleets):
        assert coverage_utility(three_operator_fleets)(frozenset()) == 0.0

    def test_viable_service_zeroes_subthreshold(self, three_operator_fleets):
        utility = viable_service_utility(three_operator_fleets,
                                         viability_threshold=0.95)
        assert utility(frozenset({"small1"})) == 0.0
        assert utility(frozenset(three_operator_fleets)) > 0.95

    def test_viable_threshold_validation(self, three_operator_fleets):
        with pytest.raises(ValueError):
            viable_service_utility(three_operator_fleets,
                                   viability_threshold=0.0)
