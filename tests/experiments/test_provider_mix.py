"""Tests for the provider-mix experiment (paper open question 1)."""

import pytest

from repro.experiments.provider_mix import QOS_CLASSES, provider_mix_sweep


def _rounded(value):
    """Floats at ten significant digits, dict values too."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return float(f"{value:.10g}")


@pytest.fixture(scope="module")
def sweep():
    return provider_mix_sweep(
        mixes=((3, 0), (1, 2), (0, 3)), satellite_count=36, flow_count=30,
        seed=29,
    )


class TestProviderMix:
    def test_qos_classes_cover_traffic_mix(self):
        assert set(QOS_CLASSES) == {"best_effort", "standard", "premium"}

    def test_one_result_per_mix(self, sweep):
        assert [r.mix_name for r in sweep] == [
            "3 small + 0 medium", "1 small + 2 medium", "0 small + 3 medium",
        ]

    def test_best_effort_always_served(self, sweep):
        # The unit sweep runs a 36-satellite partial fleet, so coverage
        # gaps make many flows unroutable regardless of QoS; a meaningful
        # fraction must still be served (the full-fleet behaviour is
        # asserted by the benchmark at 66 satellites).
        for result in sweep:
            assert result.admission_by_class.get("best_effort", 1.0) > 0.3

    def test_premium_improves_with_medium_operators(self, sweep):
        all_small = sweep[0]
        all_medium = sweep[-1]
        assert (all_medium.admission_by_class.get("premium", 0.0)
                >= all_small.admission_by_class.get("premium", 0.0))

    def test_capex_grows_with_medium_share(self, sweep):
        capex = [r.capex_musd for r in sweep]
        assert capex == sorted(capex)

    def test_cost_effectiveness_reported(self, sweep):
        for result in sweep:
            assert result.premium_capacity_per_musd >= 0.0

    def test_rows_pinned(self, sweep):
        # The rows the per-flow allocator and one QoS search per
        # gateway produced, at ten significant digits (the digests'
        # rounding): the waterfill and one search per flow keep them.
        assert [[r.mix_name, _rounded(r.admission_by_class),
                 _rounded(r.mean_fct_s), _rounded(r.capex_musd),
                 _rounded(r.premium_capacity_per_musd)] for r in sweep] == [
            ["3 small + 0 medium", {"best_effort": 0.4666666667,
                                    "premium": 0.3333333333,
                                    "standard": 0.3333333333},
             2.605479858, 25.72362, 12.95825911],
            ["1 small + 2 medium", {"best_effort": 0.6, "premium": 0.5,
                                    "standard": 0.5454545455},
             1.593941387, 120.60282, 4.145840039],
            ["0 small + 3 medium", {"best_effort": 0.6666666667,
                                    "premium": 0.3333333333,
                                    "standard": 0.5},
             0.09575040274, 168.04242, 1.983626119],
        ]

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError, match="at least one operator"):
            provider_mix_sweep(mixes=((0, 0),), satellite_count=12,
                               flow_count=5)
