"""Property-based tests for spectrum coordination."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spectrum import SpectrumCoordinator
from repro.orbits.walker import random_constellation


class TestSpectrumProperties:
    @given(count=st.integers(min_value=2, max_value=40),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_unconstrained_plan_always_conflict_free(self, count, seed):
        constellation = random_constellation(
            count, np.random.default_rng(seed)
        )
        positions = {
            f"s{i}": p for i, p in enumerate(constellation.positions_at(0.0))
        }
        coordinator = SpectrumCoordinator(min_separation_deg=15.0,
                                          grid_resolution=8)
        plan = coordinator.plan(positions)
        assert plan.is_conflict_free()
        assert set(plan.assignments) == set(positions)
        assert plan.slot_count >= 1

    @given(count=st.integers(min_value=2, max_value=30),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_plan_deterministic(self, count, seed):
        constellation = random_constellation(
            count, np.random.default_rng(seed)
        )
        positions = {
            f"s{i}": p for i, p in enumerate(constellation.positions_at(0.0))
        }
        coordinator = SpectrumCoordinator(grid_resolution=8)
        assert (coordinator.plan(positions).assignments
                == coordinator.plan(positions).assignments)
