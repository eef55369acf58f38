"""Property-based tests: the Figure 2(b) relay kernel against its oracle.

``_relay_latency_batch_s`` lets cheap closed forms propose or certify and
the exact formulas decide: a Gram bound proposes ISL pairs for the exact
range test, the chord bound certifies line of sight for a whole batch
(the mask runs only when it cannot), and one ``min_only`` Dijkstra
answers every epoch.  Every latency must equal the per-epoch networkx
oracle (``tests.routing.oracle.relay_latency_s``) bit for bit, with
``inf`` where the oracle returns ``None``.  Two metamorphic properties
need no oracle at all: relabelling satellites changes no latency, and
adding a satellite never raises one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import figure2
from repro.experiments.figure2 import _relay_latency_batch_s
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.coordinates import ecef_to_eci_over
from repro.orbits.walker import random_constellation
from tests.routing import oracle


def _assert_matches_oracle(positions, user, gateway, mask_deg, cap_km):
    """The kernel's latencies, after checking each epoch on the oracle."""
    latencies = _relay_latency_batch_s(positions, user, gateway,
                                       min_elevation_deg=mask_deg,
                                       max_isl_range_km=cap_km)
    assert latencies.shape == (positions.shape[1],)
    for k in range(positions.shape[1]):
        expected = oracle.relay_latency_s(positions[:, k, :], user[k],
                                          gateway[k],
                                          min_elevation_deg=mask_deg,
                                          max_isl_range_km=cap_km)
        if expected is None:
            assert latencies[k] == math.inf
        else:
            assert latencies[k] == expected  # bit-identical, not approx
    return latencies


def _unit_rows(rng, shape):
    rows = rng.normal(size=shape + (3,))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.fixture
def mask_calls(monkeypatch):
    """Record how many pairs each line-of-sight mask call in the kernel
    saw and removed."""
    calls = []
    original = figure2.line_of_sight_mask

    def recording_mask(a, b, *args, **kwargs):
        clear = original(a, b, *args, **kwargs)
        calls.append((clear.size, int((~clear).sum())))
        return clear

    monkeypatch.setattr(figure2, "line_of_sight_mask", recording_mask)
    return calls


@st.composite
def relay_cases(draw):
    """``(positions, user, gateway, mask_deg, cap_km)`` for a random
    fleet whose satellites keep their own altitude across epochs."""
    count = draw(st.integers(min_value=0, max_value=30))
    epochs = draw(st.integers(min_value=1, max_value=6))
    altitudes = np.array(draw(st.lists(
        st.floats(min_value=300.0, max_value=1500.0),
        min_size=count, max_size=count)))
    cap_km = draw(st.floats(min_value=1000.0, max_value=9000.0))
    mask_deg = draw(st.sampled_from([0.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = (_unit_rows(rng, (count, epochs))
                 * (EARTH_RADIUS_KM + altitudes)[:, None, None])
    user = _unit_rows(rng, (epochs,))
    # Gateways within ~60 degrees of the user keep some epochs reachable.
    gateway = user + 0.6 * _unit_rows(rng, (epochs,))
    gateway /= np.linalg.norm(gateway, axis=-1, keepdims=True)
    return (positions, EARTH_RADIUS_KM * user, EARTH_RADIUS_KM * gateway,
            mask_deg, cap_km)


class TestRelayKernelOracle:
    @given(case=relay_cases())
    @settings(max_examples=60, deadline=None)
    def test_random_fleets_match_oracle(self, case):
        _assert_matches_oracle(*case)

    def test_no_epochs_gives_no_latencies(self):
        empty = np.empty((0, 3))
        latencies = _relay_latency_batch_s(np.empty((5, 0, 3)), empty, empty)
        assert latencies.shape == (0,)

    def test_paper_altitude_is_certified_and_skips_the_mask(self,
                                                             mask_calls):
        # At 780 km the chord for an 80 km grazing limit is ~6,175 km,
        # longer than the 6,000 km cap: no in-range pair can be blocked.
        rng = np.random.default_rng(17)
        times = np.linspace(0.0, 86400.0, 4, endpoint=False)
        positions = np.concatenate([
            random_constellation(40, rng).positions_over(times)
            for _ in range(2)], axis=1)
        user = np.tile(
            ecef_to_eci_over(figure2.DEFAULT_USER_SITE.ecef(), times), (2, 1))
        gateway = np.tile(
            ecef_to_eci_over(figure2.DEFAULT_GATEWAY_SITE.ecef(), times),
            (2, 1))
        latencies = _assert_matches_oracle(positions, user, gateway,
                                           0.0, 6000.0)
        assert mask_calls == []
        assert np.isfinite(latencies).any()

    def test_low_fleet_falls_back_to_the_mask_which_removes_pairs(
            self, mask_calls):
        # At 550 km the chord is ~5,016 km, so some pairs within 6,000 km
        # dip below the grazing sphere and the mask must drop them.
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 86400.0, 6, endpoint=False)
        positions = random_constellation(
            30, rng, altitude_km=550.0).positions_over(times)
        user = ecef_to_eci_over(figure2.DEFAULT_USER_SITE.ecef(), times)
        gateway = ecef_to_eci_over(figure2.DEFAULT_GATEWAY_SITE.ecef(), times)
        _assert_matches_oracle(positions, user, gateway, 0.0, 6000.0)
        assert len(mask_calls) == 1
        in_range, removed = mask_calls[0]
        assert 0 < removed < in_range


@st.composite
def mixed_altitude_fleets(draw):
    """``(positions, user, gateway)`` for 2-60 satellites at 550, 780 or
    1,200 km.  At the paper's 6,000 km cap the chord bound certifies a
    fleet with no 550 km satellite and sends one with any to the mask,
    so both branches of the kernel run."""
    count = draw(st.integers(min_value=2, max_value=60))
    epochs = draw(st.integers(min_value=1, max_value=4))
    altitudes = np.array(draw(st.lists(
        st.sampled_from([550.0, 780.0, 1200.0]),
        min_size=count, max_size=count)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = (_unit_rows(rng, (count, epochs))
                 * (EARTH_RADIUS_KM + altitudes)[:, None, None])
    user = _unit_rows(rng, (epochs,))
    gateway = user + 0.6 * _unit_rows(rng, (epochs,))
    gateway /= np.linalg.norm(gateway, axis=-1, keepdims=True)
    return positions, EARTH_RADIUS_KM * user, EARTH_RADIUS_KM * gateway


class TestRelayKernelMetamorphic:
    """Properties of the unconstrained relay mesh, where every in-range,
    line-of-sight pair links.  The degree-capped ISL builder
    (``repro.isl.topology``) is not monotone: a new satellite can take a
    degree slot that an existing path used."""

    @given(case=mixed_altitude_fleets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_relabelling_satellites_changes_no_latency(self, case, seed):
        positions, user, gateway = case
        order = np.random.default_rng(seed).permutation(positions.shape[0])
        assert np.array_equal(
            _relay_latency_batch_s(positions[order], user, gateway,
                                   min_elevation_deg=0.0),
            _relay_latency_batch_s(positions, user, gateway,
                                   min_elevation_deg=0.0))

    @given(case=mixed_altitude_fleets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_adding_a_satellite_never_raises_a_latency(self, case, data):
        positions, user, gateway = case
        extra = data.draw(st.integers(0, positions.shape[0] - 1))
        fewer = np.delete(positions, extra, axis=0)
        more = _relay_latency_batch_s(positions, user, gateway,
                                      min_elevation_deg=0.0)
        assert np.all(more <= _relay_latency_batch_s(
            fewer, user, gateway, min_elevation_deg=0.0))


class TestRangeCapBoundary:
    """Two satellites exactly ``cap`` apart are linked; one ulp farther
    apart they are not.  Their Gram bound rounds above ``cap**2``, so a
    prefilter without slack would drop the linked pair, and one whose
    slack decided kept values would keep the other."""

    CAP_KM = 6000.0
    #: Off-integer coordinates whose Gram rounding lands above cap**2.
    FIRST = np.array([3800.0, -6600.0, 0.0]) + np.array(
        [744264659, -696524252, -881999993]) / 2**30

    def _latency(self, second):
        first = self.FIRST
        positions = np.stack([first, second])[:, None, :]
        # Each ground site sits under one satellite and, ~46 degrees from
        # the other, below that one's horizon: only the ISL joins them.
        user = EARTH_RADIUS_KM * first / np.linalg.norm(first)
        gateway = EARTH_RADIUS_KM * second / np.linalg.norm(second)
        (latency,) = _assert_matches_oracle(positions, user[None],
                                            gateway[None], 0.0, self.CAP_KM)
        return latency

    def test_pair_exactly_at_cap_is_linked(self):
        second = self.FIRST + np.array([3600.0, 4800.0, 0.0])
        diff = self.FIRST - second
        assert np.sqrt((diff * diff).sum(axis=-1)) == self.CAP_KM
        pts = np.stack([self.FIRST, second])[None]
        norms = (pts * pts).sum(axis=-1)
        gram = np.matmul(pts, pts.transpose(0, 2, 1))
        gram *= -2.0
        gram += norms[:, :, None]
        gram += norms[:, None, :]
        assert gram[0, 0, 1] > self.CAP_KM**2
        assert math.isfinite(self._latency(second))

    def test_pair_one_ulp_beyond_cap_is_not(self):
        second = self.FIRST + np.array(
            [3600.0, np.nextafter(4800.0, math.inf), 0.0])
        diff = self.FIRST - second
        assert -diff[1] == np.nextafter(4800.0, math.inf)
        assert np.sqrt((diff * diff).sum(axis=-1)) > self.CAP_KM
        assert self._latency(second) == math.inf
