"""Property tests: the stacked fleet propagates each satellite's bits.

:class:`~repro.orbits.kepler.KeplerFleet` stacks a fleet's constants
once and :func:`~repro.orbits.kepler.batch_positions` solves every
satellite and time as one array.  Over drawn fleets of 0-40 satellites
-- eccentricities mixing exactly 0, small values and values of 0.8 or
more (where the Newton solve starts from pi), epochs off zero so some
``dt`` are negative, inclinations from 0 to pi, and time grids of width
0, 1 and many or a scalar time -- the positions must equal, bit for bit:

* each satellite solved on its own by the oracle's
  :meth:`~tests.orbits.oracle.KeplerPropagator.positions_at`;
* the flat batch solve kept in ``tests/orbits/oracle.py``, whose frame
  rotation is written out on its own;
* the first rows of any larger fleet the fleet is a prefix of.

The stacked rotations must equal each oracle propagator's
``fixed_rotation_t``, the oracle's matrix transposed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions
from tests.orbits import oracle
from tests.orbits.oracle import KeplerPropagator

ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
ECCENTRICITIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.05),
    st.floats(min_value=0.05, max_value=0.8, exclude_max=True),
    st.floats(min_value=0.8, max_value=0.97),
)
TIMES = st.floats(min_value=-2.0e5, max_value=2.0e5)


@st.composite
def fleets(draw, max_size=40):
    """Element sets whose eccentricities come from a small drawn pool, so
    a fleet holds several satellites per eccentricity group."""
    pool = draw(st.lists(ECCENTRICITIES, min_size=1, max_size=3))
    return draw(st.lists(
        st.builds(
            OrbitalElements,
            semi_major_axis_km=st.floats(min_value=6600.0, max_value=45000.0),
            eccentricity=st.sampled_from(pool),
            inclination_rad=st.floats(min_value=0.0, max_value=math.pi),
            raan_rad=ANGLES,
            arg_perigee_rad=ANGLES,
            mean_anomaly_rad=ANGLES,
            epoch_s=st.floats(min_value=-5.0e4, max_value=5.0e4),
        ),
        min_size=0, max_size=max_size,
    ))


GRIDS = st.one_of(
    TIMES,
    st.lists(TIMES, min_size=0, max_size=1).map(np.array),
    st.lists(TIMES, min_size=2, max_size=12).map(np.array),
)


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _per_satellite(elements, times):
    width = np.asarray(times, dtype=float).reshape(-1).shape[0]
    if not elements:
        return np.empty((0, width, 3))
    return np.stack([KeplerPropagator(el).positions_at(times)
                     for el in elements])


class TestStackedFleet:
    @given(elements=fleets(), times=GRIDS)
    @settings(max_examples=80, deadline=None)
    def test_positions_equal_each_propagator(self, elements, times):
        _same_bits(batch_positions(KeplerFleet(elements), times),
                   _per_satellite(elements, times))

    @given(elements=fleets(), times=GRIDS)
    @settings(max_examples=80, deadline=None)
    def test_positions_equal_the_oracle_batch(self, elements, times):
        propagators = [KeplerPropagator(el) for el in elements]
        _same_bits(batch_positions(KeplerFleet(elements), times),
                   oracle.flat_positions(propagators, times))

    @given(elements=fleets(max_size=30).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_rotations_equal_each_propagator(self, elements):
        rotations_t = KeplerFleet(elements).constants().rotations_t
        assert rotations_t.flags.c_contiguous
        for row, el in zip(rotations_t, elements):
            _same_bits(row, KeplerPropagator(el).fixed_rotation_t)

    @given(elements=fleets(), times=GRIDS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_fleet_reproduces_first_rows(self, elements, times,
                                                data):
        count = data.draw(st.integers(min_value=0,
                                      max_value=len(elements)))
        full = batch_positions(KeplerFleet(elements), times)
        _same_bits(batch_positions(KeplerFleet(elements[:count]), times),
                   full[:count])
