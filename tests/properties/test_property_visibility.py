"""Property tests: the plane-wise visibility kernels equal the
``(..., 3)`` forms they replaced, bit for bit.

:func:`~repro.orbits.visibility.elevations_and_ranges`,
:func:`~repro.orbits.visibility.line_of_sight_mask` and
:func:`~repro.orbits.visibility.squared_norms` compute on x, y and z
component planes and add each three-term sum x, then y, then z (an
elevation's dot product from a +0.0 start).  ``tests/orbits/oracle.py``
keeps the broadcast forms with one ``.sum(axis=-1)`` per reduction.  The
two agree only because numpy adds a length-3 axis in that same order,
starting from +0.0; :class:`TestSumOrder` pins both directly, so a numpy
that sums another way fails there by name instead of moving a digest.

Over the three broadcast layouts the package uses — ground rows against
a fleet ``(G, 1, 3)`` vs ``(1, S, 3)``, per-epoch ground points against
per-epoch fleets ``(K, 1, 3)`` vs ``(K, N, 3)``, and paired rows
``(T, 3)`` vs ``(T, 3)`` — every elevation, range, squared norm and mask
must carry the reference's bits, degenerate rows included: zero range,
a ground point at the origin, a satellite on the ground point's radial
line (where the sine rounds past +-1 before the clip), a satellite on
the horizon whose dot product is three signed zeros, zero-length
segments, and segments grazing the atmosphere limit, where the mask
turns on the last ulp of the norm.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits.constants import EARTH_RADIUS_KM
from repro.orbits.visibility import (
    GRAZING_ALTITUDE_KM,
    elevations_and_ranges,
    line_of_sight_mask,
    squared_norms,
)
from tests.orbits.oracle import elevation_angles
from tests.orbits.oracle import line_of_sight_mask as reference_mask

LIMIT_KM = EARTH_RADIUS_KM + GRAZING_ALTITUDE_KM

COORDS = st.floats(min_value=-2.0e4, max_value=2.0e4, allow_nan=False,
                   allow_infinity=False)
VECTORS = st.tuples(COORDS, COORDS, COORDS).map(np.array)
FACTORS = st.floats(min_value=0.0, max_value=4.0)
HALF_LENGTHS = st.floats(min_value=1.0, max_value=5000.0)

#: Ground point and satellite on one radial line: the sine is exactly 1,
#: but the computed quotient rounds to 1 + 2^-52 before the clip.
RADIAL_GROUND = np.array([5003.7, -6529.8, 3215.2])
RADIAL_SAT = RADIAL_GROUND * 1.09


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _reference_ranges(ground, sats):
    ground, sats = np.broadcast_arrays(ground, sats)
    delta = sats - ground
    return np.sqrt((delta * delta).sum(axis=-1))


@st.composite
def ground_sat_pairs(draw):
    """One ground point and one satellite, possibly a degenerate pair."""
    ground = draw(VECTORS)
    kind = draw(st.sampled_from(
        ["general", "zero range", "origin", "radial", "horizon"]))
    if kind == "zero range":
        return ground, ground.copy()
    if kind == "origin":
        return np.zeros(3), draw(VECTORS)
    if kind == "radial":
        return ground, ground * draw(FACTORS)
    if kind == "horizon":
        # On the horizon of a point on the x axis: every term of the
        # dot product is a signed zero, all -0.0 when x < 0.
        ground = np.array([ground[0], 0.0, 0.0])
        return ground, ground - np.abs(draw(VECTORS)) * [0.0, 1.0, 1.0]
    return ground, draw(VECTORS)


@st.composite
def segments(draw):
    """One segment, possibly zero-length or grazing the limit sphere."""
    start = draw(VECTORS)
    kind = draw(st.sampled_from(
        ["general", "zero length", "origin", "grazing", "grazing point"]))
    if kind == "zero length":
        return start, start.copy()
    if kind == "origin":
        return np.zeros(3), draw(VECTORS)
    if kind in ("grazing", "grazing point"):
        norm = math.sqrt(float(start @ start))
        if norm == 0.0:
            return start, draw(VECTORS)
        # The closest point sits on the limit sphere up to rounding.
        middle = start * (LIMIT_KM / norm)
        if kind == "grazing point":
            return middle, middle.copy()
        across = np.cross(middle, draw(VECTORS))
        width = math.sqrt(float(across @ across))
        if width == 0.0:
            return middle, middle.copy()
        across *= draw(HALF_LENGTHS) / width
        return middle + across, middle - across
    return start, draw(VECTORS)


@st.composite
def layouts(draw, pairs):
    """Two operands in one of the package's three broadcast layouts.

    The drawn pairs' relations (zero range, radial line, zero length,
    grazing) hold on the diagonal of the ``(G, S)`` grid, at satellite 0
    of each epoch, and in every paired row.
    """
    layout = draw(st.sampled_from(["grid", "epochs", "paired"]))
    if layout == "grid":
        rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        count = max(rows, columns)
    elif layout == "epochs":
        rows, columns = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        count = rows * columns
    else:
        count = draw(st.integers(1, 12))
    drawn = draw(st.lists(pairs, min_size=count, max_size=count))
    firsts = np.array([first for first, _ in drawn])
    seconds = np.array([second for _, second in drawn])
    if layout == "grid":
        return firsts[:rows, None, :], seconds[None, :columns, :]
    if layout == "epochs":
        return (firsts.reshape(rows, columns, 3)[:, :1, :],
                seconds.reshape(rows, columns, 3))
    return firsts, seconds


class TestSumOrder:
    # (1e16 - 1e16) + 1 = 1, but 1e16 + (-1e16 + 1) = 0; and the other
    # way round for the second row.  A pairwise or right-to-left sum
    # changes at least one of them.  The third row is three -0.0 terms:
    # numpy's reduction starts from +0.0, so it sums to +0.0, where
    # (x + y) + z alone gives -0.0.
    ROWS = np.array([[1.0e16, -1.0e16, 1.0], [1.0, 1.0e16, -1.0e16],
                     [-0.0, -0.0, -0.0]])
    FROM_ZERO_LEFT_TO_RIGHT = np.array([1.0, 0.0, 0.0])

    def test_numpy_sums_a_length_3_axis_left_to_right_from_zero(self):
        expected_rows = np.array([((0.0 + x) + y) + z for x, y, z in self.ROWS])
        _same_bits(expected_rows, self.FROM_ZERO_LEFT_TO_RIGHT)
        for count in (1, 2, 7, 8, 9, 1000, 100_000):
            rows = np.tile(self.ROWS, (count, 1))
            expected = np.tile(self.FROM_ZERO_LEFT_TO_RIGHT, count)
            _same_bits(rows.sum(axis=-1), expected)
            _same_bits(rows[::-1].sum(axis=-1), expected[::-1])
            _same_bits(np.asfortranarray(rows).sum(axis=-1), expected)
            _same_bits(rows.reshape(count, 3, 3).sum(axis=-1),
                       expected.reshape(count, 3))
        broadcast = np.broadcast_to(self.ROWS[:, None, :], (3, 5, 3))
        _same_bits(broadcast.sum(axis=-1),
                   np.repeat(self.FROM_ZERO_LEFT_TO_RIGHT[:, None], 5, axis=1))

    def test_squared_norms_add_in_that_order(self):
        rows = np.random.default_rng(5).normal(size=(1000, 3)) * 7000.0
        squares = rows * rows
        left = (squares[:, 0] + squares[:, 1]) + squares[:, 2]
        right = squares[:, 0] + (squares[:, 1] + squares[:, 2])
        assert (left != right).any()  # the order shows in these rows
        _same_bits(squared_norms(rows), left)
        _same_bits(squared_norms(rows), squares.sum(axis=-1))


class TestElevationsAndRanges:
    @settings(max_examples=150, deadline=None)
    @given(operands=layouts(ground_sat_pairs()))
    def test_equal_to_the_reference_bit_for_bit(self, operands):
        ground, sats = operands
        elevations, ranges = elevations_and_ranges(ground, sats)
        _same_bits(elevations, elevation_angles(ground, sats))
        _same_bits(ranges, _reference_ranges(ground, sats))
        _same_bits(squared_norms(ground), (ground * ground).sum(axis=-1))
        _same_bits(squared_norms(sats), (sats * sats).sum(axis=-1))

    def test_degenerate_rows(self):
        ground = np.array([[7000.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                           RADIAL_GROUND, RADIAL_GROUND,
                           [-7000.0, 0.0, 0.0]])
        sats = np.array([[7000.0, 0.0, 0.0], [0.0, 7000.0, 0.0],
                         RADIAL_SAT, RADIAL_GROUND * 0.5,
                         [-7000.0, -100.0, -200.0]])
        delta = RADIAL_SAT - RADIAL_GROUND
        raw_sine = (delta * RADIAL_GROUND).sum() / (
            np.sqrt((delta * delta).sum())
            * np.sqrt((RADIAL_GROUND * RADIAL_GROUND).sum()))
        assert raw_sine > 1.0  # the clip is what keeps arcsin defined
        elevations, ranges = elevations_and_ranges(ground, sats)
        _same_bits(elevations, elevation_angles(ground, sats))
        _same_bits(ranges, _reference_ranges(ground, sats))
        # Zero range and a ground point at the origin report zenith, and
        # so does the clipped radial pair; the one below the ground point
        # looks straight down.
        assert elevations[:3].tolist() == [math.pi / 2] * 3
        assert elevations[3] < -math.pi / 2 + 1e-6
        assert ranges[0] == 0.0 and ranges[1] == 7000.0
        # On the horizon with a dot product of three -0.0 terms: +0.0,
        # as numpy's reduction gives, not -0.0.
        assert elevations[4] == 0.0 and not np.signbit(elevations[4])


class TestLineOfSightMask:
    @settings(max_examples=150, deadline=None)
    @given(operands=layouts(segments()),
           grazing=st.sampled_from([0.0, GRAZING_ALTITUDE_KM, 400.0]))
    def test_equal_to_the_reference(self, operands, grazing):
        first, second = operands
        _same_bits(line_of_sight_mask(first, second, grazing),
                   reference_mask(first, second, grazing))

    def test_grazing_segments_turn_on_the_last_ulp(self):
        # Segments whose closest point lies on the limit sphere, and
        # zero-length ones on it: the mask compares one rounded norm with
        # the limit, so the rows split both ways, and a last-ulp change
        # in the segment's dot products or its closest point flips some.
        rng = np.random.default_rng(11)
        middles = rng.normal(size=(4000, 3))
        middles *= LIMIT_KM / np.linalg.norm(middles, axis=1, keepdims=True)
        across = np.cross(middles, rng.normal(size=(4000, 3)))
        across /= np.linalg.norm(across, axis=1, keepdims=True)
        ahead = across * rng.uniform(1.0, 5000.0, (4000, 1))
        behind = across * rng.uniform(1.0, 5000.0, (4000, 1))
        for first, second in ((middles, middles),
                              (middles + ahead, middles - behind)):
            mask = line_of_sight_mask(first, second)
            assert 0 < mask.sum() < mask.size
            _same_bits(mask, reference_mask(first, second))
