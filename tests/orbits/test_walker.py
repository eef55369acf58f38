"""Tests for Walker constellation generators."""

import math

import numpy as np
import pytest

from repro.orbits.constants import (
    EARTH_RADIUS_KM,
    IRIDIUM_ALTITUDE_KM,
    IRIDIUM_SATELLITE_COUNT,
)
from repro.orbits.walker import (
    cbo_reference,
    iridium_like,
    merge_constellations,
    random_constellation,
    walker_delta,
    walker_star,
)


class TestWalkerStar:
    def test_counts(self):
        c = walker_star(66, 6)
        assert len(c) == 66
        assert c.plane_count == 6
        assert c.satellites_per_plane == 11

    def test_raans_span_half_circle(self):
        c = walker_star(12, 4)
        raans = sorted({el.raan_rad for el in c})
        assert max(raans) < math.pi
        assert len(raans) == 4

    def test_rejects_uneven_planes(self):
        with pytest.raises(ValueError, match="evenly divide"):
            walker_star(10, 3)

    def test_rejects_zero_satellites(self):
        with pytest.raises(ValueError):
            walker_star(0, 1)

    def test_rejects_bad_phasing(self):
        with pytest.raises(ValueError, match="phasing"):
            walker_star(12, 4, phasing=4)

    def test_in_plane_satellites_evenly_spaced(self):
        c = walker_star(12, 2, phasing=0)
        plane0 = [el for el in c.elements[:6]]
        anomalies = sorted(el.mean_anomaly_rad for el in plane0)
        gaps = np.diff(anomalies)
        assert np.allclose(gaps, 2.0 * math.pi / 6.0)

    def test_plane_and_slot_helpers(self):
        # Plane-major order: satellites 0-2 fill plane 0, 3-5 plane 1.
        c = walker_star(12, 4)
        raans = [el.raan_rad for el in c]
        assert raans[0] == raans[2] != raans[3] == raans[5]


class TestWalkerDelta:
    def test_raans_span_full_circle(self):
        c = walker_delta(12, 4)
        raans = sorted({el.raan_rad for el in c})
        assert max(raans) > math.pi

    def test_phasing_offsets_adjacent_planes(self):
        aligned = walker_delta(12, 4, phasing=0)
        phased = walker_delta(12, 4, phasing=1)
        assert aligned.elements[3].mean_anomaly_rad != pytest.approx(
            phased.elements[3].mean_anomaly_rad
        )


class TestReferenceConstellations:
    def test_iridium_like_matches_paper(self):
        c = iridium_like()
        assert len(c) == IRIDIUM_SATELLITE_COUNT
        assert c.plane_count == 6
        el = c.elements[0]
        assert el.altitude_km == pytest.approx(IRIDIUM_ALTITUDE_KM)
        assert math.degrees(el.inclination_rad) == pytest.approx(86.4)

    def test_cbo_reference_matches_paper(self):
        c = cbo_reference()
        assert len(c) == 72
        assert c.plane_count == 6
        assert c.satellites_per_plane == 12
        assert math.degrees(c.elements[0].inclination_rad) == pytest.approx(80.0)

    def test_positions_at_epoch_have_correct_radius(self):
        c = iridium_like()
        pos = c.positions_at(0.0)
        radii = np.linalg.norm(pos, axis=1)
        assert np.allclose(radii, EARTH_RADIUS_KM + IRIDIUM_ALTITUDE_KM)

    def test_propagators_cached(self):
        c = iridium_like()
        assert c.propagators() is c.propagators()


class TestSubset:
    def test_subset_takes_prefix(self):
        c = iridium_like()
        sub = c.subset(10)
        assert len(sub) == 10
        assert sub.elements == c.elements[:10]

    def test_subset_rejects_out_of_range(self):
        c = iridium_like()
        with pytest.raises(ValueError):
            c.subset(0)
        with pytest.raises(ValueError):
            c.subset(67)


class TestRandomConstellation:
    def test_count_and_altitude(self, rng):
        c = random_constellation(25, rng)
        assert len(c) == 25
        assert all(
            el.altitude_km == pytest.approx(IRIDIUM_ALTITUDE_KM) for el in c
        )

    def test_reproducible_with_seed(self):
        a = random_constellation(10, np.random.default_rng(5))
        b = random_constellation(10, np.random.default_rng(5))
        assert all(
            x.raan_rad == y.raan_rad and x.mean_anomaly_rad == y.mean_anomaly_rad
            for x, y in zip(a, b)
        )

    def test_fixed_inclination_respected(self, rng):
        c = random_constellation(8, rng, inclination_deg=53.0)
        assert all(
            math.degrees(el.inclination_rad) == pytest.approx(53.0) for el in c
        )

    def test_default_inclination_near_polar(self, rng):
        c = random_constellation(40, rng)
        degs = [math.degrees(el.inclination_rad) for el in c]
        assert all(70.0 <= d <= 100.0 for d in degs)

    @pytest.mark.parametrize("inclination_deg", [None, 53.0])
    def test_fleet_draw_matches_per_satellite_scalar_draws(
            self, inclination_deg):
        # Seeded sweeps (and their digests) depend on this order: each
        # satellite in turn draws its inclination (unless fixed), RAAN
        # and mean anomaly, and the generator ends in the same state.
        rng = np.random.default_rng(11)
        fleet = random_constellation(30, rng, inclination_deg=inclination_deg)
        ref = np.random.default_rng(11)
        for el in fleet:
            incl = (inclination_deg if inclination_deg is not None
                    else float(ref.uniform(70.0, 100.0)))
            assert el.inclination_rad == math.radians(incl)
            assert el.raan_rad == float(ref.uniform(0.0, 2 * math.pi))
            assert el.mean_anomaly_rad == float(ref.uniform(0.0, 2 * math.pi))
        assert rng.random() == ref.random()

    def test_rejects_zero_count(self, rng):
        with pytest.raises(ValueError):
            random_constellation(0, rng)


class TestMerge:
    def test_merge_concatenates(self, rng):
        a = random_constellation(5, rng)
        b = random_constellation(7, rng)
        merged = merge_constellations([a, b], name="fleet")
        assert len(merged) == 12
        assert merged.name == "fleet"

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_constellations([])
