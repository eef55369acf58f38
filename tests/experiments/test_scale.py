"""Tests for the mega-constellation scale sweep."""

import json
import math

import pytest

from repro.experiments.scale import plane_count_for, scale_sweep

SMALL = dict(satellite_counts=(48,), epochs=3)


def canonical(rows):
    """JSON-serialized rows: NaN-safe equality (NaN != NaN in python,
    but both serialize to the same token)."""
    return json.dumps(rows, sort_keys=True)


@pytest.fixture(scope="module")
def rows():
    return scale_sweep(**SMALL)


class TestScaleSweep:
    def test_row_fields(self, rows):
        assert len(rows) == 1
        row = rows[0]
        assert row["satellites"] == 48
        assert row["planes"] == plane_count_for(48)
        assert row["epochs"] == 3
        assert row["period_s"] > 0.0
        assert row["mean_isl_edges"] > 0.0
        assert row["mean_degree"] > 0.0
        assert 0.0 <= row["churn_mean"] <= 1.0
        assert row["churn_mean"] <= row["churn_max"] <= 1.0
        assert row["full_builds"] == 1
        assert row["delta_builds"] == 2
        assert row["edges_appeared"] >= 0
        assert row["edges_disappeared"] >= 0
        assert 0 <= row["probe_reachable_epochs"] <= 3
        assert row["digests_match"] is True

    def test_delta_disabled_builds_full_every_epoch(self):
        rows = scale_sweep(**SMALL, delta=False)
        assert rows[0]["full_builds"] == 3
        assert rows[0]["delta_builds"] == 0
        assert rows[0]["digests_match"] is True

    def test_jobs_equivalence(self, rows):
        two_counts = scale_sweep(satellite_counts=(48, 60), epochs=2)
        parallel = scale_sweep(satellite_counts=(48, 60), epochs=2,
                               jobs=2)
        assert canonical(parallel) == canonical(two_counts)

    def test_skipping_digest_check_reports_none(self):
        rows = scale_sweep(**SMALL, compare_digests=False)
        assert rows[0]["digests_match"] is None
        # Everything else is unchanged by skipping the reference build.
        full = scale_sweep(**SMALL)
        for key, value in rows[0].items():
            if key == "digests_match":
                continue
            reference = full[0][key]
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(reference)
            else:
                assert value == reference

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=())
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(1,))
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(48,), epochs=0)
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(48,), max_range_km=0.0)


class TestPlaneCountFor:
    @pytest.mark.parametrize("satellites", [2, 6, 24, 48, 60, 180, 360,
                                            1440, 2880, 10_000])
    def test_divides_evenly(self, satellites):
        planes = plane_count_for(satellites)
        assert planes >= 1
        assert satellites % planes == 0

    def test_known_fleets(self):
        assert plane_count_for(48) == 4
        assert plane_count_for(10_000) == 80

    def test_prime_fleet_degrades_to_one_plane(self):
        assert plane_count_for(97) == 1
