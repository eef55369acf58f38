"""Tests for the regional-blackout DTN sweep driver."""

import pytest

from repro.experiments.disrupted import disrupted_sweep

# One tiny-but-real grid, shared by the shape and parallelism tests so
# the (~seconds) scenario simulation only runs a few times.
QUICK = dict(radii_km=(0.0, 1500.0), durations_s=(900.0,),
             buffer_kb=(64.0,), horizon_s=3600.0, step_s=600.0,
             loss=0.0, sensors=2, satellites=24, bundle_interval_s=600.0,
             bundle_bytes=1024, ttl_s=3600.0, seed=17)

ROW_KEYS = {
    "radius_km", "blackout_s", "buffer_kb", "stations_down", "created",
    "delivered", "delivery_ratio", "mean_delay_s", "max_delay_s",
    "custody_retx", "custody_failures", "buffer_drops", "ttl_expired",
    "replans", "backlog", "faults_injected",
}


def _rows_equal(first, second):
    """Row-list equality that treats NaN as equal to NaN."""
    if len(first) != len(second):
        return False
    for row_a, row_b in zip(first, second):
        if set(row_a) != set(row_b):
            return False
        for key in row_a:
            a, b = row_a[key], row_b[key]
            if a != b and not (a != a and b != b):
                return False
    return True


class TestDisruptedSweep:
    def test_rows_shape_and_grid_order(self):
        rows = disrupted_sweep(**QUICK)
        assert len(rows) == 2
        assert all(set(row) == ROW_KEYS for row in rows)
        assert all(row["created"] > 0 for row in rows)
        assert all(row["delivered"] > 0 for row in rows)
        assert [row["radius_km"] for row in rows] == [0.0, 1500.0]
        # The zero-radius control injects nothing and never replans.
        assert rows[0]["stations_down"] == 0
        assert rows[0]["faults_injected"] == 0
        assert rows[0]["replans"] == 0
        # The regional blackout takes down exactly the Nairobi gateway.
        assert rows[1]["stations_down"] == 1
        assert rows[1]["faults_injected"] == 1

    def test_jobs_do_not_change_rows(self):
        serial = disrupted_sweep(**QUICK)
        pooled = disrupted_sweep(**{**QUICK, "jobs": 2})
        assert _rows_equal(serial, pooled)

    def test_same_seed_same_rows(self):
        assert _rows_equal(disrupted_sweep(**QUICK),
                           disrupted_sweep(**QUICK))

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            disrupted_sweep(**{**QUICK, "radii_km": (-1.0,)})
        with pytest.raises(ValueError, match="duration"):
            disrupted_sweep(**{**QUICK, "durations_s": (0.0,)})
        with pytest.raises(ValueError, match="buffer"):
            disrupted_sweep(**{**QUICK, "buffer_kb": (0.0,)})
        with pytest.raises(ValueError, match="step"):
            disrupted_sweep(**{**QUICK, "step_s": 7200.0})
        with pytest.raises(ValueError, match="sensor"):
            disrupted_sweep(**{**QUICK, "sensors": 0})
        with pytest.raises(ValueError, match="interval"):
            disrupted_sweep(**{**QUICK, "bundle_interval_s": 0.0})
        with pytest.raises(ValueError, match="bundle size"):
            disrupted_sweep(**{**QUICK, "bundle_bytes": 0})
        with pytest.raises(ValueError, match="TTL"):
            disrupted_sweep(**{**QUICK, "ttl_s": 0.0})
        for loss in (-0.1, 1.5):
            with pytest.raises(ValueError, match="loss rate"):
                disrupted_sweep(**{**QUICK, "loss": loss})
        with pytest.raises(ValueError, match="at least one satellite"):
            disrupted_sweep(**{**QUICK, "satellites": 0})
        with pytest.raises(ValueError, match="evenly divide 7"):
            disrupted_sweep(**{**QUICK, "satellites": 7})
