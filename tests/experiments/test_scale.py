"""Tests for the mega-constellation scale sweep."""

import json

import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.scale import (
    FLEET_OWNER,
    PROBE_STATIONS,
    _probe_latency_ms,
    _scale_point,
    plane_count_for,
    scale_sweep,
)
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import DELAY_ONLY
from tests.routing.oracle import delay_weight

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

    def test_jobs_equivalence(self, rows):
        two_counts = scale_sweep(satellite_counts=(48, 60), epochs=2)
        parallel = scale_sweep(satellite_counts=(48, 60), epochs=2,
                               jobs=2)
        assert canonical(parallel) == canonical(two_counts)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=())
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(1,))
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(48,), epochs=0)
        with pytest.raises(ValueError):
            scale_sweep(satellite_counts=(48,), max_range_km=0.0)


class TestProbeOnSnapshotArrays:
    """The latency probe routes on the snapshot's array-compiled CSR."""

    @pytest.mark.parametrize("time_s", [0.0, 1913.0])
    def test_csr_bit_identical_to_graph_compile(self, time_s):
        constellation = walker_delta(96, plane_count_for(96))
        network = OpenSpaceNetwork(
            build_fleet(constellation, FLEET_OWNER, SizeClass.MEDIUM),
            default_station_network(), max_isl_range_km=3000.0)
        snap = network.snapshot(time_s)
        arrays = snap.csr_adjacency(DELAY_ONLY)
        graph = CsrAdjacency.from_graph(snap.graph, weight=delay_weight)
        assert arrays.nodes == graph.nodes
        for name in ("indptr", "indices", "data"):
            assert getattr(arrays, name).dtype == getattr(graph, name).dtype
            assert np.array_equal(getattr(arrays, name),
                                  getattr(graph, name))
        src, dst = PROBE_STATIONS
        delay_s = graph.single_source(src).distance(src, dst)
        assert _probe_latency_ms(snap) == delay_s * 1000.0

    def test_scale_point_builds_no_graph(self, graph_constructions):
        row = _scale_point((96, 3, 3000.0))
        assert row["probe_reachable_epochs"] > 0
        assert graph_constructions == []


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
