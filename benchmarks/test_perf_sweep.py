"""Performance benchmarks for the vectorized/parallel sweep stack.

Companions to ``run_bench.py`` (the JSON-emitting CI gate): these run
under ``pytest benchmarks/ --benchmark-only`` and measure the batched
propagation path, the vectorized relay-mesh construction, one base
snapshot build, and the end-to-end Figure 2(b) sweep point.
Each also asserts the determinism contract where it applies, so a
broken parallel refactor fails here before it reaches the gate.
"""

import json
import hashlib

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.figure2 import (
    DEFAULT_GATEWAY_SITE,
    DEFAULT_USER_SITE,
    _relay_latency_batch_s,
    figure_2b_latency,
)
from repro.ground.station import default_station_network
from repro.orbits.coordinates import ecef_to_eci
from repro.orbits.walker import iridium_like, random_constellation
from repro.parallel import derive_seed, run_grid


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def test_perf_batched_propagation(benchmark):
    constellation = iridium_like()
    times = np.linspace(0.0, 5400.0, 120)

    positions = benchmark(constellation.positions_over, times)
    assert positions.shape == (66, 120, 3)


def test_perf_vectorized_relay_mesh(benchmark):
    rng = np.random.default_rng(7)
    positions = random_constellation(70, rng).positions_at(0.0)
    user_eci = ecef_to_eci(DEFAULT_USER_SITE.ecef(), 0.0)
    gateway_eci = ecef_to_eci(DEFAULT_GATEWAY_SITE.ecef(), 0.0)

    (latency,) = benchmark(_relay_latency_batch_s, positions[:, None, :],
                           user_eci[None, :], gateway_eci[None, :], 0.0)
    assert latency > 0.0


def test_perf_snapshot_build(benchmark):
    stations = default_station_network()
    fleet = build_fleet(iridium_like(), "bench", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    first = network.snapshot(0.0)

    snap = benchmark(network.snapshot, 0.0)
    assert snap is not first  # every request is one build
    assert snap.digest() == first.digest()


def test_perf_figure2b_sweep_point(benchmark):
    result = benchmark(figure_2b_latency, (10, 25, 45), 2, 4, 42)
    assert set(result) == {"series", "reachability"}


def test_perf_run_grid_dispatch_overhead(benchmark):
    points = [(derive_seed(42, "grid", i), i) for i in range(64)]

    rows = benchmark(run_grid, _square_point, points)
    assert rows == [seed % 97 + index for seed, index in points]


def _square_point(args):
    seed, index = args
    return seed % 97 + index


def test_parallel_sweep_matches_serial():
    kwargs = dict(satellite_counts=(10, 25), trials=2, epochs=3, seed=42)
    assert (_digest(figure_2b_latency(jobs=1, **kwargs))
            == _digest(figure_2b_latency(jobs=2, **kwargs)))
