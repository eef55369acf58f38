"""Performance benchmarks for the hot simulation primitives.

Unlike the figure/ablation benches (single-shot experiment regeneration),
these measure steady-state throughput of the primitives that dominate
large parameter sweeps: orbit propagation, ISL topology construction,
proactive route precomputation, coverage estimation, and whole-network
snapshots.  Regressions here multiply directly into experiment wall-clock.
"""

from repro import obs
from repro.core.interop import SizeClass, SpacecraftSpec, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.isl.topology import IslNode, IslTopologyBuilder
from repro.orbits.visibility import coverage_fraction
from repro.orbits.walker import iridium_like
from repro.phy.rf import standard_sband_isl_terminal
from repro.routing.proactive import ProactiveRouter


def test_perf_constellation_propagation(benchmark):
    # The stacked fleet every sweep and snapshot propagates through.
    constellation = iridium_like()
    positions = benchmark(constellation.positions_at, 1234.5)
    assert positions.shape == (66, 3)


def test_perf_isl_topology_snapshot(benchmark):
    constellation = iridium_like()
    ids = [f"s{i}" for i in range(66)]
    nodes = [
        IslNode(sat_id, [standard_sband_isl_terminal()], max_degree=4)
        for sat_id in ids
    ]
    builder = IslTopologyBuilder(nodes)
    positions = dict(zip(ids, constellation.positions_at(0.0)))

    snap = benchmark(builder.snapshot, 0.0, positions)
    assert snap.link_count > 60


def test_perf_proactive_precompute(benchmark):
    # An ISL-only network: S-band relays, four ISLs each, no ground.
    snap = OpenSpaceNetwork([
        SpacecraftSpec(f"s{i}", "perf", SizeClass.SMALL, elements,
                       isl_terminals=[standard_sband_isl_terminal()],
                       max_concurrent_isls=4)
        for i, elements in enumerate(iridium_like().elements)
    ]).snapshot(0.0)

    def precompute():
        router = ProactiveRouter()
        return router.precompute([snap])

    table = benchmark(precompute)
    assert table.route_count == 66 * 65


def test_perf_coverage_estimate(benchmark):
    constellation = iridium_like()
    positions = constellation.positions_at(0.0)

    value = benchmark(coverage_fraction, positions, 780.0)
    assert value > 0.99


def test_perf_network_snapshot(benchmark):
    fleet = build_fleet(iridium_like(), "perf", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())

    snap = benchmark(network.snapshot, 0.0)
    assert len(snap.nodes) == 66 + 15


# -- observability overhead --------------------------------------------
# The engine's hot loop is instrumented (see repro.simulation.engine);
# the contract is that the default NullRecorder keeps the disabled path
# within noise of uninstrumented code.  Compare these two benches to see
# what an active recorder costs per event.

_OBS_BENCH_EVENTS = 20_000


def _run_engine_burst():
    from repro.simulation.engine import SimulationEngine

    engine = SimulationEngine()
    for index in range(_OBS_BENCH_EVENTS):
        engine.schedule(float(index), lambda: None, label="bench")
    engine.run()
    return engine.processed_count


def test_perf_engine_throughput_obs_disabled(benchmark):
    assert obs.active() is obs.NULL_RECORDER
    processed = benchmark(_run_engine_burst)
    assert processed == _OBS_BENCH_EVENTS


def test_perf_engine_throughput_obs_enabled(benchmark):
    def run_with_recorder():
        with obs.use(obs.Recorder()):
            return _run_engine_burst()

    processed = benchmark(run_with_recorder)
    assert processed == _OBS_BENCH_EVENTS
