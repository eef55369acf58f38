"""Ablation (paper Discussion Q2): runtime load-adaptive routing.

Paper claim: "peak loads at certain ground stations may necessitate
re-routing of traffic to a ground station that is further away but is
idle; in this case, a computation of the trade-off between longer routing
distance vs queuing and job completion times is necessary at runtime."

A burst of flows from one region hammers its nearest gateway; static
proactive routing keeps piling onto it while the load-adaptive router
diverts to farther idle gateways.  Flow completion time and gateway load
spread are the reported trade.
"""

from conftest import print_table

import numpy as np

from repro.core.interop import SizeClass
from repro.routing.adaptive import (
    LoadAdaptiveRouter,
    StaticNearestRouter,
    gateway_load_profile,
)
from repro.simulation.flowsim import FlowSimulator
from repro.simulation.scenario import Scenario
from repro.simulation.traffic import FlowSpec


def _hotspot_workload(count=40, size_mb=40.0):
    """A flash crowd: many users in one metro burst simultaneously."""
    return [
        FlowSpec(f"f{i}", f"user-{i % 8}", start_s=i * 0.05,
                 size_bytes=size_mb * 1e6)
        for i in range(count)
    ]


def _build_snapshot():
    scenario = Scenario(
        name="hotspot", satellite_count=66,
        operator_names=("op-a", "op-b"), size_mix=(SizeClass.MEDIUM,),
        user_count=8, seed=23,
    )
    network = scenario.build_network()
    population = scenario.build_population()
    # Cluster the users around Nairobi to create the hotspot.
    from repro.orbits.coordinates import GeodeticPoint
    rng = np.random.default_rng(23)
    for user in population.users:
        user.location = GeodeticPoint(
            -1.29 + float(rng.normal(0, 1.0)),
            36.82 + float(rng.normal(0, 1.0)),
        )
        user.min_elevation_deg = 10.0
    snap = network.snapshot(0.0, users=population.users)
    # Throttle ground links so the hotspot gateway saturates quickly.
    stations = set(snap.nodes_of_kind("ground_station"))
    at_station = np.array([node in stations for node in snap.nodes])
    edges = snap.edges
    ground = at_station[edges.u] | at_station[edges.v]
    snap.edges = edges._replace(capacity_bps=np.where(
        ground, np.minimum(edges.capacity_bps, 150e6), edges.capacity_bps))
    return snap


def test_adaptive_vs_static_under_hotspot(benchmark):
    snap = _build_snapshot()
    flows = _hotspot_workload()

    def run_both():
        static = FlowSimulator(snap, StaticNearestRouter(snap)).run(flows)
        adaptive_router = LoadAdaptiveRouter(snap)
        adaptive = FlowSimulator(snap, adaptive_router).run(flows)
        return static, adaptive, adaptive_router

    static, adaptive, adaptive_router = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    rows = [
        {
            "router": "static-nearest",
            "mean_fct_s": static.mean_completion_time_s(),
            "mean_rate_mbps": static.mean_throughput_bps() / 1e6,
            "gateways_used": len(
                gateway_load_profile(static.completed, snap)
            ),
        },
        {
            "router": "load-adaptive",
            "mean_fct_s": adaptive.mean_completion_time_s(),
            "mean_rate_mbps": adaptive.mean_throughput_bps() / 1e6,
            "gateways_used": len(
                gateway_load_profile(adaptive.completed, snap)
            ),
        },
    ]
    print_table("Hotspot flash crowd: static vs load-adaptive routing",
                rows, ["router", "mean_fct_s", "mean_rate_mbps",
                       "gateways_used"])
    print(f"diversions to farther gateways: {adaptive_router.diversions}")

    # Both accept the workload.
    assert static.acceptance_ratio == 1.0
    assert adaptive.acceptance_ratio == 1.0
    # The paper's runtime trade-off pays off: adaptive completes flows
    # faster by spreading across more gateways.
    assert (adaptive.mean_completion_time_s()
            < static.mean_completion_time_s())
    assert rows[1]["gateways_used"] >= rows[0]["gateways_used"]
    assert adaptive_router.diversions > 0
