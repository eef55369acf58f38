"""Ablation (paper §4): incremental deployment via store-and-forward.

The paper asks "how small initial deployments can be ... to achieve a
starting point from which the system can scale."  Sparse fleets rarely
have an instantaneous relay path, but orbits are public, so bundles can
ride satellites between contacts.  This ablation sweeps fleet size and
compares instantaneous-path delivery against time-expanded
store-and-forward delivery over a one-hour contact plan.
"""

from conftest import print_table

import numpy as np

from repro.isl.topology import IslNode, IslTopologyBuilder
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.orbits.visibility import elevation_angle
from repro.orbits.walker import random_constellation
from repro.phy.rf import standard_sband_isl_terminal
from repro.routing.timeexpanded import (
    ContactEpoch,
    Contacts,
    TimeExpandedRouter,
)

USER_SITE = GeodeticPoint(-1.29, 36.82)      # Nairobi
GATEWAY_SITE = GeodeticPoint(50.11, 8.68)    # Frankfurt
EPOCH_STEP_S = 120.0
HORIZON_S = 3600.0


def _snapshots_with_ground(constellation):
    """Contact epochs: the ISL topology plus user/gateway access
    contacts."""
    import math
    count = len(constellation)
    nodes = [
        IslNode(f"s{i}", [standard_sband_isl_terminal()], max_degree=4)
        for i in range(count)
    ]
    builder = IslTopologyBuilder(nodes)
    snapshots = []
    mask = math.radians(5.0)
    for time_s in np.arange(0.0, HORIZON_S, EPOCH_STEP_S):
        positions = {
            f"s{i}": p
            for i, p in enumerate(constellation.positions_at(float(time_s)))
        }
        links = builder.snapshot(float(time_s), positions).links
        u = [links.node_a]
        v = [links.node_b]
        delay = [links.distance_km / SPEED_OF_LIGHT_KM_S]
        for node, site in ((count, USER_SITE), (count + 1, GATEWAY_SITE)):
            site_eci = ecef_to_eci(site.ecef(), float(time_s))
            seen = [i for i in range(count)
                    if elevation_angle(site_eci, positions[f"s{i}"]) >= mask]
            u.append(np.full(len(seen), node))
            v.append(np.array(seen, dtype=np.int64))
            delay.append(np.full(len(seen), 0.005))
        snapshots.append(ContactEpoch(
            float(time_s),
            [node.node_id for node in nodes] + ["user", "gateway"],
            Contacts(np.concatenate(u), np.concatenate(v),
                     np.concatenate(delay)),
        ))
    return snapshots


def _sweep(fleet_sizes, seed=31):
    rng = np.random.default_rng(seed)
    rows = []
    for size in fleet_sizes:
        constellation = random_constellation(size, rng)
        snapshots = _snapshots_with_ground(constellation)
        router = TimeExpandedRouter(snapshots)
        # Instantaneous: delivered iff epoch 0 has a full path (no waits).
        route = router.earliest_arrival("user", "gateway", 0.0)
        instantaneous = route is not None and route.epochs_waited == 0
        rows.append({
            "satellites": size,
            "instantaneous": 1.0 if instantaneous else 0.0,
            "store_and_forward": 1.0 if route is not None else 0.0,
            "delivery_delay_s": (
                route.delivery_delay_s if route is not None else float("nan")
            ),
            "epochs_waited": (
                route.epochs_waited if route is not None else -1
            ),
        })
    return rows


def test_store_and_forward_for_sparse_fleets(benchmark):
    rows = benchmark.pedantic(
        _sweep, args=((3, 6, 10, 16, 24, 40),), rounds=1, iterations=1
    )
    print_table(
        "Sparse-deployment delivery: instantaneous vs store-and-forward "
        "(one-hour plan)",
        rows,
        ["satellites", "instantaneous", "store_and_forward",
         "delivery_delay_s", "epochs_waited"],
    )

    delivered_sf = [r for r in rows if r["store_and_forward"] > 0]
    delivered_instant = [r for r in rows if r["instantaneous"] > 0]
    # Store-and-forward strictly dominates instantaneous delivery.
    assert len(delivered_sf) >= len(delivered_instant)
    # The incremental-deployment claim: even very small fleets deliver
    # once bundles may wait onboard.
    small = [r for r in rows if r["satellites"] <= 10]
    assert any(r["store_and_forward"] > 0 for r in small)
    # Large fleets converge to instantaneous delivery.
    largest = rows[-1]
    assert largest["store_and_forward"] == 1.0
    # Delivery delay shrinks (or stays flat) as the fleet grows.
    delays = [r["delivery_delay_s"] for r in rows
              if r["store_and_forward"] > 0]
    assert delays[-1] <= delays[0]
