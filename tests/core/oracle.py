"""The scalar user overlay the access-link pricer is checked against.

``OpenSpaceNetwork.snapshot(t, users=...)`` and
``OpenSpaceNetwork.gateway_probe_paths`` price every user access link in
one array pass.  This module keeps the per-user loop that pass replaced:
one elevation pass per user over the alive fleet, and one scalar
``rf_link_budget`` per satellite above the user's mask, each closing link
added to the graph as it is found.  It is slow and obviously right, which
is all a referee needs to be.
"""

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.network import NetworkSnapshot
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.visibility import elevation_angles
from repro.phy.modulation import achievable_rate_bps
from repro.phy.rf import rf_link_budget


def add_user_edges(graph, user, alive, positions, time_s) -> None:
    """Attach one user node and its access links to ``graph``."""
    user_pos = user.position_eci(time_s)
    graph.add_node(user.user_id, kind="user", owner=user.home_provider)
    if not alive:
        return
    mask_rad = math.radians(user.min_elevation_deg)
    alive_matrix = np.stack([positions[spec.satellite_id] for spec in alive])
    elevations = elevation_angles(user_pos, alive_matrix)
    deltas = alive_matrix - user_pos
    distances = np.sqrt((deltas * deltas).sum(axis=-1))
    for index in np.nonzero(elevations >= mask_rad)[0]:
        spec = alive[int(index)]
        distance = float(distances[index])
        capacity = 0.0
        if spec.ground_terminal is not None:
            budget = rf_link_budget(
                spec.ground_terminal, user.terminal, distance,
                elevation_rad=float(elevations[index]),
            )
            capacity = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
        if capacity <= 0.0:
            continue
        graph.add_edge(
            user.user_id, spec.satellite_id,
            delay_s=distance / SPEED_OF_LIGHT_KM_S,
            capacity_bps=capacity,
            owner=spec.owner,
            kind="access_link",
        )


def user_snapshot(network, time_s: float,
                  users: Sequence) -> NetworkSnapshot:
    """``network.snapshot(time_s, users=users)``, overlaid user by user."""
    base = network.snapshot(time_s)
    graph = base.graph.copy()
    alive = [spec for spec in network.satellites
             if spec.satellite_id not in network.failed_satellites]
    for user in users:
        add_user_edges(graph, user, alive, base.isl_snapshot.positions,
                       time_s)
    return NetworkSnapshot(time_s=time_s, graph=graph,
                           isl_snapshot=base.isl_snapshot)


def probe(network, time_s: float, user,
          cost_model=None) -> Optional[List[str]]:
    """One user's nearest-gateway path over the scalar overlay, or None."""
    snap = user_snapshot(network, time_s, [user])
    metrics = snap.nearest_ground_station_route(user.user_id, cost_model)
    return None if metrics is None else list(metrics.path)
