"""The graph-built network assembly the array snapshots are checked against.

``OpenSpaceNetwork`` assembles every snapshot as arrays and derives its
networkx ``.graph`` view, CSR compiles, probes and digest from them.
This module keeps the assembly those arrays replaced, one networkx edit
at a time:

* the ISL graph of the scalar greedy (``tests/isl/oracle.py``);
* a copy of it with the satellite attributes, minus the failed links;
* each alive ground station attached with one scalar ``rf_link_budget``
  per satellite above its mask;
* a copy of that with the users overlaid one at a time, again one scalar
  budget per satellite above the user's mask.

It is slow and obviously right, which is all a referee needs to be.
:func:`satellite_positions` reads the fleet positions every snapshot
builds on, keyed by satellite id, and :func:`budget_at` splits one row
out of a batch of array link budgets as the scalar budget it must equal.
"""

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.network import content_digest
from repro.ground.station import GATEWAY_QUEUE_DELAY_S, VISITOR_TARIFF_PER_GB
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.phy.linkbudget import LinkBudget, LinkBudgetArrays
from repro.phy.modulation import achievable_rate_bps
from repro.phy.rf import rf_link_budget
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import PROPAGATION_ONLY
from tests.isl.oracle import oracle_graph
from tests.orbits.oracle import elevation_angles
from tests.routing import oracle as routing_oracle


def graph_digest(time_s: float, graph) -> str:
    """``NetworkSnapshot.digest`` of a graph: its nodes sorted by id, its
    edges as ``(min id, max id)`` pairs sorted."""
    return content_digest(
        time_s, sorted(graph.nodes(data=True)),
        sorted((min(a, b), max(a, b), data)
               for a, b, data in graph.edges(data=True)),
    )


class OracleSnapshot:
    """A graph-built snapshot: the combined graph and the ISL graph."""

    def __init__(self, time_s: float, graph, isl_graph):
        self.time_s = time_s
        self.graph = graph
        self.isl_graph = isl_graph

    def digest(self) -> str:
        return graph_digest(self.time_s, self.graph)

    def csr_adjacency(self, cost_model=None) -> CsrAdjacency:
        return CsrAdjacency.from_graph(self.graph,
                                       weight=cost_model or PROPAGATION_ONLY)

    def nodes_of_kind(self, kind: str) -> List[str]:
        return [node for node, data in self.graph.nodes(data=True)
                if data.get("kind") == kind]

    def nearest_ground_station_route(self, source: str):
        """Route from ``source`` to the first-listed station at the least
        distance, over the graph (None when no station is reachable)."""
        stations = self.nodes_of_kind("ground_station")
        if source not in self.graph or not stations:
            return None
        (path,) = routing_oracle.nearest_paths(self.csr_adjacency(),
                                               [source], stations)
        return None if path is None else routing_oracle.path_metrics(
            self.graph, path)


def satellite_positions(network, time_s: float) -> Dict[str, np.ndarray]:
    """ECI position of every satellite at ``time_s``, read from the
    network's fleet propagation, the one every snapshot builds on."""
    return dict(zip(network._fleet_ids, network._position_matrix(time_s)))


def budget_at(arrays: LinkBudgetArrays, index: int) -> LinkBudget:
    """The scalar :class:`LinkBudget` of one edge of a batch."""
    path_loss = np.broadcast_to(arrays.path_loss_db, (len(arrays),))
    extra = np.broadcast_to(arrays.extra_loss_db, (len(arrays),))
    return LinkBudget(
        tx_power_dbw=arrays.tx_power_dbw,
        tx_gain_dbi=arrays.tx_gain_dbi,
        rx_gain_dbi=arrays.rx_gain_dbi,
        path_loss_db=float(path_loss[index]),
        extra_loss_db=float(extra[index]),
        noise_power_dbw=arrays.noise_power_dbw,
        bandwidth_hz=arrays.bandwidth_hz,
    )


def _alive(network) -> list:
    return [spec for spec in network.satellites
            if spec.satellite_id not in network.failed_satellites]


def add_station_edges(graph, network, station, alive, positions,
                      time_s) -> None:
    """Attach one station node and its ground links to ``graph``."""
    station_pos = station.position_eci(time_s)
    graph.add_node(station.station_id, kind="ground_station",
                   owner=station.owner)
    if not alive:
        return
    mask_rad = math.radians(max(network.ground_elevation_mask_deg,
                                station.min_elevation_deg))
    alive_matrix = np.stack([positions[spec.satellite_id] for spec in alive])
    elevations = elevation_angles(station_pos, alive_matrix)
    deltas = alive_matrix - station_pos
    distances = np.sqrt((deltas * deltas).sum(axis=-1))
    for index in np.nonzero(elevations >= mask_rad)[0]:
        spec = alive[int(index)]
        distance = float(distances[index])
        capacity = 0.0
        if spec.ground_terminal is not None:
            budget = rf_link_budget(
                spec.ground_terminal,
                network._station_terminal(spec.ground_terminal.band_name),
                distance, elevation_rad=float(elevations[index]),
                rain_rate_mm_h=station.rain_rate_mm_h,
            )
            capacity = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
        if capacity <= 0.0:
            continue
        graph.add_edge(
            spec.satellite_id, station.station_id,
            delay_s=distance / SPEED_OF_LIGHT_KM_S,
            capacity_bps=min(float(capacity), station.backhaul_capacity_bps),
            owner=station.owner,
            tariff_per_gb=VISITOR_TARIFF_PER_GB,
            queue_delay_s=GATEWAY_QUEUE_DELAY_S,
            kind="ground_link",
        )


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


@lru_cache(maxsize=32)
def _base(network, fault_epoch: int, time_s: float) -> OracleSnapshot:
    positions = satellite_positions(network, time_s)
    builder = network._builder
    isl_graph = oracle_graph(builder.nodes, positions,
                             max_range_km=builder.max_range_km,
                             grazing_altitude_km=builder.grazing_altitude_km,
                             exclude=network.failed_satellites)
    graph = isl_graph.copy()
    alive = _alive(network)
    for spec in alive:
        graph.nodes[spec.satellite_id]["kind"] = "satellite"
        graph.nodes[spec.satellite_id]["owner"] = spec.owner
    for node_a, node_b in network.failed_links:
        if graph.has_edge(node_a, node_b):
            graph.remove_edge(node_a, node_b)
    for station in network.ground_stations:
        if station.station_id not in network.failed_stations:
            add_station_edges(graph, network, station, alive, positions,
                              time_s)
    return OracleSnapshot(time_s, graph, isl_graph)


def base_snapshot(network, time_s: float) -> OracleSnapshot:
    """``network.snapshot(time_s)``, assembled graph edit by graph edit.

    Cached per network, fault epoch and time; treat it as read-only.
    """
    return _base(network, network.fault_epoch, float(time_s))


def user_snapshot(network, time_s: float,
                  users: Sequence) -> OracleSnapshot:
    """``network.snapshot(time_s, users=users)``, overlaid user by user."""
    base = base_snapshot(network, time_s)
    graph = base.graph.copy()
    alive = _alive(network)
    positions = satellite_positions(network, time_s)
    for user in users:
        add_user_edges(graph, user, alive, positions, time_s)
    return OracleSnapshot(time_s, graph, base.isl_graph)


def probe(network, time_s: float, user) -> Optional[List[str]]:
    """One user's nearest-gateway path over the oracle overlay, or None."""
    snap = user_snapshot(network, time_s, [user])
    metrics = snap.nearest_ground_station_route(user.user_id)
    return None if metrics is None else list(metrics.path)
