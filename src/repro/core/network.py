"""The OpenSpaceNetwork facade.

Ties the federated fleet, the shared ground-station network, and user
terminals into one time-varying graph, and answers the end-to-end
questions the paper's evaluation asks: what is the latency from a user to
ground infrastructure, and what fraction of the Earth does the system
cover.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import obs as _obs
from repro.core.federation import Federation
from repro.core.interop import SpacecraftSpec
from repro.ground.station import GroundStation
from repro.ground.user import UserTerminal
from repro.isl.topology import (
    IslTopologyBuilder,
    TopologyDelta,
    TopologySnapshot,
)
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.kepler import KeplerPropagator, batch_positions
from repro.orbits.visibility import elevation_angles
from repro.phy.modulation import achievable_rate_bps_array
from repro.phy.rf import RFTerminal, rf_link_budget_arrays

# The scalar oracles of the array budgets stay importable from here,
# where benchmarks/e2e/tracer.py looks them up.
from repro.phy.modulation import achievable_rate_bps  # noqa: F401
from repro.phy.rf import rf_link_budget  # noqa: F401
from repro.routing.csr import (
    NO_PREDECESSOR,
    CsrAdjacency,
    block_diagonal_dijkstra,
)
from repro.routing.metrics import (
    PROPAGATION_ONLY,
    EdgeCostModel,
    RouteMetrics,
    path_metrics,
)


#: User x satellite pairs per chunk of the access-link elevation pass, so
#: each ``(users, satellites, 3)`` float64 temporary stays under ~1 MB.
_ACCESS_CHUNK_PAIRS = 40_000


def _value_codes(items: Sequence, rows: np.ndarray) -> Tuple[list, np.ndarray]:
    """Group ``items[rows]`` by value: the distinct values, and each row's
    index into them.  Only the distinct rows' items are hashed."""
    seen, inverse = np.unique(rows, return_inverse=True)
    codes: Dict[object, int] = {}
    index = [codes.setdefault(items[row], len(codes)) for row in seen.tolist()]
    return list(codes), np.asarray(index, dtype=np.int64)[inverse]


@dataclass(frozen=True)
class SnapshotDelta:
    """What changed between one base snapshot and the previous one.

    Recorded by :class:`OpenSpaceNetwork` on every base-snapshot build
    (see :attr:`OpenSpaceNetwork.last_snapshot_delta`) so incremental
    consumers — route invalidation, churn accounting, the scale sweep —
    know exactly which edges moved without diffing graphs themselves.

    Attributes:
        time_s: The new snapshot's timestamp.
        base_time_s: The previous snapshot's timestamp (None on a full
            rebuild with no usable predecessor).
        isl: The ISL-layer edge delta, or None on a full rebuild.
        ground_appeared: Station links present now but not previously.
        ground_disappeared: Station links present previously, gone now.
        structure_unchanged: True when the combined edge set (ISLs and
            ground links) is identical to the previous snapshot's, which
            lets cached CSR adjacencies be reused structurally.
        full_rebuild: True when the snapshot was assembled from scratch
            (first build, fault-state change, or delta disabled).
    """

    time_s: float
    base_time_s: Optional[float]
    isl: Optional[TopologyDelta]
    ground_appeared: Tuple[Tuple[str, str], ...] = ()
    ground_disappeared: Tuple[Tuple[str, str], ...] = ()
    structure_unchanged: bool = False
    full_rebuild: bool = False

    @property
    def changed_edge_count(self) -> int:
        isl_changed = self.isl.changed_count if self.isl is not None else 0
        return (isl_changed + len(self.ground_appeared)
                + len(self.ground_disappeared))

    @property
    def disappeared_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Every edge that vanished, ISL and ground alike — the set to
        feed :meth:`~repro.routing.proactive.ProactiveRouter.
        invalidate_routes_through_edges`."""
        isl_gone = self.isl.disappeared if self.isl is not None else ()
        return tuple(isl_gone) + tuple(self.ground_disappeared)


@dataclass
class NetworkSnapshot:
    """The whole-network graph at one instant.

    Nodes carry a ``kind`` attribute (``"satellite"``, ``"ground_station"``
    or ``"user"``) and an ``owner`` attribute; edges carry ``delay_s``,
    ``capacity_bps`` and (for ground edges) ``owner``, ``tariff_per_gb``,
    ``queue_delay_s``.

    Attributes:
        time_s: Snapshot timestamp.
        graph: The combined graph.
        isl_snapshot: The satellite-only topology this was built from.
    """

    time_s: float
    graph: nx.Graph
    isl_snapshot: TopologySnapshot
    #: Per-cost-model CSR adjacencies, built lazily and kept alongside the
    #: snapshot so every router sharing the snapshot shares the arrays.
    _csr_cache: Dict[EdgeCostModel, CsrAdjacency] = field(
        default_factory=dict, repr=False, compare=False,
    )
    #: A structurally identical predecessor snapshot (set by the delta
    #: build path when no edges appeared or disappeared); its cached
    #: adjacencies seed ours via ``structure_clone`` instead of a full
    #: CSR rebuild.
    _csr_source: Optional["NetworkSnapshot"] = field(
        default=None, repr=False, compare=False,
    )

    def csr_adjacency(self, cost_model: Optional[EdgeCostModel] = None,
                      ) -> CsrAdjacency:
        """The snapshot's CSR adjacency under a cost model (cached)."""
        model = cost_model or PROPAGATION_ONLY
        adjacency = self._csr_cache.get(model)
        if adjacency is None:
            source = self._csr_source
            if source is not None:
                template = source._csr_cache.get(model)
                if template is not None:
                    adjacency = template.structure_clone(self.graph)
            if adjacency is None:
                adjacency = CsrAdjacency.from_graph(self.graph, weight=model)
            self._csr_cache[model] = adjacency
        return adjacency

    def digest(self) -> str:
        """Canonical content hash of the snapshot graph.

        Nodes and edges are serialized in sorted order with sorted
        attribute keys, so the digest depends only on graph *content* —
        never on insertion order.  This is the equality witness the
        delta-vs-full-rebuild gates compare: a delta-built snapshot must
        hash identically to a from-scratch build at the same instant.
        """
        hasher = hashlib.sha256()
        hasher.update(repr(self.time_s).encode())
        for node, data in sorted(self.graph.nodes(data=True)):
            hasher.update(repr((node, sorted(data.items()))).encode())
        for node_a, node_b, data in sorted(
            (min(a, b), max(a, b), d)
            for a, b, d in self.graph.edges(data=True)
        ):
            hasher.update(
                repr((node_a, node_b, sorted(data.items()))).encode()
            )
        return hasher.hexdigest()

    def route(self, source: str, target: str,
              cost_model: Optional[EdgeCostModel] = None,
              ) -> Optional[RouteMetrics]:
        """Cheapest route between two nodes, or None when disconnected."""
        if source not in self.graph or target not in self.graph:
            return None
        adjacency = self.csr_adjacency(cost_model)
        path = adjacency.single_source(source).path(source, target)
        if path is None:
            return None
        return path_metrics(self.graph, path)

    def nodes_of_kind(self, kind: str) -> List[str]:
        return [
            node for node, data in self.graph.nodes(data=True)
            if data.get("kind") == kind
        ]

    def nearest_ground_station_route(
        self, source: str,
        cost_model: Optional[EdgeCostModel] = None,
    ) -> Optional[RouteMetrics]:
        """Best route from a node to any ground station.

        One single-source Dijkstra (the snapshot memoizes it per source)
        covers every station.
        """
        if source not in self.graph:
            return None
        paths = self.csr_adjacency(cost_model).single_source(source)
        best: Optional[RouteMetrics] = None
        for station in self.nodes_of_kind("ground_station"):
            path = paths.path(source, station)
            if path is None:
                continue
            metrics = path_metrics(self.graph, path)
            if best is None or metrics.total_delay_s < best.total_delay_s:
                best = metrics
        return best


class OpenSpaceNetwork:
    """Builds :class:`NetworkSnapshot` objects for a federated deployment.

    Args:
        satellites: The federated fleet (from
            :meth:`Federation.all_satellites` or assembled directly).
        ground_stations: The shared gateway network.
        max_isl_range_km: ISL range limit passed to the topology builder.
        ground_elevation_mask_deg: Minimum elevation for ground links.
        gateway_dish_m: Station-side dish diameter used when deriving the
            station terminal matched to each satellite's ground band.
        snapshot_cache_size: Maximum cached :meth:`snapshot` results
            (LRU).  ``0`` disables caching entirely.
        snapshot_cache_quantum_s: Time-bucket width for cache keys.  The
            default ``0.0`` keys on the exact request time (a hit
            requires the same instant); a positive quantum trades
            sub-quantum staleness for hits across nearby times.
        snapshot_delta: Build each base snapshot as a delta on the
            previous one (graph copy + changed edges) instead of from
            scratch.  Content is byte-identical either way (see
            :meth:`NetworkSnapshot.digest`); ``False`` restores the
            always-full-rebuild path, the oracle the digest gates
            compare against.
    """

    def __init__(self, satellites: Sequence[SpacecraftSpec],
                 ground_stations: Sequence[GroundStation] = (),
                 max_isl_range_km: float = 6000.0,
                 ground_elevation_mask_deg: float = 10.0,
                 gateway_dish_m: float = 3.5,
                 snapshot_cache_size: int = 64,
                 snapshot_cache_quantum_s: float = 0.0,
                 snapshot_delta: bool = True):
        if not satellites:
            raise ValueError("need at least one satellite")
        if snapshot_cache_size < 0:
            raise ValueError(
                f"cache size must be >= 0, got {snapshot_cache_size}"
            )
        self.satellites = list(satellites)
        self.ground_stations = list(ground_stations)
        self.ground_elevation_mask_deg = ground_elevation_mask_deg
        self.gateway_dish_m = gateway_dish_m
        self._builder = IslTopologyBuilder(
            [spec.to_isl_node() for spec in self.satellites],
            max_range_km=max_isl_range_km,
        )
        self._propagators = {
            spec.satellite_id: KeplerPropagator(spec.elements)
            for spec in self.satellites
        }
        self._propagator_order = list(self._propagators.items())
        self._spec_by_id = {
            spec.satellite_id: spec for spec in self.satellites
        }
        self._station_by_id = {
            station.station_id: station for station in self.ground_stations
        }
        self._failed_satellites: frozenset = frozenset()
        self._failed_stations: frozenset = frozenset()
        self._failed_links: frozenset = frozenset()
        self.snapshot_cache_size = snapshot_cache_size
        self.snapshot_cache_quantum_s = snapshot_cache_quantum_s
        self._fault_epoch = 0
        self._snapshot_cache: "OrderedDict[tuple, NetworkSnapshot]" = (
            OrderedDict()
        )
        self.snapshot_delta_enabled = snapshot_delta
        #: The delta recorded by the most recent base-snapshot build.
        self.last_snapshot_delta: Optional[SnapshotDelta] = None
        #: Cumulative build accounting (deterministic per call sequence).
        self.delta_stats: Dict[str, int] = {
            "full_builds": 0,
            "delta_builds": 0,
            "edges_appeared": 0,
            "edges_disappeared": 0,
            "edges_persisted": 0,
            "structure_reuses": 0,
        }
        self._delta_prev: Optional[NetworkSnapshot] = None
        self._delta_prev_epoch: int = -1
        self._delta_prev_ground: FrozenSet[Tuple[str, str]] = frozenset()
        self._primed_positions: Dict[float, Dict[str, np.ndarray]] = {}

    @classmethod
    def from_federation(cls, federation: Federation,
                        **kwargs) -> "OpenSpaceNetwork":
        """Build from a federation's active (non-quarantined) members."""
        return cls(
            satellites=federation.all_satellites(),
            ground_stations=federation.all_ground_stations(),
            **kwargs,
        )

    # -- fault state ---------------------------------------------------
    # The repro.faults injector drives these; snapshot() consults them so
    # failed elements vanish from the graph exactly as if the network had
    # been built from the surviving fleet alone (degree slots included).

    def set_fault_state(self, failed_satellites: Sequence[str] = (),
                        failed_stations: Sequence[str] = (),
                        failed_links: Sequence[Tuple[str, str]] = ()) -> None:
        """Replace the set of currently failed elements.

        Args:
            failed_satellites: Satellite ids excluded from every snapshot.
            failed_stations: Ground-station ids excluded likewise.
            failed_links: Satellite-id pairs whose ISL (if built) is
                severed; order within a pair does not matter.

        Raises:
            ValueError: For ids this network has never heard of — the
                injector filters unknown targets, so an unknown id here
                is a caller bug worth failing loudly on.
        """
        unknown = [s for s in failed_satellites if s not in self._spec_by_id]
        unknown += [s for s in failed_stations if s not in self._station_by_id]
        for node_a, node_b in failed_links:
            unknown += [n for n in (node_a, node_b)
                        if n not in self._spec_by_id]
        if unknown:
            raise ValueError(f"unknown elements in fault state: {unknown}")
        self._failed_satellites = frozenset(failed_satellites)
        self._failed_stations = frozenset(failed_stations)
        self._failed_links = frozenset(
            tuple(sorted(pair)) for pair in failed_links
        )
        self.invalidate_snapshot_cache()

    def clear_fault_state(self) -> None:
        """Restore every element to service."""
        self._failed_satellites = frozenset()
        self._failed_stations = frozenset()
        self._failed_links = frozenset()
        self.invalidate_snapshot_cache()

    # -- snapshot cache ------------------------------------------------
    # Snapshots are pure functions of (time, fault state, user set), so
    # repeated queries inside flowsim/sessionsim/handover loops reuse the
    # built graph instead of re-running propagation, the greedy ISL
    # assignment, and every link budget.  The fault injector invalidates
    # implicitly: every set_fault_state()/clear_fault_state() bumps the
    # fault epoch that is part of every cache key.

    @property
    def fault_epoch(self) -> int:
        """Monotone counter bumped on every fault-state change."""
        return self._fault_epoch

    def invalidate_snapshot_cache(self) -> None:
        """Drop every cached snapshot and start a new fault epoch."""
        self._fault_epoch += 1
        self._snapshot_cache.clear()

    def _cache_key(self, time_s: float,
                   users: Sequence[UserTerminal]) -> Optional[tuple]:
        """Cache key for a snapshot request, or None when uncacheable."""
        if self.snapshot_cache_size <= 0:
            return None
        quantum = self.snapshot_cache_quantum_s
        time_key = (
            float(time_s) if quantum <= 0.0
            else int(round(time_s / quantum))
        )
        try:
            users_key = tuple(
                (user.user_id, user.location, user.min_elevation_deg)
                for user in users
            )
        except TypeError:  # unhashable location — skip caching, stay correct
            return None
        return (time_key, self._fault_epoch, users_key)

    def _cache_get(self, key: Optional[tuple]) -> Optional["NetworkSnapshot"]:
        if key is None:
            return None
        snap = self._snapshot_cache.get(key)
        recorder = _obs.active()
        if snap is not None:
            self._snapshot_cache.move_to_end(key)
            if recorder.enabled:
                recorder.count("network.snapshot_cache.hit")
        elif recorder.enabled:
            recorder.count("network.snapshot_cache.miss")
        return snap

    def _cache_put(self, key: Optional[tuple],
                   snap: "NetworkSnapshot") -> None:
        if key is None:
            return
        self._snapshot_cache[key] = snap
        while len(self._snapshot_cache) > self.snapshot_cache_size:
            self._snapshot_cache.popitem(last=False)

    @property
    def failed_satellites(self) -> frozenset:
        return self._failed_satellites

    @property
    def failed_stations(self) -> frozenset:
        return self._failed_stations

    @property
    def failed_links(self) -> frozenset:
        return self._failed_links

    @property
    def has_faults(self) -> bool:
        return bool(self._failed_satellites or self._failed_stations
                    or self._failed_links)

    def prime_positions(self, times_s: Sequence[float]) -> int:
        """Precompute satellite positions for a whole epoch grid.

        One batched ``(N, T)`` propagation replaces T per-epoch fleet
        solves; subsequent :meth:`snapshot` / :meth:`satellite_positions`
        calls at exactly these times reuse the cached columns.

        Primed grids are **bitwise identical** to per-epoch solves: the
        Kepler batch path solves each element to the same bits at every
        grid width, and the frame rotation multiplies through a
        materialized-contiguous matrix so numpy dispatches the same
        matmul kernel regardless of how many epochs ride along (see
        ``repro.orbits.kepler``; pinned by
        ``tests/core/test_network_cache.py``).  Priming is therefore
        purely an optimization — digest gates pass with one side primed
        and the other not.

        Returns:
            The number of epochs primed.
        """
        times = [float(t) for t in times_s]
        if not times:
            return 0
        propagators = [prop for _, prop in self._propagator_order]
        positions = batch_positions(propagators, times)
        for column, time_s in enumerate(times):
            self._primed_positions[time_s] = {
                sat_id: positions[index, column]
                for index, (sat_id, _) in enumerate(self._propagator_order)
            }
        return len(times)

    def clear_primed_positions(self) -> None:
        self._primed_positions.clear()

    def satellite_positions(self, time_s: float) -> Dict[str, np.ndarray]:
        """ECI position of every satellite at ``time_s``.

        One batched propagation for the whole fleet (see
        :func:`~repro.orbits.kepler.batch_positions`), unless the
        instant was primed via :meth:`prime_positions`.
        """
        primed = self._primed_positions.get(float(time_s))
        if primed is not None:
            return primed
        propagators = [prop for _, prop in self._propagator_order]
        positions = batch_positions(propagators, time_s)[:, 0, :]
        return {
            sat_id: positions[index]
            for index, (sat_id, _) in enumerate(self._propagator_order)
        }

    def satellite_positions_over(self, times_s) -> Dict[str, np.ndarray]:
        """ECI positions over a time grid; ``{sat_id: (T, 3) array}``."""
        propagators = [prop for _, prop in self._propagator_order]
        positions = batch_positions(propagators, times_s)
        return {
            sat_id: positions[index]
            for index, (sat_id, _) in enumerate(self._propagator_order)
        }

    def _station_terminal(self, band_name: str) -> RFTerminal:
        """The gateway dish a station points at a satellite's ground band."""
        return RFTerminal(
            band_name=band_name,
            tx_power_w=50.0,
            dish_diameter_m=self.gateway_dish_m,
            noise_temp_k=180.0,
            mass_kg=400.0,
            unit_cost_usd=500_000.0,
        )

    @staticmethod
    def _ground_attrs(station: GroundStation, capacity: float,
                      distance: float) -> dict:
        """Edge attributes of a usable satellite-station link."""
        return {
            "delay_s": distance / SPEED_OF_LIGHT_KM_S,
            "capacity_bps": min(capacity, station.backhaul_capacity_bps),
            "owner": station.owner,
            "tariff_per_gb": station.visitor_tariff_per_gb(),
            "queue_delay_s": station.queue_delay_s(),
            "kind": "ground_link",
        }

    @staticmethod
    def _access_attrs(spec: SpacecraftSpec, capacity: float,
                      distance: float) -> dict:
        """Edge attributes of a usable user-satellite access link."""
        return {
            "delay_s": distance / SPEED_OF_LIGHT_KM_S,
            "capacity_bps": capacity,
            "owner": spec.owner,
            "kind": "access_link",
        }

    def snapshot(self, time_s: float,
                 users: Sequence[UserTerminal] = ()) -> NetworkSnapshot:
        """Build the whole-network graph at one instant.

        Satellites are joined by the ISL topology builder; each ground
        station connects to every satellite above its elevation mask whose
        ground link closes; each user connects to every satellite above
        the user's mask whose access link closes (capacity from the
        satellite's ground terminal and the user's terminal).

        Elements named in the current fault state (see
        :meth:`set_fault_state`) are excluded: failed satellites never
        enter the ISL build, failed stations take no node, and failed
        links lose their edge even when geometry would close it.

        Results are cached per ``(time bucket, fault epoch, user set)``
        — repeated queries for the same instant return the **same**
        :class:`NetworkSnapshot` object, so treat snapshot graphs as
        read-only.  A snapshot with users copies the no-user base graph
        and adds every user's access links from one array pass
        (:meth:`_price_access_links`, shared with
        :meth:`gateway_probe_paths`): the user nodes first, then the
        links user by user, satellites in fleet order.
        """
        key = self._cache_key(time_s, users)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        base = self._base_snapshot(time_s)
        if not users:
            self._cache_put(key, base)
            return base
        users = list(users)
        alive = self._alive_satellites()
        user_rows, sat_rows, distances, capacities = self._price_access_links(
            time_s, users, alive, base.isl_snapshot.positions
        )
        graph = base.graph.copy()
        for user in users:
            graph.add_node(user.user_id, kind="user", owner=user.home_provider)
        graph.add_edges_from(
            (users[row].user_id, alive[column].satellite_id,
             self._access_attrs(alive[column], capacity, distance))
            for row, column, distance, capacity in zip(
                user_rows.tolist(), sat_rows.tolist(), distances.tolist(),
                capacities.tolist(),
            )
        )
        snap = NetworkSnapshot(time_s=time_s, graph=graph,
                               isl_snapshot=base.isl_snapshot)
        self._cache_put(key, snap)
        return snap

    def _price_access_links(
        self, time_s: float, users: Sequence[UserTerminal],
        alive: Sequence[SpacecraftSpec], positions: Dict[str, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every user access link that closes, priced in one array pass.

        One elevation pass over users x ``alive`` satellites, in chunks
        of users that keep each geometry temporary near 1 MB; slant
        ranges only for the pairs above each user's mask; one
        :func:`~repro.phy.rf.rf_link_budget_arrays` call per (satellite
        ground terminal, user terminal) group.  Satellites without a
        ground terminal price at zero, and zero-capacity links are
        dropped.  Every value equals the scalar per-user overlay's, bit
        for bit (the oracle in ``tests/core/oracle.py``).

        Returns:
            ``(user_rows, sat_rows, distances_km, capacities_bps)``, one
            entry per closing link, indexing ``users`` and ``alive``;
            user-major, satellites ascending within each user.
        """
        if not users or not alive:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), np.empty(0)
        sat_matrix = np.stack([positions[spec.satellite_id] for spec in alive])
        user_matrix = np.stack([user.position_eci(time_s) for user in users])
        masks = np.array([math.radians(user.min_elevation_deg)
                          for user in users])
        chunk = max(1, _ACCESS_CHUNK_PAIRS // len(alive))
        user_parts, sat_parts, elevation_parts = [], [], []
        for start in range(0, len(users), chunk):
            elevations = elevation_angles(
                user_matrix[start:start + chunk, None, :], sat_matrix[None]
            )
            rows, columns = np.nonzero(
                elevations >= masks[start:start + chunk, None]
            )
            user_parts.append(rows + start)
            sat_parts.append(columns)
            elevation_parts.append(elevations[rows, columns])
        user_rows = np.concatenate(user_parts)
        sat_rows = np.concatenate(sat_parts)
        elevations = np.concatenate(elevation_parts)
        deltas = sat_matrix[sat_rows] - user_matrix[user_rows]
        distances = np.sqrt((deltas * deltas).sum(axis=-1))

        sat_terminals, sat_codes = _value_codes(
            [spec.ground_terminal for spec in alive], sat_rows
        )
        user_terminals, user_codes = _value_codes(
            [user.terminal for user in users], user_rows
        )
        groups = sat_codes * len(user_terminals) + user_codes
        capacities = np.zeros(user_rows.shape[0])
        for group in np.unique(groups).tolist():
            sat_terminal = sat_terminals[group // len(user_terminals)]
            if sat_terminal is None:
                continue
            rows = np.flatnonzero(groups == group)
            budgets = rf_link_budget_arrays(
                sat_terminal, user_terminals[group % len(user_terminals)],
                distances[rows], elevations_rad=elevations[rows],
            )
            capacities[rows] = achievable_rate_bps_array(
                budgets.snr_db, budgets.bandwidth_hz
            )
        keep = ~(capacities <= 0.0)
        return (user_rows[keep], sat_rows[keep], distances[keep],
                capacities[keep])

    def _base_snapshot(self, time_s: float) -> NetworkSnapshot:
        """The no-user snapshot (ISLs + ground stations), cached.

        Built as a delta on the previous base snapshot whenever one
        exists under the same fault epoch (and delta building is
        enabled); otherwise assembled from scratch.  Both paths produce
        content-identical snapshots — :meth:`NetworkSnapshot.digest` is
        the gate that keeps the delta path a proof, not a fork.
        """
        key = self._cache_key(time_s, ())
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        prev = self._delta_prev
        snap = None
        if (self.snapshot_delta_enabled and prev is not None
                and self._delta_prev_epoch == self._fault_epoch):
            snap = self._delta_base_snapshot(time_s, prev)
        if snap is None:
            snap = self._full_base_snapshot(time_s)
        # Only the immediate predecessor is kept as a CSR structure
        # template; breaking the older link bounds the chain at two
        # generations instead of retaining every epoch ever built.
        if prev is not None:
            prev._csr_source = None
        self._delta_prev = snap
        self._delta_prev_epoch = self._fault_epoch
        self._cache_put(key, snap)
        return snap

    def _alive_satellites(self) -> List[SpacecraftSpec]:
        return [
            spec for spec in self.satellites
            if spec.satellite_id not in self._failed_satellites
        ]

    def _attach_ground(self, graph: nx.Graph, time_s: float,
                       positions: Dict[str, np.ndarray],
                       alive: Sequence[SpacecraftSpec],
                       ) -> FrozenSet[Tuple[str, str]]:
        """Add station nodes + ground links; returns the link pairs."""
        alive_matrix = (
            np.stack([positions[spec.satellite_id] for spec in alive])
            if alive else np.empty((0, 3))
        )
        pairs = set()
        for station in self.ground_stations:
            if station.station_id in self._failed_stations:
                continue
            station_pos = station.position_eci(time_s)
            graph.add_node(
                station.station_id, kind="ground_station", owner=station.owner
            )
            if not alive:
                continue
            # One vectorized elevation pass per station; link budgets run
            # only for the satellites above the mask, one batched pass per
            # satellite ground terminal (the same values, edge for edge,
            # as a scalar rf_link_budget loop).
            elevations = elevation_angles(station_pos, alive_matrix)
            mask_rad = math.radians(max(
                self.ground_elevation_mask_deg, station.min_elevation_deg
            ))
            deltas = alive_matrix - station_pos
            distances = np.sqrt((deltas * deltas).sum(axis=-1))
            visible = np.flatnonzero(elevations >= mask_rad)
            groups: Dict[RFTerminal, List[int]] = {}
            for index in visible.tolist():
                terminal = alive[index].ground_terminal
                if terminal is not None:
                    groups.setdefault(terminal, []).append(index)
            capacities = np.zeros(len(alive))
            for terminal, indices in groups.items():
                rows = np.asarray(indices, dtype=np.int64)
                budgets = rf_link_budget_arrays(
                    terminal, self._station_terminal(terminal.band_name),
                    distances[rows], elevations_rad=elevations[rows],
                    rain_rate_mm_h=station.rain_rate_mm_h,
                )
                capacities[rows] = achievable_rate_bps_array(
                    budgets.snr_db, budgets.bandwidth_hz
                )
            for index in visible[~(capacities[visible] <= 0.0)].tolist():
                spec = alive[index]
                graph.add_edge(
                    spec.satellite_id, station.station_id,
                    **self._ground_attrs(station, float(capacities[index]),
                                         float(distances[index])),
                )
                pairs.add((spec.satellite_id, station.station_id))
        return frozenset(pairs)

    def _full_base_snapshot(self, time_s: float) -> NetworkSnapshot:
        """Assemble the base snapshot from scratch."""
        prev = self._delta_prev
        positions = self.satellite_positions(time_s)
        isl_snap = self._builder.snapshot(
            time_s, positions, exclude=self._failed_satellites or None
        )
        graph = isl_snap.graph.copy()
        alive = self._alive_satellites()
        for spec in alive:
            graph.nodes[spec.satellite_id]["kind"] = "satellite"
            graph.nodes[spec.satellite_id]["owner"] = spec.owner
        for node_a, node_b in self._failed_links:
            if graph.has_edge(node_a, node_b):
                graph.remove_edge(node_a, node_b)
        ground_pairs = self._attach_ground(graph, time_s, positions, alive)

        snap = NetworkSnapshot(time_s=time_s, graph=graph,
                               isl_snapshot=isl_snap)
        self._delta_prev_ground = ground_pairs
        self.last_snapshot_delta = SnapshotDelta(
            time_s=time_s,
            base_time_s=prev.time_s if prev is not None else None,
            isl=None,
            full_rebuild=True,
        )
        self.delta_stats["full_builds"] += 1
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("network.snapshot.full_build")
        return snap

    def _delta_base_snapshot(self, time_s: float,
                             prev: NetworkSnapshot,
                             ) -> Optional[NetworkSnapshot]:
        """Assemble the base snapshot as a delta on ``prev``.

        Returns None when no comparable previous topology exists (the
        participating node set changed), sending the caller down the
        full path.  The previous snapshot is never mutated — it may
        still be served from the snapshot cache.
        """
        positions = self.satellite_positions(time_s)
        isl_snap, isl_delta = self._builder.snapshot_delta(
            time_s, positions, exclude=self._failed_satellites or None,
            previous=prev.isl_snapshot,
        )
        if isl_delta.full_rebuild:
            return None
        graph = prev.graph.copy()
        failed = self._failed_links
        new_edges = isl_snap.graph.edges
        for pair in isl_delta.disappeared:
            if graph.has_edge(*pair):
                graph.remove_edge(*pair)
        for pair in isl_delta.appeared:
            if pair in failed:
                continue
            graph.add_edge(pair[0], pair[1], **new_edges[pair])
        for pair in isl_delta.persisted:
            if pair in failed:
                continue
            # Weight-refresh in place: the link was re-budgeted at the
            # new distance, but the edge (and the copied attr dict)
            # persists.
            graph.edges[pair].update(new_edges[pair])
        # Ground geometry moves every epoch (stations rotate with the
        # Earth), so station links are recomputed outright.
        stale_ground = [
            (u, v) for u, v, data in graph.edges(data=True)
            if data.get("kind") == "ground_link"
        ]
        graph.remove_edges_from(stale_ground)
        alive = self._alive_satellites()
        ground_pairs = self._attach_ground(graph, time_s, positions, alive)

        prev_ground = self._delta_prev_ground
        ground_appeared = tuple(sorted(ground_pairs - prev_ground))
        ground_disappeared = tuple(sorted(prev_ground - ground_pairs))
        structure_unchanged = (
            not isl_delta.appeared and not isl_delta.disappeared
            and not ground_appeared and not ground_disappeared
        )
        snap = NetworkSnapshot(time_s=time_s, graph=graph,
                               isl_snapshot=isl_snap)
        if structure_unchanged:
            snap._csr_source = prev
            self.delta_stats["structure_reuses"] += 1
        self._delta_prev_ground = ground_pairs
        self.last_snapshot_delta = SnapshotDelta(
            time_s=time_s,
            base_time_s=prev.time_s,
            isl=isl_delta,
            ground_appeared=ground_appeared,
            ground_disappeared=ground_disappeared,
            structure_unchanged=structure_unchanged,
        )
        stats = self.delta_stats
        stats["delta_builds"] += 1
        stats["edges_appeared"] += len(isl_delta.appeared) + len(ground_appeared)
        stats["edges_disappeared"] += (
            len(isl_delta.disappeared) + len(ground_disappeared)
        )
        stats["edges_persisted"] += len(isl_delta.persisted)
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("network.snapshot.delta_build")
        return snap

    def gateway_probe_paths(
        self, time_s: float, users: Sequence[UserTerminal],
        cost_model: Optional[EdgeCostModel] = None,
    ) -> Dict[str, Optional[List[str]]]:
        """Batched nearest-gateway probe for many users at one instant.

        Builds no user snapshot.  The base snapshot's CSR adjacency is
        compiled once; every user's access links come from the same
        array pass that :meth:`snapshot` adds to its graph
        (:meth:`_price_access_links`); each user joins the adjacency as
        a leaf via
        :meth:`~repro.routing.csr.CsrAdjacency.append_leaf_arrays`, and
        every user's search runs in one block-diagonal Dijkstra.

        The result is bitwise identical to the per-user probe
        (``snapshot(time_s, users=[user])`` +
        :meth:`NetworkSnapshot.nearest_ground_station_route`) — the same
        access-link values, the same station iteration order, the same
        strict ``<`` tie-breaking; ``tests/core/test_network_batched.py``
        holds it to per-user probes over the scalar overlay oracle.

        Args:
            time_s: Probe instant.
            users: User terminals to probe.
            cost_model: Edge cost model (default
                :data:`~repro.routing.metrics.PROPAGATION_ONLY`).

        Returns:
            ``{user_id: path}`` with the best gateway path as a node
            list (user first), or None when the user reaches no station.
        """
        users = list(users)
        if not users:
            return {}
        model = cost_model or PROPAGATION_ONLY
        base = self.snapshot(time_s)
        adjacency = base.csr_adjacency(model)
        stations = base.nodes_of_kind("ground_station")
        alive = self._alive_satellites()
        user_rows, sat_rows, distances, capacities = self._price_access_links(
            time_s, users, alive, base.isl_snapshot.positions
        )
        # The links are user-major: user ``row`` owns one contiguous run.
        bounds = np.searchsorted(user_rows, np.arange(len(users) + 1)).tolist()
        sat_list = sat_rows.tolist()
        distance_list = distances.tolist()
        capacity_list = capacities.tolist()
        blocks = []
        access_attrs: List[Dict[str, dict]] = []
        for row in range(len(users)):
            attrs_by_sat: Dict[str, dict] = {}
            neighbor_idx: List[int] = []
            weights: List[float] = []
            for link in range(bounds[row], bounds[row + 1]):
                spec = alive[sat_list[link]]
                attrs = self._access_attrs(spec, capacity_list[link],
                                           distance_list[link])
                attrs_by_sat[spec.satellite_id] = attrs
                neighbor_idx.append(adjacency.index[spec.satellite_id])
                weights.append(model.edge_cost(attrs))
            access_attrs.append(attrs_by_sat)
            blocks.append(adjacency.append_leaf_arrays(
                np.asarray(neighbor_idx, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            ))
        leaf = adjacency.node_count
        dist, pred, offsets = block_diagonal_dijkstra(
            blocks, [leaf] * len(users)
        )
        graph = base.graph
        nodes = adjacency.nodes
        results = {}
        for row, user in enumerate(users):
            offset = int(offsets[row])
            row_dist = dist[row]
            row_pred = pred[row]
            source_global = offset + leaf
            best_delay: Optional[float] = None
            best_path: Optional[List[str]] = None
            for station in stations:
                column = offset + adjacency.index[station]
                if not np.isfinite(row_dist[column]):
                    continue
                reversed_idx = [column]
                cursor = column
                broken = False
                while cursor != source_global:
                    cursor = int(row_pred[cursor])
                    if cursor == NO_PREDECESSOR:
                        broken = True
                        break
                    reversed_idx.append(cursor)
                if broken:
                    continue
                path = [
                    user.user_id if local == leaf else nodes[local]
                    for local in (g - offset for g in reversed(reversed_idx))
                ]
                # Replicate path_metrics: propagation and queueing delays
                # accumulate separately in path order, then sum.  The
                # first hop's attributes come from the arrays above (the
                # values the scalar snapshot would have stored).
                propagation = 0.0
                queueing = 0.0
                hop_data = [access_attrs[row][path[1]]]
                hop_data.extend(
                    graph.get_edge_data(node_a, node_b)
                    for node_a, node_b in zip(path[1:-1], path[2:])
                )
                for data in hop_data:
                    propagation += float(data.get("delay_s", 0.0))
                    queueing += float(data.get("queue_delay_s", 0.0))
                total_delay = propagation + queueing
                if best_delay is None or total_delay < best_delay:
                    best_delay = total_delay
                    best_path = path
            results[user.user_id] = best_path
        return results

    def user_to_internet_latency_s(self, user: UserTerminal, time_s: float,
                                   cost_model: Optional[EdgeCostModel] = None) -> Optional[float]:
        """One-way latency from a user to the nearest Internet gateway.

        This is the paper's Figure 2(b) measurement: "compute the shortest
        path between the satellite that picks up the user's signal, and the
        satellite that will relay that signal to the ground station, and
        use this path length to estimate latency."

        Returns None when the user has no path to any gateway.
        """
        snap = self.snapshot(time_s, users=[user])
        metrics = snap.nearest_ground_station_route(user.user_id, cost_model)
        if metrics is None:
            return None
        return metrics.total_delay_s
