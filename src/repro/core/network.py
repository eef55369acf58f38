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
from dataclasses import dataclass
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro import obs as _obs
from repro.core.federation import Federation
from repro.core.interop import SpacecraftSpec
from repro.ground.station import (
    GATEWAY_QUEUE_DELAY_S,
    VISITOR_TARIFF_PER_GB,
    GroundStation,
)
from repro.ground.user import UserTerminal
from repro.isl.topology import (
    IslTopologyBuilder,
    TopologyDelta,
    TopologySnapshot,
    isl_edge_attrs,
)
from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.orbits.coordinates import geodetic_points_to_eci
from repro.orbits.kepler import KeplerFleet, batch_positions
from repro.orbits.visibility import elevations_and_ranges
from repro.phy.modulation import achievable_rate_bps_array
from repro.phy.rf import RFTerminal, rf_link_budget_arrays

# The scalar oracles of the array budgets stay importable from here,
# where benchmarks/e2e/tracer.py looks them up.
from repro.phy.modulation import achievable_rate_bps  # noqa: F401
from repro.phy.rf import rf_link_budget  # noqa: F401
from repro.routing.csr import CsrAdjacency

# The block-diagonal Dijkstra, which the probe does not call, stays
# importable from here, where benchmarks/e2e/tracer.py looks it up.
from repro.routing.csr import block_diagonal_dijkstra  # noqa: F401
from repro.routing.metrics import (
    PROPAGATION_ONLY,
    EdgeCostModel,
    RouteMetrics,
    path_metrics,
)

if TYPE_CHECKING:
    import networkx as nx


#: Ground x satellite pairs per chunk of the access-link visibility
#: pass, so each of its ``(rows, satellites)`` float64 planes stays near
#: 320 KB.
_ACCESS_CHUNK_PAIRS = 40_000


def _value_codes(items: Sequence, rows: np.ndarray) -> Tuple[list, np.ndarray]:
    """Group ``items[rows]`` by value: the distinct values, and each row's
    index into them.  Only the distinct rows' items are hashed."""
    seen, inverse = np.unique(rows, return_inverse=True)
    codes: Dict[object, int] = {}
    index = [codes.setdefault(items[row], len(codes)) for row in seen.tolist()]
    return list(codes), np.asarray(index, dtype=np.int64)[inverse]


def content_digest(time_s: float, nodes: Iterable[Tuple[str, dict]],
                   edges: Iterable[Tuple[str, str, dict]]) -> str:
    """Content hash of a snapshot's nodes and edges in canonical order.

    ``nodes`` yields ``(id, attrs)`` sorted by id; ``edges`` yields
    ``(min id, max id, attrs)`` sorted by that id pair.  Attribute keys
    are hashed in sorted order, so the digest depends only on content,
    never on insertion order.
    """
    hasher = hashlib.sha256()
    hasher.update(repr(time_s).encode())
    for node, data in nodes:
        hasher.update(repr((node, sorted(data.items()))).encode())
    for node_a, node_b, data in edges:
        hasher.update(repr((node_a, node_b, sorted(data.items()))).encode())
    return hasher.hexdigest()


class _PricedLinks(NamedTuple):
    """Satellite-to-ground links that close, one entry per link.

    ``rows`` index the ground side (stations, then users, as priced);
    ``sats`` index the alive satellites.
    """

    rows: np.ndarray
    sats: np.ndarray
    distance_km: np.ndarray
    capacity_bps: np.ndarray

    @classmethod
    def empty(cls) -> "_PricedLinks":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, np.empty(0), np.empty(0))


class _StationRecord(NamedTuple):
    """A station's link attributes, read once when its snapshot is built."""

    station_id: str
    owner: str
    backhaul_capacity_bps: float
    tariff_per_gb: float
    queue_delay_s: float

    @classmethod
    def of(cls, station: GroundStation) -> "_StationRecord":
        return cls(station.station_id, station.owner,
                   station.backhaul_capacity_bps,
                   VISITOR_TARIFF_PER_GB, GATEWAY_QUEUE_DELAY_S)


class SnapshotEdges(NamedTuple):
    """Per-edge arrays of a :class:`NetworkSnapshot`, one entry per edge.

    Edges come as ISLs (acceptance order, failed links dropped), then
    station links (station-major), then user access links (user-major);
    satellites ascend within each ground node.  Attributes an edge kind
    lacks hold 0.0, which is what :meth:`EdgeCostModel.edge_cost`
    defaults them to.  These are the attributes the cost models and
    :func:`~repro.routing.metrics.path_metrics` read; an edge's owner
    (:meth:`NetworkSnapshot.edge_owner`) and kind follow from its
    position and its endpoints' records.
    """

    u: np.ndarray
    v: np.ndarray
    delay_s: np.ndarray
    capacity_bps: np.ndarray
    tariff_per_gb: np.ndarray
    queue_delay_s: np.ndarray

    @classmethod
    def concatenate(cls, parts: Sequence["SnapshotEdges"]) -> "SnapshotEdges":
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def costs(self, model: EdgeCostModel) -> np.ndarray:
        """Each edge's cost under ``model``: one vectorized
        :meth:`EdgeCostModel.edge_costs` call (a fresh array)."""
        return model.edge_costs(self.delay_s, self.queue_delay_s,
                                self.tariff_per_gb, self.capacity_bps)

    def pair_rows(self, node_count: int) -> Dict[int, int]:
        """Each edge's row, keyed ``low * node_count + high`` by its
        endpoint indices."""
        low = np.minimum(self.u, self.v).astype(np.int64)
        high = np.maximum(self.u, self.v)
        return dict(zip((low * node_count + high).tolist(),
                        range(low.shape[0])))


def _edge_part(u: np.ndarray, v: np.ndarray, distance_km: np.ndarray,
               capacity_bps: np.ndarray,
               tariff_per_gb: Optional[np.ndarray] = None,
               queue_delay_s: Optional[np.ndarray] = None) -> SnapshotEdges:
    zeros = np.zeros(u.shape[0])
    return SnapshotEdges(
        u.astype(np.int32, copy=False), v.astype(np.int32, copy=False),
        distance_km / SPEED_OF_LIGHT_KM_S, capacity_bps,
        zeros if tariff_per_gb is None else tariff_per_gb,
        zeros if queue_delay_s is None else queue_delay_s,
    )


@dataclass(frozen=True)
class SnapshotDelta:
    """What changed between one base snapshot and the previous one.

    Recorded by :class:`OpenSpaceNetwork` on every base-snapshot build
    (see :attr:`OpenSpaceNetwork.last_snapshot_delta`) so churn
    accounting (the scale sweep, the stage tracer) knows which edges
    moved without diffing graphs itself.  Recording never changes what
    the snapshot holds.

    Attributes:
        time_s: The new snapshot's timestamp.
        base_time_s: The previous base snapshot's timestamp (None when
            none was built before).
        isl: The ISL-layer edge delta, or None on a full rebuild.
        full_rebuild: True when no delta was recorded (first build,
            fault-state change, or delta recording disabled).
    """

    time_s: float
    base_time_s: Optional[float]
    isl: Optional[TopologyDelta]
    full_rebuild: bool = False


class NetworkSnapshot:
    """The whole network at one instant, held as arrays.

    Node order is fixed: the alive satellites in fleet order, the alive
    ground stations in station order, then the users in request order.
    :attr:`edges` holds every edge's endpoints, delay, capacity, tariff
    and queue delay.  Every consumer reads those arrays: CSR compiles
    (:meth:`csr_adjacency`, or
    :meth:`~repro.routing.csr.CsrAdjacency.from_edges` with inadmissible
    edges priced ``inf``), path pricing
    (:func:`~repro.routing.metrics.path_metrics` through
    :meth:`edge_row` and :meth:`edge_owner`), probes, the health plane
    and the digest.

    :attr:`graph` is a networkx view derived from the arrays on first
    read and cached, for the end-to-end benchmark and the tests;
    nothing in the package reads it.  Nodes carry a ``kind`` attribute
    (``"satellite"``, ``"ground_station"`` or ``"user"``) and an
    ``owner`` attribute; edges carry ``delay_s``, ``capacity_bps`` and
    (for ground edges) ``owner``, ``tariff_per_gb``, ``queue_delay_s``.
    A satellite's neighbours run: lower-index ISL neighbours ascending,
    higher-index ones in acceptance order, stations, users; a ground
    node's neighbours are its satellites ascending.  Mutating the view
    changes neither the arrays nor any CSR compiled from them.

    Attributes:
        time_s: Snapshot timestamp.
        isl_snapshot: The satellite-only topology this was built from.
        nodes: Node ids in node order.
        edges: :class:`SnapshotEdges`; endpoints index :attr:`nodes`.
    """

    def __init__(self, time_s: float, isl_snapshot: TopologySnapshot,
                 satellite_owners: Sequence[str],
                 stations: Sequence[_StationRecord],
                 isl_kept: Optional[np.ndarray],
                 ground: _PricedLinks, fleet_positions: np.ndarray,
                 users: Sequence[Tuple[str, str]] = (),
                 access: Optional[_PricedLinks] = None,
                 base_edges: Optional[SnapshotEdges] = None):
        self.time_s = time_s
        self.isl_snapshot = isl_snapshot
        self._satellite_owners = list(satellite_owners)
        self._stations = list(stations)
        self._users = list(users)
        #: Positions of the ISL links no fault severs (None: all of them).
        self._isl_kept = isl_kept
        self._isl_count = (len(isl_snapshot.links) if isl_kept is None
                           else isl_kept.shape[0])
        self._ground = ground
        self._access = access if access is not None else _PricedLinks.empty()
        self._fleet_positions = fleet_positions
        satellites = len(isl_snapshot.node_ids)
        self._first_station = satellites
        self._first_user = satellites + len(self._stations)
        self.nodes = (isl_snapshot.node_ids
                      + [record.station_id for record in self._stations]
                      + [user_id for user_id, _ in self._users])
        if base_edges is None:
            base_edges = self._base_edges()
        access = self._access
        self.edges = SnapshotEdges.concatenate([base_edges, _edge_part(
            access.rows + self._first_user, access.sats,
            access.distance_km, access.capacity_bps,
        )])
        #: Per-cost-model CSR adjacencies, built lazily and kept alongside
        #: the snapshot so every router sharing the snapshot shares them.
        self._csr_cache: Dict[EdgeCostModel, CsrAdjacency] = {}

    def _base_edges(self) -> SnapshotEdges:
        links = self.isl_snapshot.links
        kept = self._isl_kept
        ground = self._ground
        stations = self._stations
        backhaul = np.array([r.backhaul_capacity_bps for r in stations],
                            dtype=float)
        tariff = np.array([r.tariff_per_gb for r in stations], dtype=float)
        queue = np.array([r.queue_delay_s for r in stations], dtype=float)
        if kept is not None:
            links = links.take(kept)
        return SnapshotEdges.concatenate([
            _edge_part(links.node_a, links.node_b, links.distance_km,
                       links.capacity_bps),
            _edge_part(ground.sats, ground.rows + self._first_station,
                       ground.distance_km,
                       np.minimum(ground.capacity_bps, backhaul[ground.rows]),
                       tariff[ground.rows], queue[ground.rows]),
        ])

    def with_users(self, users: Sequence[UserTerminal],
                   access: _PricedLinks) -> "NetworkSnapshot":
        """This no-user snapshot plus ``users`` and their access links."""
        return NetworkSnapshot(
            self.time_s, self.isl_snapshot, self._satellite_owners,
            self._stations, self._isl_kept, self._ground,
            self._fleet_positions,
            users=[(user.user_id, user.home_provider) for user in users],
            access=access,
            base_edges=self.edges,
        )

    # -- arrays --------------------------------------------------------

    def csr_adjacency(self, cost_model: Optional[EdgeCostModel] = None,
                      ) -> CsrAdjacency:
        """The snapshot's CSR adjacency under a cost model (cached).

        Compiled from :attr:`edges` with one vectorized
        :meth:`EdgeCostModel.edge_costs` call, equal bit for bit to
        ``CsrAdjacency.from_graph(self.graph, weight=cost_model)``, the
        referee the tests hold it to.
        """
        model = cost_model or PROPAGATION_ONLY
        adjacency = self._csr_cache.get(model)
        if adjacency is None:
            edges = self.edges
            adjacency = CsrAdjacency.from_edges(self.nodes, edges.u, edges.v,
                                                edges.costs(model))
            self._csr_cache[model] = adjacency
        return adjacency

    def nodes_of_kind(self, kind: str) -> List[str]:
        if kind == "satellite":
            return self.nodes[:self._first_station]
        if kind == "ground_station":
            return self.nodes[self._first_station:self._first_user]
        if kind == "user":
            return self.nodes[self._first_user:]
        return []

    @cached_property
    def owners(self) -> List[str]:
        """Each node's owner, parallel to :attr:`nodes`: a satellite's
        operator, a station's owner, a user's home provider."""
        return (self._satellite_owners
                + [record.owner for record in self._stations]
                + [owner for _, owner in self._users])

    @cached_property
    def index(self) -> Dict[str, int]:
        """Each node's position in :attr:`nodes`."""
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def _edge_rows(self) -> Dict[int, int]:
        return self.edges.pair_rows(len(self.nodes))

    def edge_row(self, node_a: str, node_b: str) -> Optional[int]:
        """The row of :attr:`edges` joining two nodes (either order), or
        None when they share no edge or either is absent."""
        index = self.index
        a, b = index.get(node_a), index.get(node_b)
        if a is None or b is None:
            return None
        low, high = (a, b) if a < b else (b, a)
        return self._edge_rows.get(low * len(self.nodes) + high)

    def edge_owner(self, row: int) -> Optional[str]:
        """The owner of edge ``row``: None for an ISL, the station's
        owner for a station link, the satellite's operator for a user
        access link."""
        row -= self._isl_count
        if row < 0:
            return None
        ground = self._ground
        if row < ground.rows.shape[0]:
            return self._stations[int(ground.rows[row])].owner
        row -= ground.rows.shape[0]
        return self._satellite_owners[int(self._access.sats[row])]

    # -- graph view and digest -----------------------------------------

    def _node_attrs(self, index: int) -> dict:
        """The graph view's attribute dict of node ``index``."""
        owner = self.owners[index]
        if index < self._first_station:
            return {"owner": owner, "kind": "satellite"}
        if index < self._first_user:
            return {"kind": "ground_station", "owner": owner}
        return {"kind": "user", "owner": owner}

    def _edge_attrs(self, edge: int) -> dict:
        """The graph view's attribute dict of edge ``edge``."""
        isl_count = self._isl_count
        if edge < isl_count:
            kept = self._isl_kept
            return isl_edge_attrs(self.isl_snapshot.link_objects[
                edge if kept is None else int(kept[edge])])
        owner = self.edge_owner(edge)
        edge -= isl_count
        ground = self._ground
        if edge < ground.rows.shape[0]:
            record = self._stations[int(ground.rows[edge])]
            return {
                "delay_s": float(ground.distance_km[edge]) / SPEED_OF_LIGHT_KM_S,
                "capacity_bps": min(float(ground.capacity_bps[edge]),
                                    record.backhaul_capacity_bps),
                "owner": owner,
                "tariff_per_gb": record.tariff_per_gb,
                "queue_delay_s": record.queue_delay_s,
                "kind": "ground_link",
            }
        edge -= ground.rows.shape[0]
        access = self._access
        return {
            "delay_s": float(access.distance_km[edge]) / SPEED_OF_LIGHT_KM_S,
            "capacity_bps": float(access.capacity_bps[edge]),
            "owner": owner,
            "kind": "access_link",
        }

    @cached_property
    def graph(self) -> nx.Graph:
        """The networkx view of the snapshot (see the class docstring).

        Edges are added by low endpoint, then ISLs in acceptance order,
        then ground edges by far endpoint, which gives every node the
        neighbour order the class docstring states.  networkx is
        imported here, on first read, so no package import path loads
        it.
        """
        import networkx as nx

        nodes = self.nodes
        edges = self.edges
        low = np.minimum(edges.u, edges.v)
        high = np.maximum(edges.u, edges.v)
        isl_rank = (np.arange(self._isl_count) if self._isl_kept is None
                    else self._isl_kept)
        rank = np.concatenate([
            isl_rank, len(self.isl_snapshot.links) + high[self._isl_count:],
        ])
        graph = nx.Graph()
        graph.add_nodes_from((node, self._node_attrs(index))
                             for index, node in enumerate(nodes))
        graph.add_edges_from(
            (nodes[low[edge]], nodes[high[edge]], self._edge_attrs(edge))
            for edge in np.lexsort((rank, low)).tolist()
        )
        return graph

    def digest(self) -> str:
        """Canonical content hash of the snapshot: the
        :func:`content_digest` of :attr:`graph`'s nodes and edges,
        computed from the arrays without building the view.

        This is the equality witness the tests compare: a snapshot
        built after any call history (delta recording, fault changes)
        must hash identically to a fresh network's build at the
        same instant and fault state.
        """
        nodes = self.nodes
        first = [nodes[i] for i in self.edges.u.tolist()]
        second = [nodes[i] for i in self.edges.v.tolist()]
        pairs = [(a, b) if a <= b else (b, a) for a, b in zip(first, second)]
        return content_digest(
            self.time_s,
            ((nodes[index], self._node_attrs(index))
             for index in sorted(range(len(nodes)), key=nodes.__getitem__)),
            (pairs[edge] + (self._edge_attrs(edge),)
             for edge in sorted(range(len(pairs)), key=pairs.__getitem__)),
        )

    # -- routes --------------------------------------------------------

    def nearest_ground_station_route(
            self, source: str) -> Optional[RouteMetrics]:
        """Least-cost route from a node to any ground station, or None.

        One single-source Dijkstra (the snapshot memoizes it per source)
        prices every station; the first-listed station at the least cost
        wins (:meth:`~repro.routing.csr.ShortestPaths.nearest_paths`),
        and only its path is priced with
        :func:`~repro.routing.metrics.path_metrics`.
        """
        adjacency = self.csr_adjacency()
        if source not in adjacency:
            return None
        (path,) = adjacency.single_source(source).nearest_paths(
            self.nodes_of_kind("ground_station"))
        return None if path is None else path_metrics(self, path)


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
        snapshot_cache_size: Accepted only as ``0``: the network keeps
            no snapshot, so every :meth:`snapshot` call is one build.  The
            keyword stays because the end-to-end benchmark passes
            ``snapshot_cache_size=0`` for its reference builds.
        snapshot_delta: Record the edge delta of each base snapshot
            against the previous one (:attr:`last_snapshot_delta`,
            :attr:`delta_stats`).  Every base snapshot is assembled from
            scratch either way, so content never depends on it.  The
            keyword stays because the end-to-end benchmark passes
            ``snapshot_delta=False`` for its reference builds.
    """

    def __init__(self, satellites: Sequence[SpacecraftSpec],
                 ground_stations: Sequence[GroundStation] = (),
                 max_isl_range_km: float = 6000.0,
                 ground_elevation_mask_deg: float = 10.0,
                 gateway_dish_m: float = 3.5,
                 snapshot_cache_size: int = 0,
                 snapshot_delta: bool = True):
        if not satellites:
            raise ValueError("need at least one satellite")
        if snapshot_cache_size != 0:
            raise ValueError(
                f"cache size must be 0, got {snapshot_cache_size}"
            )
        self.satellites = list(satellites)
        self.ground_stations = list(ground_stations)
        self.ground_elevation_mask_deg = ground_elevation_mask_deg
        self.gateway_dish_m = gateway_dish_m
        self._builder = IslTopologyBuilder(
            [spec.to_isl_node() for spec in self.satellites],
            max_range_km=max_isl_range_km,
        )
        self._fleet = KeplerFleet([spec.elements for spec in self.satellites])
        self._fleet_ids = [spec.satellite_id for spec in self.satellites]
        self._spec_by_id = {
            spec.satellite_id: spec for spec in self.satellites
        }
        self._station_by_id = {
            station.station_id: station for station in self.ground_stations
        }
        self._failed_satellites: frozenset = frozenset()
        self._failed_stations: frozenset = frozenset()
        self._failed_links: frozenset = frozenset()
        self._fault_epoch = 0
        self.snapshot_delta_enabled = snapshot_delta
        #: The delta recorded by the most recent base-snapshot build.
        self.last_snapshot_delta: Optional[SnapshotDelta] = None
        #: Cumulative build accounting (deterministic per call sequence):
        #: ``delta_builds`` counts the base builds that recorded a delta,
        #: ``full_builds`` the rest.
        self.delta_stats: Dict[str, int] = {
            "full_builds": 0,
            "delta_builds": 0,
            "edges_appeared": 0,
            "edges_disappeared": 0,
            "edges_persisted": 0,
        }
        self._delta_prev: Optional[TopologySnapshot] = None
        self._delta_prev_epoch: int = -1
        self._delta_prev_ground = np.empty(0, dtype=np.int64)

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
    # failed elements vanish from snapshots exactly as if the network had
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
        self._fault_epoch += 1

    def clear_fault_state(self) -> None:
        """Restore every element to service."""
        self._failed_satellites = frozenset()
        self._failed_stations = frozenset()
        self._failed_links = frozenset()
        self._fault_epoch += 1

    @property
    def fault_epoch(self) -> int:
        """Monotone counter bumped on every fault-state change; delta
        recording diffs only against a build of the same epoch."""
        return self._fault_epoch

    @property
    def failed_satellites(self) -> frozenset:
        return self._failed_satellites

    @property
    def failed_stations(self) -> frozenset:
        return self._failed_stations

    @property
    def failed_links(self) -> frozenset:
        return self._failed_links

    def _position_matrix(self, time_s: float) -> np.ndarray:
        """``(N, 3)`` ECI positions of the fleet in fleet order.

        One :func:`~repro.orbits.kepler.batch_positions` pass over the
        network's :class:`~repro.orbits.kepler.KeplerFleet`, whose
        constants are stacked on the first call (the first snapshot).
        """
        return batch_positions(self._fleet, time_s)[:, 0, :]

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

    def snapshot(self, time_s: float,
                 users: Sequence[UserTerminal] = ()) -> NetworkSnapshot:
        """Build the whole-network snapshot at one instant.

        Satellites are joined by the ISL topology builder; each ground
        station connects to every satellite above its elevation mask whose
        ground link closes; each user connects to every satellite above
        the user's mask whose access link closes (capacity from the
        satellite's ground terminal and the user's terminal).

        Elements named in the current fault state (see
        :meth:`set_fault_state`) are excluded: failed satellites never
        enter the ISL build, failed stations take no node, and failed
        links lose their edge even when geometry would close it.

        Every call is one build from the current fleet, fault and
        station state; the network keeps no snapshot, so a caller that
        needs one instant twice holds the snapshot it was given (a probe
        hands its base snapshot to :meth:`gateway_probe_paths`).  A
        snapshot with users extends the no-user base snapshot with every
        user's access links from one array pass
        (:meth:`_price_access_links`, shared with the station links and
        :meth:`gateway_probe_paths`).
        """
        base = self._base_snapshot(time_s)
        if not users:
            return base
        users = list(users)
        access = self._price_access_links(
            time_s, (), users, self._alive_indices(), base._fleet_positions
        )
        return base.with_users(users, access)

    def _price_access_links(
        self, time_s: float, stations: Sequence[GroundStation],
        users: Sequence[UserTerminal], alive: np.ndarray,
        fleet_positions: np.ndarray,
    ) -> _PricedLinks:
        """Every station and user link that closes, in one array pass.

        The ground rows are ``stations`` then ``users``, placed by one
        array conversion and one rotation
        (:func:`~repro.orbits.coordinates.geodetic_points_to_eci`).  One
        :func:`~repro.orbits.visibility.elevations_and_ranges` pass over
        ground rows x ``alive`` satellites gives every pair's elevation
        and slant range on ``(rows, satellites)`` planes, in chunks of
        rows that keep the pass's temporaries small; the pairs above
        each row's mask (a station's is the larger of the network mask
        and its own) keep both values; one
        :func:`~repro.phy.rf.rf_link_budget_arrays` call per (satellite
        ground terminal, ground-side terminal, rain rate) group.  A
        station prices against the gateway dish matched to the
        satellite's band under its rain rate, a user against its own
        terminal in clear sky.  Satellites without a ground terminal
        price at zero, and zero-capacity links are dropped.  Every value
        equals the scalar per-link budget's, bit for bit (the oracle in
        ``tests/core/oracle.py``).

        Returns:
            One entry per closing link, row-major, satellites ascending
            within each row; ``sats`` index ``alive``.
        """
        grounds = list(stations) + list(users)
        if not grounds or not alive.size:
            return _PricedLinks.empty()
        sat_matrix = fleet_positions[alive]
        ground_matrix = geodetic_points_to_eci(
            [ground.location for ground in grounds], time_s
        )
        masks = np.array(
            [math.radians(max(self.ground_elevation_mask_deg,
                              station.min_elevation_deg))
             for station in stations]
            + [math.radians(user.min_elevation_deg) for user in users]
        )
        chunk = max(1, _ACCESS_CHUNK_PAIRS // alive.size)
        row_parts, sat_parts, elevation_parts, distance_parts = [], [], [], []
        for start in range(0, len(grounds), chunk):
            elevations, ranges = elevations_and_ranges(
                ground_matrix[start:start + chunk, None, :], sat_matrix[None]
            )
            rows, columns = np.nonzero(
                elevations >= masks[start:start + chunk, None]
            )
            row_parts.append(rows + start)
            sat_parts.append(columns)
            elevation_parts.append(elevations[rows, columns])
            distance_parts.append(ranges[rows, columns])
        ground_rows = np.concatenate(row_parts)
        sat_rows = np.concatenate(sat_parts)
        elevations = np.concatenate(elevation_parts)
        distances = np.concatenate(distance_parts)

        sat_terminals, sat_codes = _value_codes(
            [self.satellites[index].ground_terminal
             for index in alive.tolist()], sat_rows
        )
        sides, side_codes = _value_codes(
            [("gateway", station.rain_rate_mm_h) for station in stations]
            + [("user", user.terminal) for user in users], ground_rows
        )
        groups = sat_codes * len(sides) + side_codes
        capacities = np.zeros(ground_rows.shape[0])
        for group in np.unique(groups).tolist():
            sat_terminal = sat_terminals[group // len(sides)]
            if sat_terminal is None:
                continue
            side, value = sides[group % len(sides)]
            if side == "gateway":
                ground_terminal = self._station_terminal(sat_terminal.band_name)
                rain_rate = value
            else:
                ground_terminal, rain_rate = value, 0.0
            rows = np.flatnonzero(groups == group)
            budgets = rf_link_budget_arrays(
                sat_terminal, ground_terminal, distances[rows],
                elevations_rad=elevations[rows], rain_rate_mm_h=rain_rate,
            )
            capacities[rows] = achievable_rate_bps_array(
                budgets.snr_db, budgets.bandwidth_hz
            )
        keep = ~(capacities <= 0.0)
        return _PricedLinks(ground_rows[keep], sat_rows[keep],
                            distances[keep], capacities[keep])

    def _base_snapshot(self, time_s: float) -> NetworkSnapshot:
        """The no-user snapshot (ISLs + ground stations).

        Every build is one assembly: a fresh ISL build over the fleet
        position matrix, failed links dropped by pair key, and the
        station links priced.  With delta recording on and a previous
        base snapshot in the same fault epoch, the builder also diffs the
        ISL pair keys against that one (see :meth:`_record_delta`); the
        snapshot is the same either way.
        """
        positions = self._position_matrix(time_s)
        exclude = self._failed_satellites or None
        isl_delta: Optional[TopologyDelta] = None
        if (self.snapshot_delta_enabled and self._delta_prev is not None
                and self._delta_prev_epoch == self._fault_epoch):
            isl_snap, isl_delta = self._builder.snapshot_delta(
                time_s, positions, exclude=exclude,
                previous=self._delta_prev,
            )
        else:
            isl_snap = self._builder.snapshot(time_s, positions,
                                              exclude=exclude)
        alive = self._alive_indices()
        station_index = [index for index, station
                         in enumerate(self.ground_stations)
                         if station.station_id not in self._failed_stations]
        stations = [self.ground_stations[index] for index in station_index]
        ground = self._price_access_links(time_s, stations, (), alive,
                                          positions)
        snap = NetworkSnapshot(
            time_s, isl_snap,
            [self.satellites[index].owner for index in alive.tolist()],
            [_StationRecord.of(station) for station in stations],
            self._kept_links(isl_snap), ground, positions,
        )
        ground_keys = (alive[ground.sats] * len(self.ground_stations)
                       + np.asarray(station_index, dtype=np.int64)[ground.rows])
        self._record_delta(time_s, isl_delta, ground_keys)
        self._delta_prev = isl_snap
        self._delta_prev_epoch = self._fault_epoch
        self._delta_prev_ground = ground_keys
        return snap

    def _kept_links(self, isl_snap: TopologySnapshot) -> Optional[np.ndarray]:
        """Positions of the ISL links no fault severs (None: all)."""
        if not self._failed_links:
            return None
        index = isl_snap._index
        node_count = len(isl_snap.node_ids)
        failed = [min(index[a], index[b]) * node_count + max(index[a], index[b])
                  for a, b in self._failed_links
                  if a in index and b in index]
        return np.flatnonzero(~np.isin(isl_snap.pair_keys(), failed))

    def _record_delta(self, time_s: float,
                      isl_delta: Optional[TopologyDelta],
                      ground_keys: np.ndarray) -> None:
        """Book one base build in :attr:`last_snapshot_delta` and
        :attr:`delta_stats`: a delta build when ``isl_delta`` compares
        against a predecessor, a full build otherwise."""
        prev = self._delta_prev
        base_time_s = prev.time_s if prev is not None else None
        stats = self.delta_stats
        recorder = _obs.active()
        if isl_delta is None or isl_delta.full_rebuild:
            self.last_snapshot_delta = SnapshotDelta(
                time_s=time_s, base_time_s=base_time_s, isl=None,
                full_rebuild=True,
            )
            stats["full_builds"] += 1
            if recorder.enabled:
                recorder.count("network.snapshot.full_build")
            return
        prev_ground = self._delta_prev_ground
        ground_appeared = np.setdiff1d(ground_keys, prev_ground)
        ground_disappeared = np.setdiff1d(prev_ground, ground_keys)
        self.last_snapshot_delta = SnapshotDelta(
            time_s=time_s, base_time_s=base_time_s, isl=isl_delta,
        )
        stats["delta_builds"] += 1
        stats["edges_appeared"] += (len(isl_delta.appeared_pairs)
                                    + len(ground_appeared))
        stats["edges_disappeared"] += (len(isl_delta.disappeared_pairs)
                                       + len(ground_disappeared))
        stats["edges_persisted"] += len(isl_delta.persisted_pairs)
        if recorder.enabled:
            recorder.count("network.snapshot.delta_build")

    def _alive_indices(self) -> np.ndarray:
        """Fleet indices of the satellites no fault removed, ascending."""
        if not self._failed_satellites:
            return np.arange(len(self.satellites))
        return np.array([index for index, sat_id in enumerate(self._fleet_ids)
                         if sat_id not in self._failed_satellites],
                        dtype=np.int64)

    def gateway_probe_paths(
        self, base: NetworkSnapshot, users: Sequence[UserTerminal],
    ) -> Dict[str, Optional[List[str]]]:
        """Batched nearest-gateway probe for many users at one instant.

        Builds no user snapshot.  The base snapshot's CSR adjacency is
        compiled once (and kept on the snapshot, which the caller may
        also hand to a health sample); every user's access links come from
        the same array pass that :meth:`snapshot` uses
        (:meth:`_price_access_links`); each user joins the adjacency as
        a source-only row after the base nodes
        (:meth:`~repro.routing.csr.CsrAdjacency.with_source_rows`), and
        one Dijkstra runs from every user row at once.  Each user's
        gateway is read off its distance row
        (:meth:`~repro.routing.csr.ShortestPaths.nearest_paths`: the
        first-listed station at the least cost), and only that station's
        path is rebuilt.

        The result equals the per-user probe, ``snapshot(time_s,
        users=[user])`` and its
        :meth:`NetworkSnapshot.nearest_ground_station_route`, path for
        path; ``tests/core/test_network_batched.py`` holds it to per-user
        probes over the graph-built oracle.

        Args:
            base: This network's no-user snapshot at the probe instant,
                ``snapshot(time_s)``, built in the current fault state.
            users: User terminals to probe.

        Returns:
            ``{user_id: path}`` with the nearest gateway's path as a node
            list (user first), or None when the user reaches no station.
        """
        users = list(users)
        if not users:
            return {}
        access = self._price_access_links(
            base.time_s, (), users, self._alive_indices(),
            base._fleet_positions,
        )
        zeros = np.zeros(access.rows.shape[0])
        weights = PROPAGATION_ONLY.edge_costs(
            access.distance_km / SPEED_OF_LIGHT_KM_S, zeros, zeros,
            access.capacity_bps,
        )
        user_ids = [user.user_id for user in users]
        # An alive satellite's index is its node index.
        searches = base.csr_adjacency().with_source_rows(
            user_ids, access.rows, access.sats, weights,
        ).shortest_paths(user_ids)
        return dict(zip(user_ids, searches.nearest_paths(
            base.nodes_of_kind("ground_station"))))

    def user_to_internet_latency_s(self, user: UserTerminal,
                                   time_s: float) -> Optional[float]:
        """One-way latency from a user to the nearest Internet gateway.

        The route follows the paper's Figure 2(b) measurement ("compute
        the shortest path between the satellite that picks up the user's
        signal, and the satellite that will relay that signal to the
        ground station, and use this path length to estimate latency"),
        but the returned latency is the route's summed propagation and
        queueing delay (:attr:`RouteMetrics.total_delay_s`): the
        gateway's queueing proxy counts, as it does in the
        :data:`~repro.routing.metrics.PROPAGATION_ONLY` route cost.

        Returns None when the user has no path to any gateway.
        """
        snap = self.snapshot(time_s, users=[user])
        metrics = snap.nearest_ground_station_route(user.user_id)
        if metrics is None:
            return None
        return metrics.total_delay_s
