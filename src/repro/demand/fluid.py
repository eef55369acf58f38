"""The vectorized fluid-flow traffic engine.

Millions of users become array operations: each loaded ground cell is
one *aggregate flow* from its cell terminal to its serving gateway.
The engine reads a snapshot's arrays, never a graph view: routes come
from one reverse Dijkstra out of every gateway over the snapshot's CSR
adjacency, with a margin certificate proving each cell's route is the
one its own search would return; only cells it cannot prove (exact
ties) run that search
(:meth:`~repro.routing.csr.CsrAdjacency.nearest_target_paths`); each
hop's capacity and delay are read from the snapshot's edge arrays
(:class:`~repro.core.network.SnapshotEdges`); and rates come from a
demand-capped max-min-fair waterfilling fixed point over the flow→edge
incidence arrays (:func:`waterfill_rates`).  It is the one max-min-fair
allocator in the package: the flow-level simulator
(:class:`repro.simulation.flowsim.FlowSimulator`) calls it at infinite
demand over the rows of the snapshot it simulates.

Each waterfilling iteration either freezes every demand-limited flow
below the current water level at once or resolves one bottleneck link,
so the loop runs for at most ``flows`` iterations and in practice for
about the number of congested links.  The fixed point is verified on
exit: no link over capacity, and no unfrozen flow left below its fair
share (``converged``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs

if TYPE_CHECKING:
    # Annotations only: repro.core imports the simulation package, whose
    # flow simulator imports this allocator.
    from repro.core.network import SnapshotEdges
    from repro.routing.csr import CsrAdjacency

#: Utilization is clamped below 1 when deriving queueing-delay
#: inflation so saturated links price as very expensive, not infinite.
MAX_UTILIZATION = 0.99


def edge_key(u: str, v: str) -> Tuple[str, str]:
    """Canonical undirected edge key (sorted node pair)."""
    return (u, v) if u <= v else (v, u)


@dataclass
class FluidResult:
    """Outcome of one fluid fixed-point evaluation.

    Flow-indexed arrays are parallel to ``cell_ids``; edge-indexed
    arrays are parallel to ``edge_keys`` (the union of edges on any
    selected route, deterministic first-use order).

    Attributes:
        cell_ids: The aggregate flows, in input order.
        demand_bps: Offered load per flow.
        rate_bps: Allocated max-min-fair rate per flow (0 when
            unrouted).
        routed: Whether a gateway route existed for each flow.
        paths: Selected node path per flow (None when unrouted).
        edge_keys: Canonical (u, v) per edge slot.
        edge_capacity_bps: Link capacity per edge slot.
        edge_load_bps: Allocated load per edge slot.
        edge_delay_s: Propagation delay per edge slot.
        iterations: Waterfilling iterations used.
        converged: Fixed point reached and verified.
    """

    cell_ids: List[str]
    demand_bps: np.ndarray
    rate_bps: np.ndarray
    routed: np.ndarray
    paths: List[Optional[List[str]]]
    edge_keys: List[Tuple[str, str]]
    edge_capacity_bps: np.ndarray
    edge_load_bps: np.ndarray
    edge_delay_s: np.ndarray
    iterations: int
    converged: bool
    #: Flow→edge incidence: entry k says flow ``entry_flow[k]`` crosses
    #: edge slot ``entry_edge[k]``.
    entry_flow: np.ndarray = field(repr=False, default=None)
    entry_edge: np.ndarray = field(repr=False, default=None)

    @property
    def utilization(self) -> Dict[Tuple[str, str], float]:
        """Allocated utilization per link, ``(u, v) -> load/capacity``."""
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                np.isfinite(self.edge_capacity_bps)
                & (self.edge_capacity_bps > 0.0),
                self.edge_load_bps / self.edge_capacity_bps, 0.0,
            )
        return {
            key: float(fraction)
            for key, fraction in zip(self.edge_keys, fractions)
        }

    @property
    def served_fraction(self) -> float:
        """Allocated / offered load, over all flows (1.0 when idle)."""
        offered = float(self.demand_bps.sum())
        if offered <= 0.0:
            return 1.0
        return float(self.rate_bps.sum()) / offered

    def delay_inflation(self) -> np.ndarray:
        """Per-flow M/M/1 route-delay inflation (1.0 = uncongested).

        Each link's propagation delay inflates by ``1 / (1 - u)`` at its
        allocated utilization; a flow's inflation is the ratio of its
        congested to uncongested route delay.  Unrouted flows report 1.
        """
        flows = len(self.cell_ids)
        if flows == 0:
            return np.zeros(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                np.isfinite(self.edge_capacity_bps)
                & (self.edge_capacity_bps > 0.0),
                self.edge_load_bps / self.edge_capacity_bps, 0.0,
            )
        util = np.minimum(util, MAX_UTILIZATION)
        inflated = self.edge_delay_s / (1.0 - util)
        base = np.bincount(self.entry_flow,
                           weights=self.edge_delay_s[self.entry_edge],
                           minlength=flows)
        congested = np.bincount(self.entry_flow,
                                weights=inflated[self.entry_edge],
                                minlength=flows)
        ratio = np.ones(flows)
        positive = base > 0.0
        ratio[positive] = congested[positive] / base[positive]
        return ratio


def weighted_percentile(values: np.ndarray, weights: np.ndarray,
                        fraction: float) -> float:
    """Weight-cumulative percentile (deterministic, stable sort)."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.size == 0 or weights.sum() <= 0.0:
        return float("nan")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    index = int(np.searchsorted(cumulative, fraction * cumulative[-1]))
    return float(values[order[min(index, values.size - 1)]])


def map_cells_to_routes(adjacency: CsrAdjacency, gateways: Sequence[str],
                        cell_ids: Sequence[str],
                        ) -> List[Optional[List[str]]]:
    """Serving route (cell → cheapest gateway) for every cell at once.

    Each route is the forward rule's: the cell's Dijkstra, the
    first-listed gateway at the least cost, that gateway's path.
    :meth:`CsrAdjacency.nearest_target_paths` answers it for the whole
    cell set from one reverse search out of the gateways, and runs the
    forward search only for the cells whose route its margin
    certificate cannot prove.

    Args:
        adjacency: The snapshot's CSR under the route cost (propagation
            delay for the demand sweep).
        gateways: Gateway node ids, in tie-break order.
        cell_ids: The cells to route; ids absent from ``adjacency`` get
            no route.

    Returns:
        One node path per cell id, ``None`` where no gateway is
        reachable.
    """
    cell_list = list(cell_ids)
    if not gateways or not cell_list:
        return [None] * len(cell_list)
    known = [cell for cell in cell_list if cell in adjacency]
    paths_by_cell = dict(zip(known,
                             adjacency.nearest_target_paths(known, gateways)))
    return [paths_by_cell.get(cell) for cell in cell_list]


def waterfill_rates(demand_bps: np.ndarray, entry_flow: np.ndarray,
                    entry_edge: np.ndarray, capacity_bps: np.ndarray,
                    ) -> Tuple[np.ndarray, int, bool]:
    """Demand-capped max-min-fair waterfilling over shared links.

    Vectorized progressive filling: raise the water level to the most
    constrained link's fair share; flows whose demand sits below that
    level freeze at their demand (they never congest anything further),
    otherwise the bottleneck link's flows freeze at the fair share and
    its capacity leaves the pool.  All bookkeeping is bincount
    scatter-adds over the flow→edge incidence arrays: a frozen flow's
    entries leave each link's count once, when it freezes.  A flow that
    crosses only uncapped (``inf``) links takes its demand, ``inf`` at
    infinite demand.  The loop is bounded at ``flows + 8`` iterations.

    Args:
        demand_bps: Offered load per flow (``>= 0``, may be ``inf``).
        entry_flow: Flow index per incidence entry.
        entry_edge: Edge index per incidence entry (parallel).
        capacity_bps: Capacity per edge slot (may be ``inf``).

    Returns:
        ``(rate_bps, iterations, converged)``.
    """
    demand = np.asarray(demand_bps, dtype=np.float64)
    flows = demand.size
    rate = np.zeros(flows)
    if flows == 0:
        return rate, 0, True
    if (demand < 0.0).any():
        raise ValueError("demands must be >= 0")
    entry_flow = np.asarray(entry_flow, dtype=np.int64)
    entry_edge = np.asarray(entry_edge, dtype=np.int64)
    if entry_flow.shape != entry_edge.shape:
        raise ValueError("incidence arrays must be parallel")
    residual = np.array(capacity_bps, dtype=np.float64)
    edges = residual.size
    max_iterations = flows + 8

    unfrozen = ~(demand <= 0.0)
    # Flows that touch no link are never constrained.
    free = np.bincount(entry_flow, minlength=flows) == 0
    free &= unfrozen
    rate[free] = demand[free]
    unfrozen &= ~free
    # Unfrozen entries per link.
    counts = np.bincount(entry_edge[unfrozen[entry_flow]], minlength=edges)
    uncapped = np.full(edges, np.inf)

    iterations = 0
    converged = True
    while unfrozen.any():
        iterations += 1
        if iterations > max_iterations:
            converged = False
            break
        share = np.divide(np.maximum(residual, 0.0), counts,
                          out=uncapped.copy(), where=counts > 0)
        level = share.min()
        if level == np.inf:
            # Every unfrozen flow crosses only uncapped links: each takes
            # its demand, and no residual is left to draw down (inf - inf).
            rate[unfrozen] = demand[unfrozen]
            break
        newly = unfrozen & (demand <= level * (1.0 + 1e-12))
        if newly.any():
            rate[newly] = demand[newly]
        else:
            # The bottleneck link's unfrozen flows take the fair share.
            newly[entry_flow[entry_edge == share.argmin()]] = True
            newly &= unfrozen
            rate[newly] = level
        unfrozen &= ~newly
        newly_entry = newly[entry_flow]
        newly_edge = entry_edge[newly_entry]
        residual -= np.bincount(newly_edge,
                                weights=rate[entry_flow[newly_entry]],
                                minlength=edges)
        counts -= np.bincount(newly_edge, minlength=edges)
    return rate, iterations, converged


def run_fluid(adjacency: CsrAdjacency, edges: SnapshotEdges,
              gateways: Sequence[str], cell_ids: Sequence[str],
              demand_bps: Sequence[float],
              paths: Optional[Sequence[Optional[List[str]]]] = None,
              ) -> FluidResult:
    """Evaluate the fluid fixed point for one snapshot and demand vector.

    Args:
        adjacency: The snapshot's CSR under the route cost; its
            ``nodes`` are the ids ``edges`` indexes.
        edges: The snapshot's edge arrays, carrying the capacity each
            link offers the fluid plane (every edge on a route needs
            one row).
        gateways: Gateway node ids the cells route to.
        cell_ids: Aggregate-flow source nodes (cell terminals).
        demand_bps: Offered load per cell, parallel to ``cell_ids``.
        paths: Pre-computed routes (skips the Dijkstra stage); mainly
            for benchmarks isolating the waterfilling stage.

    Returns:
        The :class:`FluidResult` fixed point.
    """
    cell_list = list(cell_ids)
    demand = np.asarray(demand_bps, dtype=np.float64)
    if demand.shape != (len(cell_list),):
        raise ValueError(
            f"{demand.shape} demands for {len(cell_list)} cells"
        )
    recorder = _obs.active()
    with recorder.span("demand.fluid", cells=len(cell_list)):
        if paths is None:
            paths = map_cells_to_routes(adjacency, gateways, cell_list)
        else:
            paths = list(paths)
        routed = np.asarray(
            [path is not None and len(path) >= 2 for path in paths]
        )

        # Edge slots in first-use order: waterfill_rates breaks
        # bottleneck ties by the lowest slot.
        index = adjacency.index
        count = adjacency.node_count
        row_of_pair = edges.pair_rows(count)
        slot_of_row: Dict[int, int] = {}
        entry_flow: List[int] = []
        entry_edge: List[int] = []
        for flow_index, path in enumerate(paths):
            if path is None or len(path) < 2:
                continue
            hops = [index[node] for node in path]
            for a, b in zip(hops[:-1], hops[1:]):
                row = row_of_pair[a * count + b if a < b else b * count + a]
                entry_flow.append(flow_index)
                entry_edge.append(slot_of_row.setdefault(row,
                                                         len(slot_of_row)))
        entry_flow_arr = np.asarray(entry_flow, dtype=np.int64)
        entry_edge_arr = np.asarray(entry_edge, dtype=np.int64)
        rows = np.fromiter(slot_of_row, dtype=np.int64,
                           count=len(slot_of_row))
        nodes = adjacency.nodes
        edge_keys = [edge_key(nodes[u], nodes[v]) for u, v in
                     zip(edges.u[rows].tolist(), edges.v[rows].tolist())]
        capacity = edges.capacity_bps[rows]
        delay = edges.delay_s[rows]

        effective = np.where(routed, demand, 0.0)
        rate, iterations, converged = waterfill_rates(
            effective, entry_flow_arr, entry_edge_arr, capacity,
        )
        load = np.bincount(
            entry_edge_arr, weights=rate[entry_flow_arr],
            minlength=len(edge_keys),
        ) if entry_flow_arr.size else np.zeros(len(edge_keys))
        # Verify the fixed point: capacity respected everywhere.
        finite = np.isfinite(capacity)
        if np.any(load[finite] > capacity[finite] * (1.0 + 1e-9)):
            converged = False

    if recorder.enabled:
        recorder.count("demand.fluid.cells", len(cell_list))
        recorder.count("demand.fluid.iterations", iterations)
        recorder.gauge("demand.fluid.served_fraction",
                       float(rate.sum() / demand.sum())
                       if demand.sum() > 0 else 1.0)
    return FluidResult(
        cell_ids=cell_list, demand_bps=demand, rate_bps=rate,
        routed=routed, paths=list(paths), edge_keys=edge_keys,
        edge_capacity_bps=capacity, edge_load_bps=load,
        edge_delay_s=delay,
        iterations=iterations, converged=converged,
        entry_flow=entry_flow_arr, entry_edge=entry_edge_arr,
    )
