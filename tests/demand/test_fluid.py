"""Tests for the vectorized fluid-flow engine."""

import networkx as nx
import numpy as np
import pytest

from repro import obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.demand.fluid import (
    map_cells_to_routes,
    run_fluid,
    waterfill_rates,
    weighted_percentile,
)
from repro.demand.grid import GridSpec, population_grid
from repro.experiments.demand import FLEET_OWNER, PROVIDERS, plane_count_for
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.parallel import derive_seed
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import DELAY_ONLY
from tests.routing.oracle import delay_weight
from tests.demand.tables import edge_table
from tests.routing import oracle

FALLBACK = "routing.nearest_paths.fallback_sources"

#: Two cells -> one satellite -> one gateway, plus an isolated cell.
STAR_NODES = ["cell-00000", "cell-00001", "cell-00002", "sat-0", "gw"]
STAR_ROWS = [
    ("cell-00000", "sat-0", 0.004, 100e6),
    ("cell-00001", "sat-0", 0.004, 100e6),
    ("sat-0", "gw", 0.003, 50e6),
]


def star_routes(cells):
    adjacency, _ = edge_table(STAR_NODES, STAR_ROWS)
    return map_cells_to_routes(adjacency, ["gw"], cells)


def star_fluid(cells, demand_bps):
    adjacency, edges = edge_table(STAR_NODES, STAR_ROWS)
    return run_fluid(adjacency, edges, ["gw"], cells, demand_bps)


class TestWaterfill:
    def test_classic_three_flow_example(self):
        # flow 0 on edges {0,1}, flow 1 on {0}, flow 2 on {1};
        # caps 10 and 8 -> bottleneck edge 1 at 4, flow 1 tops up to 6.
        entry_flow = np.array([0, 0, 1, 2])
        entry_edge = np.array([0, 1, 0, 1])
        rates, iterations, converged = waterfill_rates(
            np.array([100.0, 100.0, 100.0]), entry_flow, entry_edge,
            np.array([10.0, 8.0]))
        assert converged
        assert rates == pytest.approx([4.0, 6.0, 4.0])

    def test_demand_capped_flows_release_capacity(self):
        entry_flow = np.array([0, 0, 1, 2])
        entry_edge = np.array([0, 1, 0, 1])
        rates, _, converged = waterfill_rates(
            np.array([2.0, 100.0, 100.0]), entry_flow, entry_edge,
            np.array([10.0, 8.0]))
        assert converged
        assert rates == pytest.approx([2.0, 8.0, 6.0])

    def test_zero_capacity_edge_starves(self):
        rates, _, converged = waterfill_rates(
            np.array([5.0, 5.0]), np.array([0, 1]), np.array([0, 0]),
            np.array([0.0]))
        assert converged
        assert rates == pytest.approx([0.0, 0.0])

    def test_flows_off_constrained_edges_get_demand(self):
        rates, _, converged = waterfill_rates(
            np.array([7.0]), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([]))
        assert converged
        assert rates == pytest.approx([7.0])

    def test_empty(self):
        rates, iterations, converged = waterfill_rates(
            np.array([]), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([1.0]))
        assert converged and iterations == 0 and rates.size == 0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            waterfill_rates(np.array([-1.0]), np.array([0]),
                            np.array([0]), np.array([1.0]))

    def test_capacity_never_exceeded_random(self):
        rng = np.random.default_rng(8)
        flows, edges = 60, 15
        lengths = rng.integers(1, 5, size=flows)
        entry_flow, entry_edge = [], []
        for f in range(flows):
            for e in rng.choice(edges, size=lengths[f], replace=False):
                entry_flow.append(f)
                entry_edge.append(int(e))
        demand = rng.uniform(0.0, 50.0, size=flows)
        capacity = rng.uniform(1.0, 100.0, size=edges)
        rates, _, converged = waterfill_rates(
            demand, np.array(entry_flow), np.array(entry_edge), capacity)
        assert converged
        assert np.all(rates <= demand * (1 + 1e-9))
        loads = np.bincount(np.array(entry_edge),
                            weights=rates[np.array(entry_flow)],
                            minlength=edges)
        assert np.all(loads <= capacity * (1 + 1e-9))


class TestRouteMapping:
    def test_routes_reach_gateway(self):
        paths = star_routes(["cell-00000", "cell-00001"])
        for path in paths:
            assert path is not None
            assert path[-1] == "gw"

    def test_unreachable_cell_gets_none(self):
        assert star_routes(["cell-00002"]) == [None]

    def test_unknown_cell_gets_none(self):
        assert star_routes(["cell-99999"]) == [None]

    def test_backends_agree(self):
        # Each cell's route is the oracle's path to its nearest gateway
        # (first-listed gateway on ties).
        nodes = STAR_NODES + ["gw-far"]
        rows = STAR_ROWS + [("cell-00001", "gw-far", 0.006, 10e6)]
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for u, v, delay, capacity in rows:
            graph.add_edge(u, v, delay_s=delay, capacity_bps=capacity)
        cells = ["cell-00000", "cell-00001", "cell-00002"]
        expected = []
        for cell in cells:
            dist, paths = oracle.dijkstra(graph, cell, weight=delay_weight)
            reachable = [g for g in ("gw", "gw-far") if g in dist]
            nearest = min(reachable, key=dist.__getitem__, default=None)
            expected.append(None if nearest is None else paths[nearest])
        adjacency, _ = edge_table(nodes, rows)
        assert map_cells_to_routes(adjacency, ["gw", "gw-far"],
                                   cells) == expected
        assert expected[1] == ["cell-00001", "gw-far"]


def demand_point_snapshot(satellites, hour, distribution):
    """Snapshot and loaded cells of one 1 M-user ``demand_sweep`` point
    (18x36 grid, seed 7), built as ``_demand_point`` builds it."""
    users = 1_000_000
    rng = np.random.default_rng(
        derive_seed(7, "demand-grid", users, distribution))
    grid = population_grid(users, rng, GridSpec(bands=18, equator_columns=36),
                           distribution=distribution)
    fleet = build_fleet(walker_delta(satellites, plane_count_for(satellites)),
                        FLEET_OWNER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())
    snap = network.snapshot(hour * 3600.0, users=grid.terminals(PROVIDERS))
    return snap, grid.cell_ids(grid.occupied)


def forward_routes(snap, cells):
    """One forward search per cell over the graph view's compile: the
    route map's defining rule."""
    graph = snap.graph
    gateways = [node for node, data in graph.nodes(data=True)
                if data.get("kind") == "ground_station"]
    adjacency = CsrAdjacency.from_graph(graph, weight=delay_weight)
    return oracle.nearest_paths(adjacency, cells, gateways)


def routes_and_fallbacks(snap, cells):
    recorder = obs.Recorder()
    with obs.use(recorder):
        paths = map_cells_to_routes(snap.csr_adjacency(DELAY_ONLY),
                                    snap.nodes_of_kind("ground_station"),
                                    cells)
    return paths, recorder.metrics.counter(FALLBACK).value


class TestRouteCertificate:
    @pytest.mark.parametrize("distribution", ["uniform_land", "underserved"])
    def test_walker_ties_fall_back_to_the_forward_search(self, distribution):
        # The symmetric 512-satellite fleet at 00:00 UTC gives some cells
        # two routes of equal delay up to rounding; the reverse tree
        # alone picks the other route for 5 (uniform_land) and 4
        # (underserved) of them, so the certificate must send such cells
        # to the forward search.
        snap, cells = demand_point_snapshot(512, 0.0, distribution)
        paths, fallbacks = routes_and_fallbacks(snap, cells)
        assert paths == forward_routes(snap, cells)
        assert fallbacks > 0

    def test_no_fallback_off_the_ties(self):
        snap, cells = demand_point_snapshot(264, 4.0, "uniform_land")
        paths, fallbacks = routes_and_fallbacks(snap, cells)
        assert paths == forward_routes(snap, cells)
        assert fallbacks == 0


class TestRunFluid:
    def test_shared_gateway_link_splits_fairly(self):
        result = star_fluid(["cell-00000", "cell-00001"], [100e6, 100e6])
        assert result.converged
        assert result.rate_bps == pytest.approx([25e6, 25e6])
        util = result.utilization[("gw", "sat-0")]
        assert util == pytest.approx(1.0)

    def test_unrouted_cell_rate_zero(self):
        result = star_fluid(["cell-00000", "cell-00002"], [10e6, 10e6])
        assert result.converged
        assert bool(result.routed[0]) and not bool(result.routed[1])
        assert result.rate_bps[1] == 0.0
        assert result.served_fraction == pytest.approx(0.5)

    def test_light_load_fully_served(self):
        result = star_fluid(["cell-00000", "cell-00001"], [1e6, 2e6])
        assert result.converged
        assert result.served_fraction == pytest.approx(1.0)
        assert result.rate_bps == pytest.approx([1e6, 2e6])

    def test_delay_inflation_grows_under_load(self):
        light = star_fluid(["cell-00000"], [1e6])
        heavy = star_fluid(["cell-00000"], [200e6])
        assert float(light.delay_inflation()[0]) < \
            float(heavy.delay_inflation()[0])
        assert float(light.delay_inflation()[0]) >= 1.0

    def test_edge_slots_in_first_use_order(self):
        # waterfill_rates breaks bottleneck ties by the lowest slot, so
        # slots follow the routes, not the snapshot's edge rows.
        result = star_fluid(["cell-00001", "cell-00000"], [1e6, 1e6])
        assert result.edge_keys == [("cell-00001", "sat-0"), ("gw", "sat-0"),
                                    ("cell-00000", "sat-0")]

    def test_demand_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            star_fluid(["cell-00000"], [1e6, 2e6])

    def test_deterministic(self):
        a = star_fluid(["cell-00000", "cell-00001"], [60e6, 70e6])
        b = star_fluid(["cell-00000", "cell-00001"], [60e6, 70e6])
        assert np.array_equal(a.rate_bps, b.rate_bps)
        assert a.edge_keys == b.edge_keys
        assert a.utilization == b.utilization


class TestWeightedPercentile:
    def test_simple_median(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 1.0])
        assert weighted_percentile(values, weights, 0.5) == 2.0

    def test_weights_shift_percentile(self):
        values = np.array([1.0, 10.0])
        weights = np.array([99.0, 1.0])
        assert weighted_percentile(values, weights, 0.95) == 1.0
        assert weighted_percentile(values, weights, 0.999) == 10.0

    def test_empty_is_nan(self):
        assert np.isnan(weighted_percentile(np.array([]), np.array([]),
                                            0.5))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            weighted_percentile(np.array([1.0]), np.array([1.0]), 1.5)
