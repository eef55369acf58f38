"""Edge-case tests for time-expanded store-and-forward routing."""

import bisect
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.routing.timeexpanded import TimeExpandedRouter
from tests.routing import oracle
from tests.routing.oracle import GraphSnapshot, delay_weight


def contact_epoch(time_s, edges, nodes=("a", "b", "c")):
    """One contact epoch drawn by hand: ``(u, v, delay)`` contacts."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for u, v, delay in edges:
        graph.add_edge(u, v, delay_s=delay)
    return GraphSnapshot(graph, time_s)


def _oracle_arrival(router, source, target, departure_s):
    """Earliest arrival by networkx Dijkstra over the router's contact
    graph, or None when the bundle cannot be delivered."""
    start_epoch = bisect.bisect_right(router.epoch_times, departure_s) - 1
    start = (source, start_epoch)
    graph = oracle.time_expanded_graph(router)
    if start not in graph:
        return None
    dist, _paths = oracle.dijkstra(graph, start, weight=delay_weight)
    arrivals = [dist[(target, k)]
                for k in range(start_epoch, len(router.snapshots))
                if (target, k) in dist]
    return departure_s + min(arrivals) if arrivals else None


def _arrival(planner, router, source, target, departure_s):
    """Arrival time from the CSR router or the oracle; None if undeliverable."""
    if planner == "networkx":
        return _oracle_arrival(router, source, target, departure_s)
    route = router.earliest_arrival(source, target, departure_s)
    return None if route is None else route.arrival_s


#: Each clipping case runs on the router and on the oracle.
PLANNERS = ["csr", "networkx"]


@pytest.fixture
def intermittent():
    """a-b contact in epoch 0; b-c contact only in epoch 2."""
    return [
        contact_epoch(0.0, [("a", "b", 0.01)]),
        contact_epoch(60.0, []),
        contact_epoch(120.0, [("b", "c", 0.01)]),
    ]


class TestSnapshotIngestion:
    def test_generator_input_materialized(self, intermittent):
        router = TimeExpandedRouter(snap for snap in intermittent)
        assert len(router.snapshots) == 3
        assert router.earliest_arrival("a", "c", 0.0) is not None

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeExpandedRouter(snap for snap in ())

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeExpandedRouter([])


class TestSourceEqualsTarget:
    def test_zero_delay_route(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("b", "b", departure_s=70.0)
        assert route is not None
        assert route.arrival_s == route.departure_s == 70.0
        assert route.delivery_delay_s == 0.0
        assert route.hops == ()
        assert route.epochs_waited == 0

    def test_unknown_entity_still_none(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        assert router.earliest_arrival("ghost", "ghost", 0.0) is None


class TestHorizonClipping:
    @pytest.mark.parametrize("planner", PLANNERS)
    def test_unreachable_within_horizon(self, planner):
        # c exists but never has a contact: no plan can reach it.
        snaps = [
            contact_epoch(0.0, [("a", "b", 0.01)]),
            contact_epoch(60.0, [("a", "b", 0.01)]),
        ]
        router = TimeExpandedRouter(snaps)
        assert _arrival(planner, router, "a", "c", 0.0) is None

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_late_departure_clips_past_contacts(self, intermittent, planner):
        router = TimeExpandedRouter(intermittent)
        # The only a-b contact lives in epoch 0: departing in epoch 1 or
        # later, that contact is history and a can no longer reach c.
        assert _arrival(planner, router, "a", "c", 60.0) is None
        assert _arrival(planner, router, "a", "c", 59.999) is not None

    def test_contact_after_departure_epoch_still_usable(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        # b holds the bundle from epoch 1 until the epoch-2 contact.
        route = router.earliest_arrival("b", "c", 60.0)
        assert route is not None
        assert route.epochs_waited == 1
        assert route.arrival_s == pytest.approx(120.0 + 0.01)


class TestStorageAccounting:
    def test_epochs_waited_counts_storage_edges(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("a", "c", 0.0)
        assert route.epochs_waited == 2
        # Arrival = two 60 s storage waits + both contact delays.
        assert route.arrival_s == pytest.approx(120.0 + 0.02)
        assert route.delivery_delay_s == pytest.approx(120.02)
        assert [(u, v) for _t, u, v in route.hops] == [
            ("a", "b"), ("b", "c"),
        ]

    def test_hop_timestamps_reflect_waits(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("a", "c", 0.0)
        first_hop, second_hop = route.hops
        assert first_hop[0] == pytest.approx(0.01)
        assert second_hop[0] == pytest.approx(120.02)

    def test_no_storage_for_instant_path(self):
        snaps = [contact_epoch(0.0, [("a", "b", 0.01), ("b", "c", 0.01)])]
        router = TimeExpandedRouter(snaps)
        route = router.earliest_arrival("a", "c", 0.0)
        assert route.epochs_waited == 0
        assert route.delivery_delay_s == pytest.approx(0.02)


class TestDeliveryRatioDeterminism:
    def test_repeated_calls_identical(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        pairs = [("a", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
        ratios = {router.delivery_ratio(pairs, 0.0) for _ in range(5)}
        assert len(ratios) == 1

    def test_backends_agree(self, intermittent):
        # Arrivals and the delivery ratio match the networkx oracle run
        # over the same time-expanded contact graph.
        router = TimeExpandedRouter(intermittent)
        pairs = [("a", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
        delivered = 0
        for source, target in pairs:
            expected = _oracle_arrival(router, source, target, 0.0)
            assert _arrival("csr", router, source, target, 0.0) == expected
            delivered += expected is not None
        assert delivered == 3
        assert router.delivery_ratio(pairs, 0.0) == delivered / len(pairs)

    def test_routes_identical_across_instances(self, intermittent):
        first = TimeExpandedRouter(intermittent)
        second = TimeExpandedRouter(intermittent)
        assert (first.earliest_arrival("a", "c", 0.0)
                == second.earliest_arrival("a", "c", 0.0))


class TestPlanHorizon:
    """The plan answers nothing at or after its horizon (180 s here)."""

    def test_departure_after_horizon_rejected(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        assert router.horizon_s == 180.0
        # The only b-c contact lies in 120-180 s; a bundle handed over
        # at 500 s cannot ride it.
        with pytest.raises(ValueError, match="horizon"):
            router.earliest_arrival("b", "c", 500.0)
        with pytest.raises(ValueError, match="horizon"):
            router.earliest_arrival("b", "c", 180.0)

    def test_departure_just_inside_horizon_still_served(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("b", "c", 179.0)
        assert route is not None
        assert route.arrival_s == pytest.approx(179.01)

    def test_delivery_ratio_after_horizon_rejected(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        with pytest.raises(ValueError, match="horizon"):
            router.delivery_ratio([("b", "c")], 10_000.0)

    @pytest.mark.parametrize("horizon_s", [120.0, 60.0])
    def test_explicit_horizon_must_follow_last_snapshot(self, intermittent,
                                                        horizon_s):
        with pytest.raises(ValueError, match="horizon"):
            TimeExpandedRouter(intermittent, horizon_s=horizon_s)

    def test_explicit_horizon_sets_plan_end(self, intermittent):
        router = TimeExpandedRouter(intermittent, horizon_s=120.5)
        assert router.earliest_arrival("b", "c", 120.4) is not None
        with pytest.raises(ValueError, match="horizon"):
            router.earliest_arrival("b", "c", 120.5)


class TestHashSeedIndependence:
    def test_equal_cost_plan_does_not_depend_on_hash_seed(self):
        # A diamond a-b-c / a-d-c of equal-cost contacts: the plan's
        # tie-break follows the time-expanded node order, which followed
        # the string hashes while entities were collected in a set
        # (seed 1 went via b, seeds 2-5 via d).
        script = (
            "import numpy as np\n"
            "from repro.routing.timeexpanded import (\n"
            "    ContactEpoch, Contacts, TimeExpandedRouter)\n"
            "def Snap(time_s, edges):\n"
            "    nodes = list(dict.fromkeys(n for edge in edges for n in edge))\n"
            "    u = np.array([nodes.index(a) for a, _ in edges])\n"
            "    v = np.array([nodes.index(b) for _, b in edges])\n"
            "    return ContactEpoch(time_s, nodes,\n"
            "                        Contacts(u, v, np.full(len(edges), 0.01)))\n"
            "router = TimeExpandedRouter([\n"
            "    Snap(0.0, [('a', 'b'), ('b', 'c'), ('a', 'd'), ('d', 'c')]),\n"
            "    Snap(60.0, [('a', 'b')]),\n"
            "])\n"
            "print(router.earliest_arrival('a', 'c', 0.0).hops)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        plans = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True)
            plans.append(result.stdout)
        assert plans[0] == plans[1]
