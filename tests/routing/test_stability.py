"""Tests for route-churn analysis."""

import networkx as nx
import pytest

from repro.routing.stability import StabilityReport, route_churn
from tests.routing.oracle import GraphSnapshot


def fake_snapshot(time_s, edges):
    """A hand-drawn snapshot over a..d: ``(u, v, delay)`` edges."""
    graph = nx.Graph()
    graph.add_nodes_from(["a", "b", "c", "d"])
    for u, v, delay in edges:
        graph.add_edge(u, v, delay_s=delay)
    return GraphSnapshot(graph, time_s)


BASE = [("a", "b", 0.01), ("b", "d", 0.01), ("a", "c", 0.02),
        ("c", "d", 0.02)]


class TestRouteChurn:
    def test_stable_topology_zero_churn(self):
        snaps = [fake_snapshot(t, BASE) for t in (0.0, 60.0, 120.0)]
        report = route_churn(snaps, [("a", "d")])
        assert report.mean_churn == 0.0
        assert all(e.pairs_lost == 0 for e in report.epochs)
        assert report.epoch_length_s == 60.0

    def test_path_change_detected(self):
        snaps = [
            fake_snapshot(0.0, BASE),
            # b goes away: route must detour through c.
            fake_snapshot(60.0, [("a", "c", 0.02), ("c", "d", 0.02)]),
        ]
        report = route_churn(snaps, [("a", "d")])
        assert report.epochs[0].pairs_changed == 1
        assert report.epochs[0].churn_fraction == 1.0
        assert report.epochs[0].mean_latency_delta_ms == pytest.approx(20.0)

    def test_lost_route_counted_separately(self):
        snaps = [
            fake_snapshot(0.0, BASE),
            fake_snapshot(60.0, []),  # everything breaks
        ]
        report = route_churn(snaps, [("a", "d")])
        assert report.epochs[0].pairs_lost == 1
        assert report.epochs[0].pairs_evaluated == 0
        assert report.epochs[0].churn_fraction == 0.0

    def test_unroutable_origin_ignored(self):
        snaps = [
            fake_snapshot(0.0, []),
            fake_snapshot(60.0, BASE),
        ]
        report = route_churn(snaps, [("a", "d")])
        # Nothing to churn: the pair had no route in epoch 0.
        assert report.epochs[0].pairs_evaluated == 0
        assert report.epochs[0].pairs_lost == 0

    def test_validation(self):
        snaps = [fake_snapshot(0.0, BASE)]
        with pytest.raises(ValueError, match="two snapshots"):
            route_churn(snaps, [("a", "d")])
        with pytest.raises(ValueError, match="pair"):
            route_churn([fake_snapshot(0.0, BASE),
                         fake_snapshot(60.0, BASE)], [])

    def test_report_aggregates(self):
        report = StabilityReport(epoch_length_s=60.0)
        assert report.mean_churn == 0.0
        assert report.worst_churn == 0.0
        assert report.refresh_budget_per_orbit() == pytest.approx(
            6027.0 / 60.0
        )

    def test_real_constellation_churn_grows_with_epoch_length(self, iridium):
        from repro.core.interop import SizeClass, SpacecraftSpec
        from repro.core.network import OpenSpaceNetwork
        from repro.phy.rf import standard_sband_isl_terminal
        network = OpenSpaceNetwork([
            SpacecraftSpec(f"s{i}", "op", SizeClass.SMALL, elements,
                           isl_terminals=[standard_sband_isl_terminal()],
                           max_concurrent_isls=3)
            for i, elements in enumerate(iridium.subset(30).elements)
        ])

        def snaps(step):
            return [network.snapshot(t) for t in (0.0, step, 2 * step)]

        pairs = [("s0", "s15"), ("s3", "s20"), ("s7", "s25")]
        fine = route_churn(snaps(30.0), pairs)
        coarse = route_churn(snaps(600.0), pairs)
        assert coarse.mean_churn >= fine.mean_churn
