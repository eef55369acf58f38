"""Tests for the per-link / per-node health plane."""

import networkx as nx

from repro import obs
from repro.obs.export import summarize_records
from repro.obs.health import HealthPlane, link_key
from tests.routing.oracle import GraphSnapshot


def _graph(*edges, satellites=()):
    """A hand-drawn snapshot: the listed satellites, then the edges."""
    graph = nx.Graph()
    for node in satellites:
        graph.add_node(node, kind="satellite")
    for u, v in edges:
        graph.add_edge(u, v)
    return GraphSnapshot(graph)


class TestLinkKey:
    def test_order_independent(self):
        assert link_key("S2", "S1") == link_key("S1", "S2") == "S1--S2"


class TestSampling:
    def test_epoch_aggregates(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("A", "B"), ("B", "C")), faults_active=1)
        assert len(plane) == 1
        assert plane.links_up[0] == 2
        assert plane.nodes_up[0] == 3
        assert plane.faults_active[0] == 1

    def test_diff_reports_appeared_and_vanished(self):
        plane = HealthPlane()
        appeared, vanished = plane.sample(0.0, _graph(("A", "B"), ("B", "C")))
        assert (appeared, vanished) == ([], [])  # baseline
        appeared, vanished = plane.sample(60.0, _graph(("A", "B"), ("C", "D")))
        assert appeared == ["C--D"]
        assert vanished == ["B--C"]

    def test_reset_starts_fresh_baseline(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("A", "B")))
        appeared, vanished = plane.sample(60.0, _graph(("C", "D")),
                                          reset=True)
        assert (appeared, vanished) == ([], [])

    def test_isl_counts_only_satellite_neighbors(self):
        graph = _graph(("S1", "S2"), ("S1", "G1"),
                       satellites=("S1", "S2"))
        plane = HealthPlane()
        plane.sample(0.0, graph)
        # Two satellite rows; S1 has one satellite neighbor (G1 excluded).
        assert list(plane._node_isls) == [1, 1]
        assert plane._node_ids == ["S1", "S2"]

    def test_network_snapshot_samples_as_its_graph_view(self):
        from repro.core.interop import SizeClass, build_fleet
        from repro.core.network import OpenSpaceNetwork
        from repro.ground.station import default_station_network
        from repro.orbits.walker import walker_delta

        network = OpenSpaceNetwork(
            build_fleet(walker_delta(40, 5), "op", SizeClass.MEDIUM),
            default_station_network())
        network.set_fault_state(
            failed_satellites=[network.satellites[7].satellite_id])
        snap = network.snapshot(300.0)
        plane = HealthPlane()
        plane.sample(300.0, snap)
        graph = snap.graph
        satellites = sorted(node for node, kind in graph.nodes(data="kind")
                            if kind == "satellite")
        assert plane.links_up[0] == graph.number_of_edges()
        assert plane.nodes_up[0] == graph.number_of_nodes()
        assert sorted(plane._link_ids) == sorted(
            link_key(u, v) for u, v in graph.edges())
        assert plane._node_ids == satellites
        assert list(plane._node_isls) == [
            sum(graph.nodes[other]["kind"] == "satellite"
                for other in graph.neighbors(node))
            for node in satellites
        ]

    def test_utilization_samples_interned(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("A", "B")),
                     utilization={("B", "A"): 0.5})
        assert list(plane._link_util) == [0.5]
        assert plane._link_ids[plane._link_index[0]] == "A--B"


def _present_epochs(plane):
    """Link id -> epochs up, from the plane's ``health_links`` record."""
    links = plane.rows()[1]
    return dict(zip(links["ids"], links["present_epochs"]))


class TestAvailability:
    def test_fraction_of_epochs_present(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("A", "B"), ("B", "C")))
        plane.sample(60.0, _graph(("A", "B")))
        assert len(plane) == 2
        assert _present_epochs(plane) == {"A--B": 2, "B--C": 1}

    def test_worst_links_ascending(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("A", "B"), ("B", "C")))
        plane.sample(60.0, _graph(("A", "B")))
        lines = summarize_records(plane.rows(), top=1).splitlines()
        start = lines.index("lowest-availability links (2 tracked):")
        assert lines[start + 1].split() == ["B--C", "50.0%", "(1/2", "epochs)"]
        assert not any("A--B" in line for line in lines[start + 1:])

    def test_empty_plane(self):
        assert HealthPlane().rows() == []


class TestExportReplay:
    def test_rows_are_columnar_and_typed(self):
        plane = HealthPlane()
        plane.sample(0.0, _graph(("S1", "S2"), satellites=("S1", "S2")),
                     utilization={("S1", "S2"): 0.25})
        rows = plane.rows()
        assert [row["type"] for row in rows] == [
            "health_epochs", "health_links", "health_nodes"]
        assert rows[0]["t"] == [0.0]
        assert rows[1]["ids"] == ["S1--S2"]
        assert rows[1]["utilization"] == [0.25]
        assert rows[2]["isl_count"] == [1, 1]

    def test_replay_merges_and_remaps(self):
        worker = HealthPlane()
        worker.sample(0.0, _graph(("A", "B")))
        worker.sample(60.0, _graph(("A", "B"), ("B", "C")))
        parent = HealthPlane()
        parent.sample(0.0, _graph(("B", "C")))
        assert parent.replay_rows(worker.rows()) == 2
        assert len(parent) == 3
        assert list(parent.epoch_t) == [0.0, 0.0, 60.0]
        # Presence accumulates across the merge: B--C up in 1 parent epoch
        # + 1 worker epoch out of 3 total.
        assert _present_epochs(parent) == {"A--B": 2, "B--C": 2}

    def test_replay_equals_serial(self):
        graphs = [
            _graph(("A", "B"), ("B", "C")),
            _graph(("A", "B")),
            _graph(("A", "B"), ("C", "D")),
        ]
        serial = HealthPlane()
        for index, graph in enumerate(graphs):
            serial.sample(float(index), graph, reset=index == 0)
        split = HealthPlane()
        for index, graph in enumerate(graphs):
            worker = HealthPlane()
            worker.sample(float(index), graph, reset=True)
            split.replay_rows(worker.rows())
        assert split.rows() == serial.rows()


class TestRecorderIntegration:
    def test_sample_health_emits_link_events(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            obs.sample_health(0.0, _graph(("A", "B")), reset=True)
            obs.sample_health(60.0, _graph(("C", "D")))
        assert [(e.kind, e.subject) for e in recorder.events.events] == [
            ("link.up", "C--D"), ("link.down", "A--B")]
