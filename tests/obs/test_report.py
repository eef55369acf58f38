"""Tests for the self-contained HTML timeline/health report."""

import networkx as nx
import pytest

from repro import obs
from repro.obs.export import event_rows, run_manifest, write_events_jsonl
from repro.obs.report import (
    _MAX_MARKS_PER_LANE,
    render_report,
    report_file,
    write_report,
)
from tests.routing.oracle import GraphSnapshot


def _graph(*edges):
    graph = nx.Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return GraphSnapshot(graph)


@pytest.fixture
def records():
    recorder = obs.Recorder()
    with obs.use(recorder):
        obs.sample_health(0.0, _graph(("A", "B"), ("B", "C")), reset=True)
        obs.event("handover", 30.0, subject="sat:9", user="u-1")
        obs.event("fault.inject", 45.0, subject="f-0", fault_kind="satellite")
        obs.sample_health(60.0, _graph(("A", "B")))
    return event_rows(
        recorder, run_manifest({"epochs": 2}, seed=7, command="demo"))


class TestRender:
    def test_standalone_html_document(self, records):
        html = render_report(records, title="demo run")
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "<script" not in html  # self-contained, no JS
        assert "<title>demo run</title>" in html

    def test_sections_present(self, records):
        html = render_report(records)
        assert "Event timeline" in html
        assert "Health plane" in html
        assert "Lowest-availability links" in html
        assert "Events by kind" in html
        assert "handover" in html and "fault.inject" in html
        assert "B--C" in html  # the flapped link is ranked

    def test_manifest_meta_line(self, records):
        html = render_report(records)
        assert "seed 7" in html
        assert "<code>demo</code>" in html

    def test_title_escaped(self, records):
        html = render_report(records, title="<img src=x>")
        assert "<img" not in html
        assert "&lt;img" in html

    def test_empty_records(self):
        html = render_report([])
        assert "no events in this file" in html

    def test_rendering_is_deterministic(self, records):
        assert render_report(records) == render_report(records)

    def test_timeline_downsampled_past_cap(self):
        rows = [
            {"type": "event", "seq": i, "t": float(i), "kind": "handover",
             "subject": "", "attrs": {}}
            for i in range(_MAX_MARKS_PER_LANE * 2)
        ]
        html = render_report(rows)
        assert "down-sampled" in html
        assert html.count("<circle") <= _MAX_MARKS_PER_LANE + 10


class TestFiles:
    def test_write_report_returns_byte_count(self, records, tmp_path):
        path = tmp_path / "report.html"
        written = write_report(records, path)
        assert written == len(path.read_bytes())

    def test_report_file_end_to_end(self, tmp_path):
        recorder = obs.Recorder()
        with obs.use(recorder):
            obs.event("handover", 1.0, subject="sat:1")
        trace = tmp_path / "events.jsonl"
        write_events_jsonl(recorder, trace,
                           run_manifest({}, seed=1, command="demo"))
        out = tmp_path / "report.html"
        assert report_file(trace, out) > 0
        assert "handover" in out.read_text()

    def test_report_file_missing_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report_file(tmp_path / "nope.jsonl", tmp_path / "out.html")

    def test_write_is_atomic_on_render_failure(self, records, tmp_path,
                                               monkeypatch):
        path = tmp_path / "report.html"
        write_report(records, path)
        before = path.read_text()
        import repro.obs.report as report_module

        def exploding(*_args, **_kwargs):
            raise RuntimeError("renderer died")

        monkeypatch.setattr(report_module, "_svg_timeline", exploding)
        with pytest.raises(RuntimeError):
            write_report(records, path)
        assert path.read_text() == before
