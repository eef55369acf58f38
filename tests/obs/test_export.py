"""Tests for JSONL/CSV export, the run manifest, and trace summaries."""

import csv

import pytest

import networkx as nx

from repro import obs
from repro.obs.export import (
    atomic_write,
    config_hash,
    event_rows,
    manifest_totals,
    prometheus_text,
    read_jsonl,
    run_manifest,
    summarize_file,
    summarize_records,
    trace_rows,
    write_events_jsonl,
    write_metrics_csv,
    write_prometheus_text,
    write_trace_jsonl,
)


@pytest.fixture
def recorder():
    instance = obs.Recorder()
    with obs.use(instance):
        with obs.span("experiment.demo", satellites=66):
            with obs.span("routing.demo"):
                obs.count("events", 3, label="tick")
                obs.observe("latency_ms", 31.0)
                obs.observe("latency_ms", 45.0)
        with obs.phase("build"):
            pass
        obs.gauge("queue_depth", 4)
    return instance


class TestManifest:
    def test_contains_identity_fields(self):
        manifest = run_manifest({"trials": 4, "seed": 42}, seed=42,
                                command="figure2b")
        assert manifest["type"] == "manifest"
        assert manifest["command"] == "figure2b"
        assert manifest["seed"] == 42
        assert len(manifest["config_hash"]) == 16
        for package in ("python", "repro", "numpy", "networkx"):
            assert manifest["versions"][package]

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_config_hash_distinguishes_configs(self):
        assert config_hash({"trials": 4}) != config_hash({"trials": 5})

    def test_unserializable_values_stringified(self):
        assert config_hash({"path": object()})  # must not raise


class TestJsonlRoundTrip:
    def test_round_trip(self, recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_trace_jsonl(
            recorder, path, run_manifest({"x": 1}, seed=7, command="demo"))
        records = read_jsonl(path)
        assert len(records) == written
        kinds = {record["type"] for record in records}
        assert kinds == {"manifest", "counter", "gauge", "histogram",
                         "phase", "span"}
        spans = [r for r in records if r["type"] == "span"]
        assert {s["name"] for s in spans} == {"experiment.demo",
                                              "routing.demo"}
        inner = next(s for s in spans if s["name"] == "routing.demo")
        outer = next(s for s in spans if s["name"] == "experiment.demo")
        assert inner["parent_id"] == outer["span_id"]

    def test_manifest_is_first_record(self, recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(recorder, path)
        assert read_jsonl(path)[0]["type"] == "manifest"

    def test_metric_values_deterministic_across_runs(self, tmp_path):
        def capture(path):
            recorder = obs.Recorder()
            with obs.use(recorder):
                for value in range(200):
                    obs.observe("h", float(value % 17), label="x")
                    obs.count("c", label="x")
            write_trace_jsonl(recorder, path,
                              run_manifest({"seed": 1}, seed=1))

        capture(tmp_path / "a.jsonl")
        capture(tmp_path / "b.jsonl")
        strip = {"versions"}  # identical here, but keep the check focused

        def comparable(path):
            return [
                {k: v for k, v in record.items() if k not in strip}
                for record in read_jsonl(path)
            ]

        assert comparable(tmp_path / "a.jsonl") == comparable(
            tmp_path / "b.jsonl")

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_jsonl(path)

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="JSON object"):
            read_jsonl(path)


class TestAtomicWrite:
    def test_writes_through_temp_and_renames(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as handle:
            handle.write("content")
            # Mid-write, the destination must not exist yet.
            assert not path.exists()
        assert path.read_text() == "content"
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_failure_preserves_previous_contents(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial garbage")
                raise RuntimeError("simulated crash mid-write")
        assert path.read_text() == "previous"
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_with_no_previous_file_leaves_nothing(self, tmp_path):
        path = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("doomed")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_trace_export_is_atomic(self, recorder, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(recorder, path, run_manifest({}, seed=1))
        before = path.read_text()

        import json as json_module

        def exploding_dumps(*_args, **_kwargs):
            raise RuntimeError("serializer died")

        monkeypatch.setattr(json_module, "dumps", exploding_dumps)
        with pytest.raises(RuntimeError):
            write_trace_jsonl(recorder, path, run_manifest({}, seed=1))
        assert path.read_text() == before

    def test_metrics_export_is_atomic(self, recorder, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(recorder, path)
        before = path.read_text()
        broken = obs.Recorder()
        broken.metrics.rows = lambda: (_ for _ in ()).throw(
            RuntimeError("rows died"))
        with pytest.raises(RuntimeError):
            write_metrics_csv(broken, path)
        assert path.read_text() == before


class TestCsv:
    def test_metrics_csv(self, recorder, tmp_path):
        path = tmp_path / "metrics.csv"
        rows_written = write_metrics_csv(recorder, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == rows_written
        counter = next(r for r in rows if r["type"] == "counter")
        assert counter["name"] == "events"
        assert float(counter["value"]) == 3.0
        histogram = next(r for r in rows if r["type"] == "histogram")
        assert histogram["name"] == "latency_ms"
        assert int(histogram["count"]) == 2


class TestSummarize:
    def test_summary_sections(self, recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(recorder, path,
                          run_manifest({}, seed=3, command="demo"))
        summary = summarize_file(path)
        assert "seed=3" in summary
        assert "top spans" in summary
        assert "experiment.demo" in summary
        assert "top counters" in summary
        assert "events" in summary
        assert "histograms" in summary

    def test_empty_trace(self):
        assert summarize_records([]) == "empty trace"

    def test_top_limits_rows(self, tmp_path):
        recorder = obs.Recorder()
        with obs.use(recorder):
            for index in range(20):
                obs.count(f"counter_{index:02d}")
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(recorder, path)
        summary = summarize_file(path, top=3)
        assert summary.count("counter_") == 3
        assert "(20 total)" in summary

    def test_trace_rows_include_everything(self, recorder):
        rows = trace_rows(recorder)
        assert rows[0]["type"] == "manifest"
        assert sum(1 for r in rows if r["type"] == "span") == 2


@pytest.fixture
def event_recorder():
    graph = nx.Graph()
    graph.add_edge("S1", "S2")
    graph.add_edge("G1", "S1")
    instance = obs.Recorder()
    with obs.use(instance):
        obs.sample_health(0.0, graph, reset=True)
        obs.event("handover", 30.0, subject="sat:2", user="u-1")
        obs.event("handover", 60.0, subject="sat:2", user="u-1")
        obs.event("session.drop", 90.0, subject="u-2", reason="no-route")
        obs.observe("latency_ms", 42.0)
        obs.count("flows", 3, label="completed")
    return instance


class TestEventExport:
    def test_record_order_manifest_health_events(self, event_recorder,
                                                 tmp_path):
        path = tmp_path / "events.jsonl"
        written = write_events_jsonl(
            event_recorder, path, run_manifest({}, seed=5, command="demo"))
        records = read_jsonl(path)
        assert len(records) == written
        assert [r["type"] for r in records] == [
            "manifest", "health_epochs", "health_links", "health_nodes",
            "event", "event", "event"]
        assert [r["kind"] for r in records if r["type"] == "event"] == [
            "handover", "handover", "session.drop"]

    def test_manifest_totals_folded_in(self, event_recorder, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(event_recorder, path,
                           run_manifest({}, seed=5, command="demo"))
        totals = read_jsonl(path)[0]["totals"]
        assert totals["events"] == 3
        assert totals["health_epochs"] == 1
        assert "snapshot_cache_hits" in totals
        assert "snapshot_cache_misses" in totals

    def test_manifest_totals_does_not_create_counters(self, event_recorder):
        before = event_recorder.metrics.instrument_count
        manifest_totals(event_recorder)
        assert event_recorder.metrics.instrument_count == before

    def test_event_rows_without_manifest(self, event_recorder):
        rows = event_rows(event_recorder)
        assert rows[0]["type"] == "manifest"  # synthesized

    def test_events_write_is_atomic(self, event_recorder, tmp_path,
                                    monkeypatch):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(event_recorder, path)
        before = path.read_text()

        import json as json_module

        def exploding_dumps(*_args, **_kwargs):
            raise RuntimeError("serializer died")

        monkeypatch.setattr(json_module, "dumps", exploding_dumps)
        with pytest.raises(RuntimeError):
            write_events_jsonl(event_recorder, path)
        assert path.read_text() == before

    def test_summarize_covers_events_and_health(self, event_recorder):
        summary = summarize_records(
            event_rows(event_recorder, run_manifest({}, seed=5)))
        assert "events (3 total):" in summary
        assert "handover" in summary
        assert "noisiest subjects" in summary
        assert "sat:2" in summary
        assert "health:" in summary
        assert "totals:" in summary


class TestPrometheus:
    def test_exposition_format(self, event_recorder):
        text = prometheus_text(event_recorder)
        lines = text.splitlines()
        assert any(line.startswith("# TYPE repro_flows_total counter")
                   for line in lines)
        assert 'repro_flows_total{label="completed"} 3' in text
        assert "# TYPE repro_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_latency_ms_sum 42" in text
        assert "repro_latency_ms_count 1" in text
        assert text.endswith("\n")

    def test_metric_names_sanitized(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            obs.count("network.snapshot_cache.hit")
        text = prometheus_text(recorder)
        assert "repro_network_snapshot_cache_hit_total" in text
        assert "." not in text.split()[-2]

    def test_write_returns_line_count(self, event_recorder, tmp_path):
        path = tmp_path / "metrics.prom"
        lines = write_prometheus_text(event_recorder, path)
        assert lines == len(path.read_text().splitlines())
