"""Tests for span tracing, the phase profiler, and the recorder surface."""

import pytest

from repro import obs
from repro.obs.profile import PhaseProfiler
from repro.obs.tracing import Tracer


class TestTracer:
    def test_span_records_duration(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.end_s is not None
        assert span.duration_s >= 0.0
        assert tracer.rows()[0]["name"] == "work"

    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # nothing left open

    def test_sequential_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.span_id for s in tracer.spans] == [0, 1]

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.spans[0].end_s is not None
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # nothing left open

    def test_attrs_exported(self):
        tracer = Tracer()
        with tracer.span("job", satellites=66, seed=42):
            pass
        row = tracer.rows()[0]
        assert row["attrs"] == {"satellites": 66, "seed": 42}


class TestPhaseProfiler:
    def test_accumulates_calls(self):
        profiler = PhaseProfiler()
        for _ in range(5):
            with profiler.phase("stage"):
                pass
        assert profiler.calls("stage") == 5
        assert profiler.total_s("stage") >= 0.0
        assert [row["name"] for row in profiler.rows()] == ["stage"]

    def test_unknown_phase_zero(self):
        profiler = PhaseProfiler()
        assert profiler.total_s("never") == 0.0
        assert profiler.calls("never") == 0

    def test_report_renders(self):
        profiler = PhaseProfiler()
        with profiler.phase("alpha"):
            pass
        report = profiler.report()
        assert "alpha" in report
        assert "calls" in report

    def test_empty_report(self):
        assert PhaseProfiler().report() == "no phases recorded"


class TestRecorderSurface:
    def test_recorder_collects_all_kinds(self):
        recorder = obs.Recorder()
        recorder.count("c", 2.0, label="x")
        recorder.gauge("g", 7.0)
        recorder.observe("h", 0.5)
        with recorder.span("s"):
            pass
        with recorder.phase("p"):
            pass
        assert recorder.metrics.counter("c", "x").value == 2.0
        assert recorder.metrics.gauge("g").value == 7.0
        assert recorder.metrics.histogram("h").count == 1
        assert len(recorder.tracer.rows()) == 1
        assert recorder.profiler.calls("p") == 1

    def test_obs_config_validation(self):
        with pytest.raises(ValueError, match="queue_sample_interval"):
            obs.ObsConfig(queue_sample_interval=0)
