"""The default recorder must be a no-op and leave no trace anywhere."""

from repro import obs
from repro.simulation.engine import SimulationEngine


class TestDefault:
    def test_null_recorder_is_default(self):
        assert obs.active() is obs.NULL_RECORDER
        assert not obs.active().enabled

    def test_null_operations_are_silent(self):
        recorder = obs.NullRecorder()
        recorder.count("c")
        recorder.gauge("g", 1.0)
        recorder.observe("h", 1.0)
        with recorder.span("s", attr=1):
            with recorder.phase("p"):
                pass
        # NullRecorder holds no state at all.
        assert not hasattr(recorder, "metrics")

    def test_instrumented_engine_records_nothing_by_default(self):
        engine = SimulationEngine()
        for t in range(10):
            engine.schedule(float(t), lambda: None, label="tick")
        engine.run()
        assert engine.processed_count == 10
        assert obs.active() is obs.NULL_RECORDER


class TestInstall:
    def test_use_scopes_the_recorder(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            assert obs.active() is recorder
            obs.count("scoped")
        assert obs.active() is obs.NULL_RECORDER
        assert recorder.metrics.counter("scoped").value == 1.0

    def test_use_restores_on_exception(self):
        recorder = obs.Recorder()
        try:
            with obs.use(recorder):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.active() is obs.NULL_RECORDER

    def test_install_and_reset(self):
        recorder = obs.Recorder()
        obs.install(recorder)
        try:
            assert obs.active() is recorder
        finally:
            obs.reset()
        assert obs.active() is obs.NULL_RECORDER

    def test_nested_use_restores_outer(self):
        outer, inner = obs.Recorder(), obs.Recorder()
        with obs.use(outer):
            with obs.use(inner):
                obs.count("deep")
            assert obs.active() is outer
        assert inner.metrics.counter("deep").value == 1.0
        assert outer.metrics.rows() == []


class TestEngineInstrumentation:
    def test_engine_counts_per_label(self):
        recorder = obs.Recorder(obs.ObsConfig(queue_sample_interval=1))
        with obs.use(recorder):
            engine = SimulationEngine()
            for t in range(4):
                engine.schedule(float(t), lambda: None, label="beacon")
            engine.schedule(9.0, lambda: None)  # unlabeled
            engine.run()
        assert recorder.metrics.counter("engine.events", "beacon").value == 4
        assert recorder.metrics.counter(
            "engine.events", "unlabeled").value == 1
        assert recorder.metrics.histogram("engine.queue_depth").count == 5
        spans = [row["name"] for row in recorder.tracer.rows()]
        assert "engine.run" in spans

    def test_event_timing_is_opt_in(self):
        with obs.use(obs.Recorder()) as recorder:
            engine = SimulationEngine()
            engine.schedule(0.0, lambda: None, label="tick")
            engine.run()
        assert recorder.metrics.histogram(
            "engine.event_duration_s", "tick").count == 0

        with obs.use(obs.Recorder(obs.ObsConfig(time_events=True))) as recorder:
            engine = SimulationEngine()
            engine.schedule(0.0, lambda: None, label="tick")
            engine.run()
        assert recorder.metrics.histogram(
            "engine.event_duration_s", "tick").count == 1
