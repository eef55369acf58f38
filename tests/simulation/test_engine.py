"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        engine = SimulationEngine()
        fired = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_with_events(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now_s))
        engine.run()
        assert seen == [5.0]
        assert engine.now_s == 5.0

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine(start_s=10.0)
        with pytest.raises(ValueError, match="already at"):
            engine.schedule(5.0, lambda: None)

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(engine.now_s + 1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now_s == 3.0


class TestRunUntil:
    def test_stops_at_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        processed = engine.run_until(3.0)
        assert processed == 1
        assert fired == [1]
        assert engine.now_s == 3.0
        assert len(engine._heap) == 1

    def test_clock_advances_even_without_events(self):
        engine = SimulationEngine()
        engine.run_until(100.0)
        assert engine.now_s == 100.0

    def test_boundary_event_included(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run_until(3.0)
        assert fired == [3]

    def test_runaway_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule(engine.now_s, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="runaway"):
            engine.run_until(1.0, max_events=100)

    def test_processed_count_tracked(self):
        engine = SimulationEngine()
        for t in range(5):
            engine.schedule(float(t), lambda: None)
        engine.run()
        assert engine.processed_count == 5


class TestGuardsAndOrdering:
    def test_run_runaway_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule(engine.now_s + 0.1, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="runaway"):
            engine.run(max_events=50)

    def test_run_until_guard_leaves_headroom(self):
        engine = SimulationEngine()
        for t in range(10):
            engine.schedule(float(t), lambda: None)
        assert engine.run_until(20.0, max_events=11) == 10

    def test_fifo_among_simultaneous_interleaved_times(self):
        # Schedule order at equal times must be preserved even when the
        # equal-time events are pushed between events at other times.
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("t2-first"))
        engine.schedule(1.0, lambda: fired.append("t1-first"))
        engine.schedule(2.0, lambda: fired.append("t2-second"))
        engine.schedule(1.0, lambda: fired.append("t1-second"))
        engine.schedule(2.0, lambda: fired.append("t2-third"))
        engine.run()
        assert fired == ["t1-first", "t1-second", "t2-first",
                         "t2-second", "t2-third"]

    def test_fifo_preserved_for_events_scheduled_during_run(self):
        engine = SimulationEngine()
        fired = []

        def spawn():
            engine.schedule(5.0, lambda: fired.append("child-a"))
            engine.schedule(5.0, lambda: fired.append("child-b"))

        engine.schedule(5.0, lambda: fired.append("parent-after"))
        engine.schedule(0.0, spawn)
        engine.run()
        assert fired == ["parent-after", "child-a", "child-b"]
