"""Tests for the structured event bus and the flight recorder."""

import pytest

from repro import obs
from repro.obs.events import (
    DEFAULT_CAPACITY,
    KINDS,
    Event,
    EventLog,
    format_events,
)
from repro.obs.export import summarize_records


class TestEvent:
    def test_as_row_shape(self):
        event = Event(seq=3, time_s=12.5, kind="handover", subject="sat:9",
                      attrs=(("scheme", "predictive"), ("user", "u-1")))
        row = event.as_row()
        assert row == {
            "type": "event", "seq": 3, "t": 12.5, "kind": "handover",
            "subject": "sat:9",
            "attrs": {"scheme": "predictive", "user": "u-1"},
        }

    def test_canonical_kinds_are_distinct(self):
        assert len(set(KINDS)) == len(KINDS) == 16


class TestEmission:
    def test_seq_is_monotone_from_zero(self):
        log = EventLog()
        for index in range(5):
            assert log.emit("link.up", float(index)).seq == index
        assert len(log) == 5
        assert log.emit("link.up", 5.0).seq == 5

    def test_attrs_sorted_by_key(self):
        log = EventLog()
        event = log.emit("fault.inject", 1.0, subject="f-1",
                         zeta=1, alpha=2, mid=3)
        assert event.attrs == (("alpha", 2), ("mid", 3), ("zeta", 1))

    def test_time_coerced_to_float(self):
        assert EventLog().emit("link.up", 3).time_s == 3.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)


class TestRetention:
    def test_full_stream_retained_by_default(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.emit("handover", float(index))
        assert len(log.events) == 10
        assert len(log) == 10

    def test_ring_only_when_retain_all_off(self):
        log = EventLog(capacity=4, retain_all=False)
        for index in range(10):
            log.emit("handover", float(index))
        assert [e.seq for e in log.events] == [6, 7, 8, 9]
        # Counts still cover the whole run, not just the ring.
        assert len(log) == 10

    def test_tail_is_bounded_by_capacity(self):
        log = EventLog(capacity=3)
        for index in range(8):
            log.emit("link.down", float(index))
        assert [e.seq for e in log.tail()] == [5, 6, 7]
        assert [e.seq for e in log.tail(2)] == [6, 7]
        assert log.tail(0) == []
        assert [e.seq for e in log.tail(99)] == [5, 6, 7]

    def test_default_capacity(self):
        assert EventLog().capacity == DEFAULT_CAPACITY


def _section(summary: str, heading: str, rows: int):
    """The first ``rows`` lines under a summary heading, split on spaces."""
    lines = summary.splitlines()
    start = lines.index(heading) + 1
    return [line.split() for line in lines[start:start + rows]]


class TestRollups:
    """``repro obs summarize`` rolls an exported stream up by kind and by
    subject."""

    def test_counts_by_kind_sorted(self):
        log = EventLog()
        log.emit("session.drop", 0.0)
        log.emit("handover", 1.0)
        log.emit("handover", 2.0)
        assert _section(summarize_records(log.rows()), "events (3 total):",
                        2) == [["handover", "2"], ["session.drop", "1"]]

    def test_noisiest_subjects_ranked_then_alphabetical(self):
        log = EventLog()
        for _ in range(3):
            log.emit("link.down", 0.0, subject="S1--S2")
        for subject in ("A--B", "C--D"):
            log.emit("link.down", 0.0, subject=subject)
        log.emit("handover", 0.0)  # no subject: excluded
        summary = summarize_records(log.rows(), top=2)
        assert _section(summary, "noisiest subjects:", 3) == [
            ["S1--S2", "3"], ["A--B", "1"]]


class TestReplay:
    def test_round_trip_re_sequences(self):
        source = EventLog()
        source.emit("link.up", 1.0, subject="A--B", extra=7)
        source.emit("handover", 2.0, subject="sat:3")
        target = EventLog()
        target.emit("fault.inject", 0.5, subject="f-0")
        assert target.replay_rows(source.rows()) == 2
        events = target.events
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.kind for e in events] == ["fault.inject", "link.up",
                                            "handover"]
        assert events[1].attrs == (("extra", 7),)

    def test_replay_ignores_non_event_rows(self):
        log = EventLog()
        rows = [{"type": "manifest"}, {"type": "health_epochs"},
                {"type": "event", "kind": "link.up", "t": 1.0}]
        assert log.replay_rows(rows) == 1
        assert [e.kind for e in log.events] == ["link.up"]


class TestFormat:
    def test_empty(self):
        assert format_events([]) == "(no events recorded)"

    def test_one_line_per_event(self):
        log = EventLog()
        log.emit("handover", 120.0, subject="sat:9", user="u-1")
        log.emit("link.down", 130.5)
        text = format_events(log.events)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "#0" in lines[0] and "handover" in lines[0]
        assert "sat:9" in lines[0] and "user=u-1" in lines[0]
        assert "t=     130.500" in lines[1]


class TestRecorderIntegration:
    def test_recorder_event_forwards_to_log(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            obs.event("handover", 5.0, subject="sat:1", scheme="predictive")
        assert len(recorder.events) == 1
        assert recorder.events.events[0].kind == "handover"

    def test_null_recorder_event_is_silent(self):
        obs.event("handover", 5.0, subject="sat:1")  # must not raise
        obs.sample_health(0.0, None)  # snapshot never read when disabled
        assert obs.active() is obs.NULL_RECORDER
        assert not hasattr(obs.NULL_RECORDER, "events")

    def test_flight_recorder_size_config(self):
        recorder = obs.Recorder(obs.ObsConfig(flight_recorder_size=2))
        with obs.use(recorder):
            for index in range(5):
                obs.event("link.up", float(index))
        assert [e.seq for e in recorder.events.tail()] == [3, 4]
        assert len(recorder.events.events) == 5  # full stream still kept

    def test_config_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="flight_recorder_size"):
            obs.ObsConfig(flight_recorder_size=0)
