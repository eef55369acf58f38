"""Tests for the fault-schedule model."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultScheduleError,
    combine,
    link_target,
    parse_link_target,
)


def _event(fault_id="f1", start_s=10.0, duration_s=5.0, **kwargs):
    defaults = dict(kind=FaultKind.SATELLITE, targets=("sat-a-0",))
    defaults.update(kwargs)
    return FaultEvent(fault_id=fault_id, start_s=start_s,
                      duration_s=duration_s, **defaults)


class TestFaultEvent:
    def test_end_time(self):
        assert _event(start_s=10.0, duration_s=5.0).end_s == 15.0

    def test_permanent_has_no_end(self):
        event = _event(duration_s=None)
        assert event.permanent
        assert event.end_s is None

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            _event(targets=())

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            _event(start_s=-1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            _event(duration_s=-0.5)

    def test_rejects_malformed_link_target(self):
        with pytest.raises(ValueError):
            _event(kind=FaultKind.ISL_LINK, targets=("not-a-link",))

    def test_dict_round_trip(self):
        event = _event(cause="mtbf")
        assert FaultEvent.from_dict(event.as_dict()) == event

    def test_dict_round_trip_permanent(self):
        event = _event(duration_s=None)
        assert FaultEvent.from_dict(event.as_dict()) == event


class TestLinkTargets:
    def test_canonical_order(self):
        assert link_target("sat-b", "sat-a") == "sat-a|sat-b"

    def test_round_trip(self):
        assert parse_link_target(link_target("x", "y")) == ("x", "y")

    def test_parse_sorts_endpoints(self):
        assert parse_link_target("b|a") == ("a", "b")

    def test_rejects_pipe_in_id(self):
        with pytest.raises(ValueError):
            link_target("a|b", "c")


class TestFaultSchedule:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            FaultSchedule(events=[_event("dup"), _event("dup")])

    def test_transitions_ordered_and_paired(self):
        schedule = FaultSchedule(events=[
            _event("late", start_s=50.0, duration_s=10.0),
            _event("early", start_s=10.0, duration_s=100.0),
        ])
        edges = [(tr.time_s, tr.phase, tr.event.fault_id)
                 for tr in schedule.transitions()]
        assert edges == [
            (10.0, "fail", "early"),
            (50.0, "fail", "late"),
            (60.0, "repair", "late"),
            (110.0, "repair", "early"),
        ]

    def test_zero_mttr_fail_precedes_repair(self):
        schedule = FaultSchedule(events=[_event("z", start_s=5.0,
                                                duration_s=0.0)])
        phases = [tr.phase for tr in schedule.transitions()]
        assert phases == ["fail", "repair"]

    def test_permanent_fault_never_repairs(self):
        schedule = FaultSchedule(events=[_event("p", duration_s=None)])
        assert [tr.phase for tr in schedule.transitions()] == ["fail"]

    def test_simultaneous_transitions_sorted_by_id(self):
        schedule = FaultSchedule(events=[
            _event("b", start_s=5.0, duration_s=None),
            _event("a", start_s=5.0, duration_s=None),
        ])
        ids = [tr.event.fault_id for tr in schedule.transitions()]
        assert ids == ["a", "b"]

    def test_json_round_trip(self):
        schedule = FaultSchedule(events=[
            _event("f1"),
            _event("f2", duration_s=None, kind=FaultKind.PROVIDER,
                   targets=("acme",)),
        ], horizon_s=3600.0)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored.horizon_s == 3600.0
        assert restored.events == schedule.events

    def test_json_is_deterministic(self):
        schedule = FaultSchedule(events=[_event("f1")], horizon_s=60.0)
        assert schedule.to_json() == schedule.to_json()

    def test_save_load(self, tmp_path):
        schedule = FaultSchedule(events=[_event("f1")], horizon_s=60.0)
        path = tmp_path / "sched.json"
        schedule.save(str(path))
        assert FaultSchedule.load(str(path)).events == schedule.events

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sched.json"
        FaultSchedule(events=[_event("f1")], horizon_s=60.0).save(str(path))
        before = path.read_text()

        def exploding_to_json(self, indent=2):
            raise RuntimeError("serializer died mid-write")

        monkeypatch.setattr(FaultSchedule, "to_json", exploding_to_json)
        with pytest.raises(RuntimeError):
            FaultSchedule(events=[_event("f2")], horizon_s=90.0).save(str(path))
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_combine_merges(self):
        merged = combine(
            FaultSchedule(events=[_event("a")], horizon_s=100.0),
            FaultSchedule(events=[_event("b")], horizon_s=200.0),
        )
        assert len(merged) == 2
        assert merged.horizon_s == 200.0

    def test_combine_rejects_id_clash(self):
        with pytest.raises(ValueError):
            combine(FaultSchedule(events=[_event("a")]),
                    FaultSchedule(events=[_event("a")]))


def _event_row(**changes):
    row = _event("e0").as_dict()
    row.update(changes)
    return row


class TestScheduleErrors:
    """Every malformed document raises one typed error naming the field
    (and the event index inside ``events``)."""

    @pytest.mark.parametrize("text, message", [
        ("[]", "JSON object, got list"),
        ('"schedule"', "JSON object, got str"),
        ("{}", "lacks field 'events'"),
        ('{"horizon_s": 60.0}', "lacks field 'events'"),
        ('{"events": {}}', "field 'events' must be a list, got dict"),
        ('{"events": [3]}', "event 0 must be a JSON object, got int"),
        ("{not json", "not JSON"),
    ])
    def test_document_shape(self, text, message):
        with pytest.raises(FaultScheduleError, match=message):
            FaultSchedule.from_json(text)

    @pytest.mark.parametrize("field", ["fault_id", "kind", "targets",
                                       "start_s"])
    def test_event_missing_field(self, field):
        row = _event_row()
        del row[field]
        text = json.dumps({"events": [_event_row(fault_id="ok"), row]})
        with pytest.raises(FaultScheduleError,
                           match=f"event 1 lacks field '{field}'"):
            FaultSchedule.from_json(text)

    def test_unknown_kind(self):
        text = json.dumps({"events": [_event_row(kind="meteor")]})
        with pytest.raises(FaultScheduleError,
                           match="event 0 field 'kind': unknown kind 'meteor'"):
            FaultSchedule.from_json(text)

    def test_bad_values_name_the_event(self):
        for row, message in [
            (_event_row(targets="sat-a-0"), "field 'targets' must be a list"),
            (_event_row(start_s="soon"),
             "event 0 field 'start_s' must be a number, got str"),
            (_event_row(start_s=True),
             "event 0 field 'start_s' must be a number, got bool"),
            (_event_row(start_s=-5.0), "event 0: fault 'e0' starts at"),
            (_event_row(fault_id=7),
             "event 0 field 'fault_id' must be a string, got int"),
            (_event_row(kind="isl_link", targets=[5]),
             "event 0 field 'targets' item 0 must be a string, got int"),
            (_event_row(targets=["sat-a-0", None]),
             "event 0 field 'targets' item 1 must be a string, got NoneType"),
        ]:
            with pytest.raises(FaultScheduleError, match=message):
                FaultSchedule.from_json(json.dumps({"events": [row]}))

    @pytest.mark.parametrize("text, message", [
        ('{"events": [{"fault_id": "x", "kind": "satellite", '
         '"targets": ["s"], "start_s": NaN}]}',
         "event 0 field 'start_s' must be finite, got nan"),
        ('{"events": [{"fault_id": "x", "kind": "satellite", '
         '"targets": ["s"], "start_s": 0, "duration_s": Infinity}]}',
         "event 0 field 'duration_s' must be finite, got inf"),
        ('{"events": [{"fault_id": "x", "kind": "satellite", '
         '"targets": ["s"], "start_s": 1' + "0" * 400 + '}]}',
         "event 0 field 'start_s' must be finite, got inf"),
        ('{"events": [], "horizon_s": NaN}',
         "field 'horizon_s' must be finite, got nan"),
        ('{"events": [], "horizon_s": -Infinity}',
         "field 'horizon_s' must be finite, got -inf"),
        ('{"events": [], "horizon_s": "1h"}',
         "field 'horizon_s' must be a number, got str"),
        ('{"events": [], "horizon_s": 1' + "0" * 5000 + '}', "not JSON"),
    ])
    def test_non_finite_times(self, text, message):
        with pytest.raises(FaultScheduleError, match=message):
            FaultSchedule.from_json(text)

    def test_horizon_stays_optional(self):
        schedule = FaultSchedule.from_json(json.dumps({"events": []}))
        assert schedule.horizon_s == 0.0 and len(schedule) == 0

    def test_is_a_value_error(self):
        assert issubclass(FaultScheduleError, ValueError)


_IDS = st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=8)
_TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


@st.composite
def _schedules(draw):
    ids = draw(st.lists(_IDS, max_size=6, unique=True))
    events = []
    for fault_id in ids:
        kind = draw(st.sampled_from(list(FaultKind)))
        if kind is FaultKind.ISL_LINK:
            targets = draw(st.lists(st.tuples(_IDS, _IDS).map(
                lambda pair: link_target(*pair)), min_size=1, max_size=3))
        else:
            targets = draw(st.lists(_IDS, min_size=1, max_size=3))
        events.append(FaultEvent(
            fault_id=fault_id, kind=kind, targets=tuple(targets),
            start_s=draw(_TIMES),
            duration_s=draw(st.one_of(st.none(), _TIMES)),
            cause=draw(st.sampled_from(["", "mtbf", "plane-loss"])),
        ))
    return FaultSchedule(events=events, horizon_s=draw(_TIMES))


class TestScheduleRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(schedule=_schedules())
    def test_emit_then_parse_is_identity(self, schedule):
        text = schedule.to_json()
        restored = FaultSchedule.from_json(text)
        assert restored == schedule
        assert restored.to_json() == text
