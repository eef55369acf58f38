"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def assert_rejected(capsys, argv, command, message):
    """``argv`` exits 1 with a one-line options error and no output."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad {command} options: {message}" in captured.err
    assert "Traceback" not in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestFigureCommands:
    def test_figure2a(self, capsys):
        assert main(["figure2a"]) == 0
        out = capsys.readouterr().out
        assert "66 satellites" in out
        assert "connected: True" in out

    def test_figure2b_quick(self, capsys):
        assert main(["figure2b", "--counts", "10", "40",
                     "--trials", "2", "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "reachability" in out
        assert "40" in out

    def test_figure2b_engine_flag_output_identical(self, capsys):
        pytest.importorskip("scipy")
        args = ["figure2b", "--counts", "10", "25", "--trials", "2",
                "--epochs", "3"]
        assert main(args + ["--engine", "batched"]) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--engine", "scalar"]) == 0
        assert capsys.readouterr().out == batched
        assert main(args) == 0  # scalar is the default
        assert capsys.readouterr().out == batched

    def test_faults_sweep_engine_flag_output_identical(self, capsys):
        pytest.importorskip("scipy")
        args = ["faults", "sweep", "--mtbf-hours", "2", "--mttr", "600",
                "--horizon", "1800", "--epochs", "3", "--seed", "7"]
        assert main(args + ["--engine", "batched"]) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--engine", "scalar"]) == 0
        assert capsys.readouterr().out == batched

    def test_figure2c_quick(self, capsys):
        assert main(["figure2c", "--counts", "4", "25",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "union" in out

    @pytest.mark.parametrize("command", ["figure2b", "figure2c"])
    @pytest.mark.parametrize("options, message", [
        (["--counts", "0"], "need at least one satellite, got 0"),
        (["--counts", "25", "25"], "satellite counts repeat: [25]"),
        (["--trials", "0"], "need at least one trial, got 0"),
    ])
    def test_figure_sweeps_reject_bad_options(self, capsys, command,
                                              options, message):
        assert main([command] + options) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad {command} options: {message}" in captured.err


class TestCatalog:
    def test_emits_parseable_tles(self, capsys):
        assert main(["catalog", "--kind", "star", "--satellites", "4",
                     "--planes", "2", "--prefix", "TEST"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12  # 4 satellites x 3 lines
        from repro.orbits.tle import parse_tle
        record = parse_tle(lines[:3])
        assert record.name.startswith("TEST-")

    def test_iridium_catalog_size(self, capsys):
        assert main(["catalog"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 66 * 3

    def test_rejects_bad_options(self, capsys):
        assert_rejected(capsys, ["catalog", "--kind", "star", "--satellites",
                                 "10", "--planes", "3"],
                        "catalog", "plane count 3 must evenly divide 10")


class TestLatency:
    def test_served_location(self, capsys):
        assert main(["latency", "--lat", "-1.29", "--lon", "36.82"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out

    def test_rejects_bad_options(self, capsys):
        assert_rejected(capsys, ["latency", "--lat", "100", "--lon", "0"],
                        "latency", "latitude out of range: 100.0")


class TestDemand:
    def test_sweep_quick(self, capsys):
        assert main(["demand", "sweep", "--satellites", "24",
                     "--hours", "20", "--users", "20000",
                     "--bands", "8", "--equator-columns", "16"]) == 0
        out = capsys.readouterr().out
        assert "served" in out and "revenue_usd" in out
        rows = [line for line in out.strip().splitlines()
                if line.split() and line.split()[0] == "24"]
        assert len(rows) == 1
        assert "True" in rows[0]  # converged

    def test_sweep_rejects_bad_hour(self, capsys):
        assert main(["demand", "sweep", "--satellites", "24",
                     "--hours", "25"]) != 0

    @pytest.mark.parametrize("flag, argument", [
        ("--users", "total_users"),
        ("--bands", "bands"),
        ("--equator-columns", "equator_columns"),
        ("--duration", "duration_s"),
    ])
    def test_sweep_rejects_non_positive_sizes(self, capsys, flag, argument):
        assert main(["demand", "sweep", "--satellites", "24",
                     "--hours", "20", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert "bad demand sweep options:" in err
        assert argument in err


class TestObservability:
    def test_trace_covers_engine_routing_and_experiment(self, capsys,
                                                        tmp_path):
        from repro import obs
        from repro.obs.export import read_jsonl

        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "metrics.csv"
        assert main(["figure2b", "--counts", "10", "25", "--trials", "2",
                     "--epochs", "4", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        # The recorder must not leak past the command.
        assert obs.active() is obs.NULL_RECORDER
        records = read_jsonl(trace)
        assert records[0]["type"] == "manifest"
        assert records[0]["command"] == "figure2b"
        assert records[0]["seed"] == 42
        span_layers = {
            record["name"].split(".")[0]
            for record in records if record["type"] == "span"
        }
        assert {"engine", "routing", "experiment"} <= span_layers
        counters = {
            (record["name"], record["label"])
            for record in records if record["type"] == "counter"
        }
        assert ("engine.events", "figure2b.epoch") in counters
        assert metrics.read_text().startswith("type,name,label")

    def test_same_seed_runs_have_identical_metric_values(self, capsys,
                                                         tmp_path):
        from repro.obs.export import read_jsonl

        def capture(name):
            path = tmp_path / name
            assert main(["figure2b", "--counts", "16", "--trials", "2",
                         "--epochs", "3", "--trace", str(path)]) == 0
            capsys.readouterr()
            # The output path itself lands in the manifest config, so
            # drop config fields along with wall-clock timings.  Phase
            # rows export slowest-first, so their order is wall-clock
            # dependent too — compare records order-insensitively.
            nondeterministic = ("duration_s", "total_s", "max_s",
                                "config", "config_hash")
            return sorted(
                (
                    {k: v for k, v in record.items()
                     if k not in nondeterministic}
                    for record in read_jsonl(path)
                ),
                key=lambda record: sorted(
                    (k, str(v)) for k, v in record.items()
                ),
            )

        assert capture("a.jsonl") == capture("b.jsonl")

    def test_obs_summarize(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(["figure2a", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "top spans" in out
        assert "experiment.figure2a" in out
        assert "config_hash" in out

    def test_obs_summarize_missing_file(self, capsys, tmp_path):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_obs_summarize_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["obs", "summarize", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_unwritable_trace_path_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "no-such-dir" / "out.jsonl"
        assert main(["figure2a", "--trace", str(bad)]) == 1
        assert "cannot write telemetry" in capsys.readouterr().err

    def test_no_flags_means_null_recorder(self, capsys):
        from repro import obs

        assert main(["figure2a"]) == 0
        assert obs.active() is obs.NULL_RECORDER

    def test_requires_coordinates(self):
        with pytest.raises(SystemExit):
            main(["latency", "--lat", "10.0"])


class TestEventExportFlags:
    QUICK_SWEEP = ["faults", "sweep", "--mtbf-hours", "2",
                   "--horizon", "1200", "--epochs", "2", "--seed", "7"]

    def test_events_out_writes_timeline(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        events = tmp_path / "events.jsonl"
        assert main(self.QUICK_SWEEP + ["--events-out", str(events)]) == 0
        assert "event records)" in capsys.readouterr().out
        records = read_jsonl(events)
        assert records[0]["type"] == "manifest"
        assert records[0]["totals"]["events"] > 0
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert "fault.inject" in kinds
        assert {r["type"] for r in records} >= {"health_epochs",
                                                "health_links"}

    def test_events_out_byte_identical_across_runs_and_jobs(self, capsys,
                                                            tmp_path):
        def capture(name, *extra):
            path = tmp_path / name
            assert main(self.QUICK_SWEEP + list(extra)
                        + ["--events-out", str(path)]) == 0
            capsys.readouterr()
            # The manifest embeds the output path and job count; every
            # other record must match byte for byte.
            lines = path.read_text().splitlines()
            assert '"type": "manifest"' in lines[0]
            return lines[1:]

        serial = capture("a.jsonl")
        assert capture("b.jsonl") == serial
        assert capture("p.jsonl", "--jobs", "2") == serial

    def test_prom_out_writes_exposition(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["figure2b", "--counts", "10", "--trials", "2",
                     "--epochs", "3", "--prom-out", str(prom)]) == 0
        assert "exposition lines)" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE" in text
        assert "repro_" in text

    def test_flight_recorder_dump_on_crash(self, capsys, tmp_path,
                                           monkeypatch):
        import repro.cli as cli_module

        def exploding(_args):
            from repro import obs
            obs.event("fault.inject", 1.0, subject="f-0")
            obs.event("link.down", 2.0, subject="S1--S2")
            raise RuntimeError("mid-run crash")

        # build_parser resolves command handlers by name at call time, so
        # patching the module global reroutes the figure2a subcommand.
        monkeypatch.setitem(
            cli_module.__dict__, "_cmd_figure2a", exploding)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            cli_module.main(["figure2a", "--flight-recorder", "8",
                             "--events-out", str(tmp_path / "e.jsonl")])
        err = capsys.readouterr().err
        assert "flight recorder: last 2 of 2 events" in err
        assert "fault.inject" in err
        assert "S1--S2" in err

    def test_bad_flight_recorder_size_is_clean_error(self, capsys):
        assert main(["figure2a", "--flight-recorder", "0"]) == 2
        assert "bad observability options" in capsys.readouterr().err


class TestObsReport:
    def test_report_from_events_file(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(["faults", "sweep", "--mtbf-hours", "2",
                     "--horizon", "1200", "--epochs", "2", "--seed", "7",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert main(["obs", "report", str(events),
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Event timeline" in html
        assert "fault.inject" in html

    def test_report_missing_file(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_report_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", "report", str(bad), "--out",
                     str(tmp_path / "r.html")]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_summarize_events_file(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(["faults", "sweep", "--mtbf-hours", "2",
                     "--horizon", "1200", "--epochs", "2", "--seed", "7",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(events)]) == 0
        out = capsys.readouterr().out
        assert "events (" in out
        assert "lowest-availability links" in out


class TestAvailabilityCommand:
    def test_runs_and_reports_both_sweeps(self, capsys):
        assert main(["availability", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "availability vs fleet size" in out
        assert "walker-star" in out
        assert "resilience to failures" in out

    def test_rejects_bad_options(self, capsys):
        assert_rejected(capsys, ["availability", "--epochs", "0"],
                        "availability", "need at least one epoch, got 0")


class TestFaultsCommands:
    QUICK_SWEEP = ["faults", "sweep", "--mtbf-hours", "2", "--mttr", "600",
                   "--horizon", "1200", "--epochs", "2", "--seed", "7"]

    def test_sweep_prints_recovery_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "mtbf_h" in out
        assert "availability" in out

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_sweep_requires_faults_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])

    @pytest.mark.parametrize("options, message", [
        (["--mtbf-hours", "-1"], "MTBF must be positive, got -1.0"),
        (["--epochs", "0"], "need at least one epoch, got 0"),
        (["--horizon", "0"], "horizon must be positive, got 0.0"),
    ])
    def test_sweep_rejects_bad_options(self, capsys, options, message):
        # Checked before any sweep point runs, so no worker wraps the
        # error in a SweepPointError.
        assert_rejected(capsys, ["faults", "sweep"] + options,
                        "faults sweep", message)

    def test_inject_rejects_bad_options(self, capsys, tmp_path):
        out_file = tmp_path / "schedule.json"
        assert_rejected(capsys, ["faults", "inject", "--epochs", "0",
                                 "--schedule-out", str(out_file)],
                        "faults inject", "need at least one epoch, got 0")
        assert not out_file.exists()

    def test_replay_rejects_bad_options(self, capsys, tmp_path):
        from repro.faults.model import FaultSchedule

        schedule = tmp_path / "schedule.json"
        FaultSchedule(horizon_s=600.0).save(schedule)
        assert_rejected(capsys, ["faults", "replay", str(schedule),
                                 "--epochs", "0"],
                        "faults replay", "need at least one epoch, got 0")

    def test_inject_schedule_out_then_replay(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.json"
        assert main(["faults", "inject", "--mtbf-hours", "1",
                     "--mttr", "300", "--horizon", "1200",
                     "--epochs", "2", "--seed", "7",
                     "--schedule-out", str(out_file)]) == 0
        inject_out = capsys.readouterr().out
        assert "faults:" in inject_out
        assert out_file.exists()
        assert main(["faults", "replay", str(out_file),
                     "--epochs", "2"]) == 0
        replay_out = capsys.readouterr().out
        assert "replayed" in replay_out
        # Same schedule, same network: identical recovery summary.
        summary = inject_out[inject_out.index("faults:"):]
        assert replay_out[replay_out.index("faults:"):] == summary

    def test_replay_missing_file(self, capsys, tmp_path):
        assert main(["faults", "replay",
                     str(tmp_path / "nope.json")]) == 1
        assert "no such schedule file" in capsys.readouterr().err

    def test_replay_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["faults", "replay", str(bad)]) == 1
        assert "malformed schedule" in capsys.readouterr().err

    def test_replay_list_document(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert main(["faults", "replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed schedule file: ")
        assert "JSON object" in err

    @pytest.mark.parametrize("event, message", [
        ('{"fault_id": "x", "kind": "isl_link", "targets": [5], '
         '"start_s": 0}', "event 0 field 'targets' item 0 must be a string"),
        ('{"fault_id": "x", "kind": "satellite", "targets": ["s"], '
         '"start_s": NaN}', "event 0 field 'start_s' must be finite"),
    ])
    def test_replay_malformed_event(self, capsys, tmp_path, event, message):
        bad = tmp_path / "event.json"
        bad.write_text('{"events": [' + event + ']}')
        assert main(["faults", "replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed schedule file: ")
        assert message in err

    def test_sweep_trace_records_fault_lifecycle(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "faults.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "faults.apply" in span_names
        assert "experiment.resilience_dynamic.sweep" in span_names


class TestReliabilityCommand:
    QUICK_SWEEP = ["reliability", "sweep", "--loss", "0.0", "0.2",
                   "--mtbf-hours", "0.0", "0.3", "--horizon", "600",
                   "--probes", "2", "--seed", "7"]

    def test_sweep_prints_reliability_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "auth_ok" in out
        assert "inflation" in out
        assert "breaker_opens" in out

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_zero_loss_rows_show_no_inflation(self, capsys):
        assert main(["reliability", "sweep", "--loss", "0.0",
                     "--mtbf-hours", "0.0", "--horizon", "300",
                     "--probes", "1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[-1].split()
        assert row[2] == row[3]  # auth_ok == baseline_ok
        assert float(row[4]) == 1.0  # one attempt per association
        assert float(row[5]) == 1.0  # no latency inflation

    def test_requires_reliability_subcommand(self):
        with pytest.raises(SystemExit):
            main(["reliability"])

    @pytest.mark.parametrize("options, message", [
        (["--loss", "1.5"], "loss rate must be in [0, 1], got 1.5"),
        (["--probes", "0"], "need at least one probe, got 0"),
        (["--horizon", "0"], "horizon must be positive, got 0.0"),
    ])
    def test_sweep_rejects_bad_options(self, capsys, options, message):
        assert_rejected(capsys, ["reliability", "sweep"] + options,
                        "reliability sweep", message)

    def test_sweep_trace_records_exchange_metrics(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "reliability.jsonl"
        assert main(["reliability", "sweep", "--loss", "0.2",
                     "--mtbf-hours", "0.0", "--horizon", "300",
                     "--probes", "2", "--seed", "7",
                     "--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.reliability.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "reliability.exchange.attempts" in counter_names
        assert "reliability.channel.messages" in counter_names


class TestDtnCommand:
    QUICK_SWEEP = ["dtn", "sweep", "--radius", "0", "1500",
                   "--buffer-kb", "64", "--horizon", "3600",
                   "--step", "600", "--loss", "0", "--sensors", "2",
                   "--satellites", "24", "--interval", "600",
                   "--bundle-bytes", "1024", "--seed", "17"]

    def test_sweep_prints_delivery_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "replans" in out and "drops" in out
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_sweep_rejects_bad_options(self, capsys):
        assert main(["dtn", "sweep", "--radius", "-5"]) != 0
        assert "bad dtn sweep options" in capsys.readouterr().err

    def test_requires_dtn_subcommand(self):
        with pytest.raises(SystemExit):
            main(["dtn"])

    def test_sweep_trace_records_dtn_metrics(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "dtn.jsonl"
        events = tmp_path / "events.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace),
                                        "--events-out", str(events)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.disrupted.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "dtn.bundles.created" in counter_names
        assert "dtn.custody.transfers" in counter_names
        event_kinds = {
            record["kind"] for record in read_jsonl(events)
            if record["type"] == "event"
        }
        assert "bundle.create" in event_kinds
        assert "bundle.deliver" in event_kinds
        assert "custody.accept" in event_kinds

    def test_sweep_events_identical_across_jobs(self, capsys, tmp_path):
        def capture(name, *extra):
            path = tmp_path / name
            assert main(self.QUICK_SWEEP + list(extra)
                        + ["--events-out", str(path)]) == 0
            capsys.readouterr()
            lines = path.read_text().splitlines()
            assert '"type": "manifest"' in lines[0]
            return lines[1:]

        serial = capture("a.jsonl")
        assert capture("b.jsonl") == serial
        assert capture("p.jsonl", "--jobs", "2") == serial


class TestScaleCommand:
    QUICK_SWEEP = ["scale", "sweep", "--satellites", "48",
                   "--epochs", "3"]

    def test_sweep_prints_scale_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().splitlines()
        assert header.split() == [
            "sats", "planes", "epochs", "edges", "degree", "churn_mean",
            "churn_max", "full", "delta", "appeared", "gone", "latency_ms",
            "reach",
        ]
        assert len(rows) == 1
        assert len(rows[0].split()) == len(header.split())

    def test_sweep_byte_identical_across_jobs(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_spatial_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(self.QUICK_SWEEP + ["--spatial", "on"])

    def test_sweep_rejects_bad_options(self, capsys):
        assert main(["scale", "sweep", "--satellites", "1"]) != 0
        assert "bad scale sweep options" in capsys.readouterr().err

    def test_requires_scale_subcommand(self):
        with pytest.raises(SystemExit):
            main(["scale"])

    def test_sweep_trace_records_epochs(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "scale.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.scale.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "experiment.scale.epochs" in counter_names


class TestReportCommand:
    def test_writes_markdown_report(self, tmp_path, capsys):
        output = tmp_path / "RESULTS.md"
        assert main(["report", "--output", str(output), "--trials", "2"]) == 0
        content = output.read_text()
        assert "# RESULTS" in content
        assert "Figure 2(b)" in content
        assert "Key ablations" in content
        assert "resilience" in content

    def test_failed_write_keeps_previous_report(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.obs.export as export

        output = tmp_path / "RESULTS.md"
        output.write_text("previous report\n")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(export.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            main(["report", "--output", str(output), "--trials", "2"])
        assert output.read_text() == "previous report\n"
        assert list(tmp_path.iterdir()) == [output]
