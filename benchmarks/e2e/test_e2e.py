"""Tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q``.  The workload tests
start real worker processes: one warm-up and one timed step each.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_frames():
    clock = FakeClock()
    trace = tracer.Tracer(clock)
    seen = []

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf_a()
        clock.now += 3.0

    def outer():
        clock.now += 4.0
        middle_b()
        outer_again()

    def outer_again():
        clock.now += 0.5

    leaf_a = trace.wrap("a", leaf,
                        lambda t, args, result: seen.append(t.caller_stage()))
    middle_b = trace.wrap("b", middle)
    outer_again = trace.wrap("a", outer_again)
    trace.wrap("a", outer)()

    totals = trace.take()
    assert totals["a.self_s"] == pytest.approx(4.0 + 1.0 + 0.5)
    assert totals["b.self_s"] == pytest.approx(5.0)
    # ``outer_again`` runs directly inside ``outer``: same stage, one call.
    assert totals["a.calls"] == 2
    assert totals["b.calls"] == 1
    assert seen == ["b"]
    assert trace.take() == {}


def test_self_time_survives_exceptions():
    clock = FakeClock()
    trace = tracer.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    def caller():
        clock.now += 1.0
        with pytest.raises(ValueError):
            traced_boom()

    traced_boom = trace.wrap("inner", boom)
    trace.wrap("outer", caller)()
    totals = trace.take()
    assert totals["inner.self_s"] == pytest.approx(2.0)
    assert totals["outer.self_s"] == pytest.approx(1.0)


def test_summarize_adds_up_to_the_step():
    steps = [{"isl.assign.self_s": 1.0, "isl.assign.calls": 1,
              "isl.assign.links": 30, "isl.assign.budget_evals": 40,
              "routing.dijkstra.self_s": 0.5},
             {"isl.assign.self_s": 2.0, "isl.assign.calls": 1,
              "isl.assign.links": 10, "isl.assign.budget_evals": 40}]
    out = tracer.summarize(steps, [2.0, 3.0])
    assert out["isl.assign.self_s"] == pytest.approx(1.5)
    assert out["isl.assign.links"] == pytest.approx(20)
    assert out["isl.assign.link_yield"] == pytest.approx(0.5)
    assert out["experiment.other.self_s"] == pytest.approx(0.75)
    assert out["trace.coverage"] == pytest.approx(3.5 / 5.0)
    assert set(out) | {"trace.overhead"} == set(tracer.layer_metric_units())


def test_tail_rule_keeps_ten_samples_beyond():
    assert run.tail_quantile(10) is None
    assert run.tail_quantile(11) == pytest.approx(1 / 11)
    assert run.tail_quantile(40) == pytest.approx(0.75)
    for samples in (11, 24, 40, 100):
        q = run.tail_quantile(samples)
        assert samples * (1.0 - q) == pytest.approx(10.0)
    assert run.quantile([4.0, 1.0, 3.0, 2.0, 5.0], 0.75) == 4.0
    assert run.quantile([1.0, 2.0], 0.5) == 1.5


def _noisy(center, spread, pairs=10):
    return [center * (1.0 + spread * ((k * 7) % 10 - 4.5) / 4.5)
            for k in range(pairs)]


@pytest.mark.parametrize("change, better, expected", [
    (_noisy(80.0, 0.01), "lower", "win"),
    (_noisy(125.0, 0.01), "higher", "win"),
    (_noisy(130.0, 0.01), "lower", "regression"),
    (_noisy(70.0, 0.01), "higher", "regression"),
    (_noisy(103.0, 0.01), "lower", "same"),
    (_noisy(100.0, 0.5), "lower", "unresolved"),
    (_noisy(100.0, 0.01)[:9], "lower", "too_few"),
])
def test_compare_verdicts(change, better, expected):
    parent = _noisy(100.0, 0.01)[:len(change)]
    assert compare.verdict(parent, change, better, 0.1) == expected


def test_compare_win_despite_noise_when_every_run_is_better():
    parent = _noisy(100.0, 0.3)
    change = [value / 3.0 for value in parent]
    assert compare.verdict(parent, change, "lower", 0.1) == "win"


def _record(workload, seed, started, value, failed=0):
    return {"workload": workload, "seed": seed, "trace": False,
            "started_unix": started, "attempted": 10, "failed": failed,
            "metrics": {"setup_s": {"value": value, "unit": "s"}}}


def test_compare_rows_reject_failures_and_check_order(tmp_path, monkeypatch):
    benchmark = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "setup_s", "unit": "s",
                                 "better": "lower", "bound": 0.1}]}
    monkeypatch.setattr(compare, "BENCHMARK", tmp_path / "BENCHMARK.json")
    compare.BENCHMARK.write_text(json.dumps(benchmark))
    parent = [_record("w", seed, 2.0 * seed + seed % 2, 1.0)
              for seed in range(10)]
    change = [_record("w", seed, 2.0 * seed + 1 - seed % 2, 1.0,
                      failed=int(seed == 3)) for seed in range(10)]
    for side, records in (("parent", parent), ("change", change)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "runs.json").write_text(
            json.dumps({"runs": records}))
    (row,) = compare.compare(compare.load_runs(tmp_path / "parent"),
                             compare.load_runs(tmp_path / "change"),
                             benchmark)
    assert row["pairs"] == 10 and row["alternated"]
    assert row["metrics"]["setup_s"]["verdict"] == "same"
    assert row["failed"] == (0.0, pytest.approx(0.01))
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert len(spec["command"]) <= 32
    for arg in spec["command"][1:]:
        assert not arg.startswith("/") and (ROOT / arg).is_file()
        assert any(arg.startswith(path + "/") for path in spec["paths"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]

    names = []
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            names.append(metric["name"])
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["better"] in ("higher", "lower")
            keys = {"name", "unit", "better"}
            if section == "end_to_end":
                keys.add("bound")
                assert 0.0 < metric["bound"] <= 0.25
            assert set(metric) == keys
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracer.layer_metric_units())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_step_of_each_workload_passes_its_checks(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--steps", "1"],
        cwd=ROOT, env=run.worker_env(), capture_output=True, text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    messages = [json.loads(line[len(run.MESSAGE_PREFIX):])
                for line in done.stdout.splitlines()
                if line.startswith(run.MESSAGE_PREFIX)]
    assert [m["event"] for m in messages] == ["ready", "result"]
    result = messages[1]
    assert result["attempted"] == 2 and len(result["step_ref_s"]) == 1
    run.add_digest_failures(result, run.DEFAULT_SEED, workload)
    assert result["failures"] == [] and result["failed_steps"] == []
    assert result["digests"] == run.expected_digests(workload)[:2]


def test_run_prints_every_metric_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fleet_sweep",
         "--seed", "5", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == run.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_fleet_sweep_never_touches_the_network_stack():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fleet_sweep",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    metrics = _last_json(done.stdout)["metrics"]
    assert set(metrics) == set(tracer.layer_metric_units())
    for stage in ("isl.candidates", "isl.assign", "phy.link_budget",
                  "network.snapshot_assemble", "network.probe"):
        assert metrics[f"{stage}.calls"]["value"] == 0
    assert metrics["routing.relay_build.calls"]["value"] > 0
    assert metrics["trace.coverage"]["value"] >= 0.85


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fleet_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
