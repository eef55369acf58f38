"""End-to-end benchmark: step times, set-up time, memory and a stage trace.

Runs each workload (see ``workloads.py``) in fresh single-threaded
processes, one at a time.  An untraced run starts ``SETUP_RUNS`` cold
processes; ``setup_s`` is the median of their launch-to-end-of-warm-up
times, and the last of them goes on to the timed steps.  A traced run
(``--trace``) starts one untraced and one traced process and reports the
per-layer metrics instead.  Times are scaled to the reference machine
speed with ``calibrate.py``; the raw readings are kept as diagnostics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Usage::

    python3 benchmarks/e2e/run.py --workload fleet_sweep --seed 3
    python3 benchmarks/e2e/run.py --trace --out bench-out/traced.json
    python3 benchmarks/e2e/run.py --write-expected
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected"
MESSAGE_PREFIX = "@e2e "

WORKLOAD_NAMES = ("mega_walk", "fleet_sweep", "diurnal_demand",
                  "fault_recovery")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 12.0
SETUP_RUNS = 3
#: A run must end within this many seconds of starting.
DEADLINE_S = 175.0
#: Timed steps whose digests are committed for the default seed.
EXPECTED_STEPS = {"mega_walk": 5, "fleet_sweep": 40, "diurnal_demand": 24,
                  "fault_recovery": 14}
#: Seed-state seconds per step at reference speed.  A run of ``--seconds``
#: takes a fixed number of steps from these, so both sides of a
#: comparison do the same work: with a fixed time the faster side would
#: run more steps, and mega_walk's steps slow down as its snapshot cache
#: fills.
STEP_S = {"mega_walk": 4.6, "fleet_sweep": 0.45, "diurnal_demand": 1.08,
          "fault_recovery": 0.85}
#: End-to-end metrics and their units, measured with tracing off.
END_TO_END = {"setup_s": "s", "step_p50_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker process ended without reporting."""


def tail_quantile(samples: int) -> Optional[float]:
    """The highest quantile with at least ten samples beyond it."""
    if samples <= 10:
        return None
    return 1.0 - 10.0 / samples


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def steps_for(workload: str, seconds: float) -> int:
    """Timed steps in a run of ``seconds`` (at least one)."""
    return max(1, round(seconds / STEP_S[workload]))


def run_worker(workload: str, seed: int, steps: int, trace: bool,
               role: str, deadline: float):
    """Start one worker and wait for it.

    Returns:
        ``(cold_start_ref_s, cold_start_s, result)``: launch to
        ``ready`` at reference speed and as read, and the final report
        (None for a set-up worker).

    Raises:
        WorkerError: When the worker exits without reporting, fails, or
            outlives ``deadline`` (a ``time.monotonic`` instant).
    """
    import calibrate

    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--steps", str(steps),
               "--trace", str(int(trace)), "--role", role]
    before = calibrate.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=str(ROOT), env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    cold_start_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(MESSAGE_PREFIX):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(MESSAGE_PREFIX):])
            if message["event"] == "ready":
                cold_start_s = time.perf_counter() - start
            else:
                result = message
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or cold_start_s is None or (role == "measure"
                                             and result is None):
        raise WorkerError(f"{workload} {role} worker exited with code {code}")
    # A measuring worker samples the kernel right after its warm-up; a
    # set-up worker has exited by now, so the machine is free again.
    after = result["calib_s"][0] if result else calibrate.sample()
    return calibrate.scaled(cold_start_s, before, after), cold_start_s, result


def expected_digests(workload: str) -> List[str]:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text())["digests"] if path.exists() else []


def add_digest_failures(result: dict, seed: int, workload: str) -> None:
    """At the default seed, count steps whose digest differs from the
    committed one as failed."""
    if seed != DEFAULT_SEED:
        return
    for index, (want, got) in enumerate(zip(expected_digests(workload),
                                            result["digests"])):
        if got is not None and got != want:
            result["failures"].append(f"step {index}: digest {got[:12]} "
                                      f"differs from the committed {want[:12]}")
            result["failed_steps"] = sorted(set(result["failed_steps"])
                                            | {index})


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One benchmark run of one workload; returns its record."""
    deadline = time.monotonic() + DEADLINE_S
    steps = steps_for(workload, seconds)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "steps": steps, "started_unix": time.time()}
    if trace:
        plain = run_worker(workload, seed, steps, False, "measure",
                           deadline)[2]
        result = run_worker(workload, seed, steps, True, "measure",
                            deadline)[2]
        results = [plain, result]
    else:
        starts = [run_worker(workload, seed, steps, False,
                             "measure" if k == SETUP_RUNS - 1 else "setup",
                             deadline)
                  for k in range(SETUP_RUNS)]
        record["setup_ref_s"] = [start[0] for start in starts]
        record["setup_raw_s"] = [start[1] for start in starts]
        result = starts[-1][2]
        results = [result]
    for item in results:
        add_digest_failures(item, seed, workload)
    record["attempted"] = sum(item["attempted"] for item in results)
    record["failed"] = sum(len(item["failed_steps"]) for item in results)
    record["failures"] = [text for item in results for text in item["failures"]]
    step_s = result["step_ref_s"]
    if not step_s:
        raise WorkerError(f"{workload}: no timed step completed")
    record["step_ref_s"] = step_s
    record["step_raw_s"] = result["step_s"]
    tail = tail_quantile(len(step_s))
    record["diagnostics"] = {
        "samples": len(step_s),
        "failed_frac": record["failed"] / record["attempted"],
        "step.tail_q": tail,
        "step.tail_s": None if tail is None else quantile(step_s, tail),
        "raw.step_p50_s": statistics.median(result["step_s"]),
        "raw.warmup_s": result["warmup_s"],
        "calib.kernel_s": statistics.median(result["calib_s"]),
    }
    if trace:
        from tracer import layer_metric_units, summarize

        # Self times take their step's scale, so stages add up to it.
        layers = [{key: value * ref / raw if key.endswith(".self_s")
                   else value for key, value in layer.items()}
                  for layer, ref, raw in zip(result["layers"], step_s,
                                             result["step_s"])]
        values = summarize(layers, step_s)
        values["trace.overhead"] = (statistics.median(step_s)
                                    / statistics.median(plain["step_ref_s"])
                                    - 1.0)
        units = layer_metric_units()
        record["layers"] = layers
    else:
        values = {"setup_s": statistics.median(record["setup_ref_s"]),
                  "step_p50_s": statistics.median(step_s),
                  "steps_per_s": len(step_s) / sum(step_s),
                  "peak_rss_mb": result["peak_rss_mb"]}
        record["diagnostics"]["raw.setup_s"] = statistics.median(
            record["setup_raw_s"])
        units = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'})")
    metrics = record["metrics"]
    if record["trace"]:
        from tracer import OTHER, STAGES, WORK

        step = sum(record["step_ref_s"]) / len(record["step_ref_s"])
        print(f"  {'stage':28} {'self s/step':>12} {'share':>7} "
              f"{'calls/step':>11}  work/step")
        for stage in STAGES + (OTHER,):
            self_s = metrics[f"{stage}.self_s"]["value"]
            calls = metrics.get(f"{stage}.calls", {}).get("value", 0.0)
            work = ", ".join(
                f"{name}={metrics[f'{stage}.{name}']['value']:.4g}"
                for name, _ in WORK.get(stage, ()))
            print(f"  {stage:28} {self_s:12.4f} {self_s / step:7.1%} "
                  f"{calls:11.1f}  {work}")
        print(f"  trace.coverage {metrics['trace.coverage']['value']:.1%}  "
              f"trace.overhead {metrics['trace.overhead']['value']:+.1%}")
    else:
        for name, entry in metrics.items():
            print(f"  {name:14} {entry['value']:12.4f} {entry['unit']}")
    print("  " + "  ".join(
        f"{name} {'n/a' if value is None else f'{value:.4g}'}"
        for name, value in record["diagnostics"].items()))
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def write_expected(workloads: Sequence[str]) -> int:
    """Record per-step digests of the default seed."""
    EXPECTED.mkdir(exist_ok=True)
    for workload in workloads:
        result = run_worker(workload, DEFAULT_SEED, EXPECTED_STEPS[workload],
                            False, "measure", time.monotonic() + 900.0)[2]
        if result["failures"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        path = EXPECTED / f"{workload}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED,
                                    "digests": result["digests"]},
                                   indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seed-state step time to measure per run; "
                             "sets the step count (at least one)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="also write the full run records as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the default seed's step digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # The parent times the calibration kernel too, single-threaded like
    # the workers; numpy reads these when it is first imported.
    for name in THREAD_VARS:
        os.environ[name] = "1"
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.write_expected:
        return write_expected(workloads)

    records = []
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
            print_record(record)
            records.append(record)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    failed = sum(record["failed"] for record in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{record['workload']}.{name}": entry
                   for record in records
                   for name, entry in record["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
