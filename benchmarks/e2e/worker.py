"""One workload in one fresh process; started by ``run.py``.

The worker builds the workload, runs the untimed warm-up step and
reports ``ready`` at once, so the parent can time the cold start from
process launch.  A ``setup`` worker stops there.  A ``measure`` worker
then checks the warm-up output and runs ``--steps`` timed steps in a
closed loop.  A calibration sample follows every step, and output checks
run between steps, all outside the timed region.  The worker's messages
are single JSON lines on standard output behind ``MESSAGE_PREFIX``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import calibrate
from workloads import WORKLOADS, CheckFailed, digest

MESSAGE_PREFIX = "@e2e "


def emit(message: dict) -> None:
    sys.stdout.write(MESSAGE_PREFIX + json.dumps(message) + "\n")
    sys.stdout.flush()


def measure(workload, warmup_output, steps: int, tracer) -> dict:
    """Check the warm-up, run the timed loop, then the closing checks."""
    failed = set()
    failures = []
    digests = {}

    def check(index, output):
        try:
            digests[index] = digest(workload.check(index, output))
        except CheckFailed as exc:
            failed.add(index)
            failures.append(f"step {index}: {exc}")

    check(0, warmup_output)
    warmup_output = None
    # calib_s[i] is sampled right after step i, and before step i + 1.
    calib_s = [calibrate.sample()]
    step_s = []
    step_ref_s = []
    layers = []
    for index in range(1, steps + 1):
        if tracer is not None:
            tracer.take()
        start = time.perf_counter()
        try:
            output = workload.step(index)
        except Exception:  # a failed step is counted, and the loop goes on
            calib_s.append(calibrate.sample())
            failed.add(index)
            failures.append(f"step {index} raised:\n{traceback.format_exc()}")
            continue
        elapsed = time.perf_counter() - start
        calib_s.append(calibrate.sample())
        step_s.append(elapsed)
        step_ref_s.append(calibrate.scaled(elapsed, calib_s[-2], calib_s[-1]))
        if tracer is not None:
            layers.append(tracer.take())
        check(index, output)
        output = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for bad in workload.verify(steps):
        failed.add(bad)
        failures.append(f"step {bad}: delta-built snapshot digest differs "
                        "from an independent full build")
    return {
        "event": "result",
        "attempted": steps + 1,
        "failed_steps": sorted(failed),
        "failures": failures,
        "digests": [digests.get(k) for k in range(steps + 1)],
        "step_s": step_s,
        "step_ref_s": step_ref_s,
        "calib_s": calib_s,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        default="measure")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("need at least one timed step")

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    output = workload.step(0)
    warmup_s = time.perf_counter() - start
    emit({"event": "ready"})
    if args.role == "setup":
        return 0
    result = measure(workload, output, args.steps, tracer)
    result["warmup_s"] = warmup_s
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
