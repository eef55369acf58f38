#!/usr/bin/env bash
# Seeded end-to-end smoke contract, shared by every smoke matrix case.
#
# Runs one `repro` sweep twice and proves the output byte-identical,
# then reruns it with extra flags (a different --jobs count) and proves
# that changes nothing either.  With EVENTS=true the
# telemetry stream joins the contract: a double-run to the same
# --events-out path must match byte for byte (the manifest embeds the
# output path, so both runs share one), and the rerun's stream must
# match on everything but the manifest line.  With EXPECTED set, the
# first run's stdout must also equal a committed file, so a change that
# moves a row fails even though it moves every run alike.  Optionally
# finishes with a targeted benchmark case whose JSON the workflow
# uploads as an artifact.  Every sweep runs with networkx unimportable
# (.github/scripts/no_networkx first on PYTHONPATH); the benchmark case
# keeps it for its scalar references.
#
# Inputs (environment):
#   SWEEP_CMD   repro subcommand + arguments (required)
#   RERUN_ARGS  extra flags for the rerun (required; e.g. "--jobs 2")
#   EVENTS      "true" to exercise --events-out determinism
#   EXPECTED    committed stdout the first run must print (optional)
#   BENCH_ONLY  run_bench.py case name(s) to run afterwards (optional)
#   BENCH_OUT   output JSON path for the benchmark run
#   BENCH_ARGS  extra run_bench.py flags (optional)
set -euo pipefail

: "${SWEEP_CMD:?SWEEP_CMD is required}"
: "${RERUN_ARGS:?RERUN_ARGS is required}"

run() {
  # shellcheck disable=SC2086
  PYTHONPATH=.github/scripts/no_networkx:src python -m repro ${SWEEP_CMD} "$@"
}

if [ "${EVENTS:-}" = "true" ]; then
  run --events-out events.jsonl | tee stdout_1.txt
  cp events.jsonl events_first_run.jsonl
  run --events-out events.jsonl > stdout_2.txt
  cmp events_first_run.jsonl events.jsonl
  diff stdout_1.txt stdout_2.txt
  # shellcheck disable=SC2086
  run ${RERUN_ARGS} --events-out events_rerun.jsonl > /dev/null
  diff <(grep -v '"type": "manifest"' events.jsonl) \
       <(grep -v '"type": "manifest"' events_rerun.jsonl)
else
  run | tee stdout_1.txt
  run > stdout_2.txt
  diff stdout_1.txt stdout_2.txt
  # shellcheck disable=SC2086
  run ${RERUN_ARGS} > stdout_rerun.txt
  diff stdout_1.txt stdout_rerun.txt
fi

if [ -n "${EXPECTED:-}" ]; then
  diff "${EXPECTED}" stdout_1.txt
fi

if [ -n "${BENCH_ONLY:-}" ]; then
  : "${BENCH_OUT:?BENCH_OUT is required when BENCH_ONLY is set}"
  # shellcheck disable=SC2086
  PYTHONPATH=src python benchmarks/run_bench.py \
    --only ${BENCH_ONLY} --output "${BENCH_OUT}" ${BENCH_ARGS:-}
fi
