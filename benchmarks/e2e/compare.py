"""Compare benchmark runs of a parent commit with runs of a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``run.py --out`` files of untraced runs.  Runs pair
up by workload and seed, so run both commits on the same seeds.  For
every workload and every end-to-end metric of ``BENCHMARK.json``:

* at least ``MIN_PAIRS`` pairs are needed, and the pairs should alternate
  which side ran first;
* ``win``: the change is better in at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change run is better
  than every parent run;
* ``same``: none of these.

Any rise in ``failed_frac`` rejects the change.  The exit status is 1
on a regression or a rejection, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced run records by workload, sorted by seed, then start."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        for record in json.loads(path.read_text())["runs"]:
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["started_unix"]))
    return runs


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """The rule of the module docstring for one workload and metric."""
    if len(parent) < MIN_PAIRS:
        return "too_few"
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median) / parent_median
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "regression"
    if (wins >= WIN_SHARE * len(parent) and gain > 0
            and abs(change_median - parent_median) > q3 - q1):
        return "win"
    return "same"


def alternated(pairs: Sequence[tuple]) -> bool:
    """True when consecutive pairs swap which side started first."""
    firsts = [p["started_unix"] < c["started_unix"] for p, c in pairs]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def failed_frac(records: Sequence[dict]) -> float:
    return (sum(r["failed"] for r in records)
            / sum(r["attempted"] for r in records))


def compare(parent_runs: Dict[str, List[dict]],
            change_runs: Dict[str, List[dict]], benchmark: dict) -> List[dict]:
    """One row per workload of the benchmark."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if [r["seed"] for r in parent] != [r["seed"] for r in change]:
            raise SystemExit(f"{workload}: the two sides ran different seeds")
        pairs = list(zip(parent, change))
        row = {"workload": workload, "pairs": len(pairs),
               "alternated": alternated(pairs), "metrics": {}}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in parent]
            c_values = [r["metrics"][name]["value"] for r in change]
            row["metrics"][name] = {
                "verdict": verdict(p_values, c_values, metric["better"],
                                   metric["bound"]),
                "parent": p_values, "change": c_values,
            }
        if pairs:
            row["failed"] = (failed_frac(parent), failed_frac(change))
        rows.append(row)
    return rows


def _summary(values: Sequence[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    print(f"{'workload':16} {'pairs':>5} {'order':11} "
          + " ".join(f"{name:>21}" for name in metrics) + "  failed_frac")
    bad = False
    for row in rows:
        cells = []
        for name in metrics:
            entry = row["metrics"][name]
            label = entry["verdict"]
            if entry["parent"]:
                parent_median = statistics.median(entry["parent"])
                change_median = statistics.median(entry["change"])
                label += f"({(change_median / parent_median - 1):+.1%})"
            cells.append(f"{label:>21}")
            bad |= entry["verdict"] == "regression"
        failed = row.get("failed", (0.0, 0.0))
        rejected = failed[1] > failed[0]
        bad |= rejected
        print(f"{row['workload']:16} {row['pairs']:5} "
              f"{'alternated' if row['alternated'] else 'NOT alt.':11} "
              + " ".join(cells)
              + f"  {failed[0]:.3f}->{failed[1]:.3f}"
              + ("  REJECTED" if rejected else ""))
    print("\nmedian [q1, q3], parent -> change:")
    for row in rows:
        for name in metrics:
            entry = row["metrics"][name]
            print(f"  {row['workload']:16} {name:12} "
                  f"{_summary(entry['parent'])} -> {_summary(entry['change'])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
