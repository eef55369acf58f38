"""Trace/metric/event exporters and the run manifest.

The on-disk format is JSON Lines: one self-describing record per line,
discriminated by a ``type`` field —

* ``manifest`` — run identity: config hash, seed, package versions, and
  run totals (event count, health epochs);
* ``counter`` / ``gauge`` / ``histogram`` — registry instruments;
* ``phase`` — profiler aggregates;
* ``span`` — individual trace spans (open order, parent links);
* ``event`` — timeline events (:mod:`repro.obs.events`);
* ``health_epochs`` / ``health_links`` / ``health_nodes`` — the columnar
  health plane (:mod:`repro.obs.health`).

Records are emitted with sorted keys and metric rows in sorted
``(type, name, label)`` order, so two same-seed runs differ only in the
wall-clock duration fields — the metric *values* are byte-identical, and
the event stream (which carries simulated time only) is byte-identical
wholesale.  A flat CSV of the metric instruments and a Prometheus text
exposition are available for spreadsheets and scrapers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs import Recorder


@contextmanager
def atomic_write(path: Union[str, Path], newline: Optional[str] = None):
    """Open ``path`` for writing via a temp file + atomic rename.

    The destination is only ever replaced by a fully written file: a
    crash (or any exception) mid-write leaves the previous contents
    intact and removes the temp file.  The temp file lives next to the
    destination so the final ``os.replace`` stays on one filesystem.
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    handle = open(temp, "w", newline=newline)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        try:
            temp.unlink()
        except OSError:
            pass
        raise
    handle.close()
    os.replace(temp, target)


def config_hash(config: Dict) -> str:
    """Stable short hash of a run configuration dict.

    Non-JSON-serializable values are stringified, so argparse namespaces
    converted with ``vars()`` hash cleanly.
    """
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_manifest(config: Optional[Dict] = None,
                 seed: Optional[int] = None,
                 command: Optional[str] = None) -> Dict:
    """The run-identity record written first in every trace file.

    ``versions`` names the packages that compute what a run reports:
    numpy, and scipy, whose csgraph Dijkstra and KD-tree compute every
    route.
    """
    import numpy
    import scipy

    from repro import __version__

    config = dict(config or {})
    return {
        "type": "manifest",
        "command": command or "",
        "config": {k: config[k] for k in sorted(config, key=str)},
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "repro": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def manifest_totals(recorder: Recorder) -> Dict:
    """Run totals folded into the manifest at export time."""
    return {
        "events": len(recorder.events),
        "health_epochs": len(recorder.health),
    }


def _with_totals(recorder: Recorder, manifest: Optional[Dict]) -> Dict:
    manifest = dict(manifest or run_manifest())
    manifest["totals"] = manifest_totals(recorder)
    return manifest


def trace_rows(recorder: Recorder, manifest: Optional[Dict] = None) -> List[Dict]:
    """Every export record of one run, manifest first."""
    rows: List[Dict] = [_with_totals(recorder, manifest)]
    rows += recorder.metrics.rows()
    rows += recorder.profiler.rows()
    rows += recorder.tracer.rows()
    return rows


def _write_jsonl(rows: List[Dict], path: Union[str, Path]) -> int:
    with atomic_write(path) as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, default=str))
            handle.write("\n")
    return len(rows)


def write_trace_jsonl(recorder: Recorder, path: Union[str, Path],
                      manifest: Optional[Dict] = None) -> int:
    """Write the full trace (manifest, metrics, phases, spans) as JSONL.

    Returns:
        Number of records written.
    """
    return _write_jsonl(trace_rows(recorder, manifest), path)


def event_rows(recorder: Recorder, manifest: Optional[Dict] = None) -> List[Dict]:
    """The event-stream export: manifest, health plane, then events.

    Every field is derived from seeded simulation state (event times are
    simulated, ordering is emission order), so same-seed runs produce
    byte-identical streams.
    """
    rows: List[Dict] = [_with_totals(recorder, manifest)]
    rows += recorder.health.rows()
    rows += recorder.events.rows()
    return rows


def write_events_jsonl(recorder: Recorder, path: Union[str, Path],
                       manifest: Optional[Dict] = None) -> int:
    """Write the event stream + health plane as JSONL (atomic).

    Returns:
        Number of records written.
    """
    return _write_jsonl(event_rows(recorder, manifest), path)


def write_metrics_csv(recorder: Recorder, path: Union[str, Path]) -> int:
    """Write the metric instruments as a flat CSV.

    Counters/gauges carry ``value``; histograms carry count/mean and the
    reservoir percentiles.  Bucket vectors stay in the JSONL export.

    Returns:
        Number of data rows written.
    """
    columns = ["type", "name", "label", "value", "count", "total", "mean",
               "min", "max", "p50", "p95", "p99", "calls", "total_s"]
    rows = recorder.metrics.rows() + recorder.profiler.rows()
    with atomic_write(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns,
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def _prom_name(name: str, namespace: str = "repro") -> str:
    """Sanitize a dotted metric name into Prometheus form."""
    flat = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{namespace}_{flat}" if namespace else flat


def _prom_labels(label: str) -> str:
    if not label:
        return ""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'{{label="{escaped}"}}'


def prometheus_text(recorder: Recorder, namespace: str = "repro") -> str:
    """The metric registry as Prometheus text exposition format.

    Counters export as ``*_total``, gauges as-is, histograms as the
    conventional ``*_bucket{le=...}`` / ``*_sum`` / ``*_count`` series.
    Output order is the registry's sorted row order, so same-seed runs
    produce identical expositions.
    """
    lines: List[str] = []
    typed: set = set()

    def header(prom: str, kind: str) -> None:
        if prom not in typed:
            typed.add(prom)
            lines.append(f"# TYPE {prom} {kind}")

    for row in recorder.metrics.rows():
        kind = row["type"]
        labels = _prom_labels(row.get("label", ""))
        if kind == "counter":
            prom = _prom_name(row["name"], namespace) + "_total"
            header(prom, "counter")
            lines.append(f"{prom}{labels} {row['value']:g}")
        elif kind == "gauge":
            prom = _prom_name(row["name"], namespace)
            header(prom, "gauge")
            lines.append(f"{prom}{labels} {row['value']:g}")
        elif kind == "histogram":
            prom = _prom_name(row["name"], namespace)
            header(prom, "histogram")
            label = row.get("label", "")
            cumulative = 0
            for bound, count in zip(row["bounds"], row["bucket_counts"]):
                cumulative += count
                lines.append(
                    f"{prom}_bucket{_prom_bucket(label, bound)} {cumulative}"
                )
            lines.append(
                f"{prom}_bucket{_prom_bucket(label, 'inf')} {row['count']}"
            )
            lines.append(f"{prom}_sum{labels} {row['total']:g}")
            lines.append(f"{prom}_count{labels} {row['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_bucket(label: str, bound) -> str:
    le = "+Inf" if bound == "inf" else f"{float(bound):g}"
    if label:
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
        return f'{{label="{escaped}",le="{le}"}}'
    return f'{{le="{le}"}}'


def write_prometheus_text(recorder: Recorder, path: Union[str, Path],
                          namespace: str = "repro") -> int:
    """Write the Prometheus exposition atomically; returns line count."""
    text = prometheus_text(recorder, namespace)
    with atomic_write(path) as handle:
        handle.write(text)
    return text.count("\n")


def read_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Parse a trace file back into records.

    Raises:
        ValueError: On a line that is not a JSON object.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{number}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            records.append(record)
    return records


def summarize_records(records: Sequence[Dict], top: int = 10) -> str:
    """Human-readable summary of a trace: manifest, top spans, counters.

    Args:
        records: Parsed JSONL records (any mix of types).
        top: Row cap per section.
    """
    by_type: Dict[str, List[Dict]] = {}
    for record in records:
        by_type.setdefault(str(record.get("type", "?")), []).append(record)
    lines: List[str] = []

    for manifest in by_type.get("manifest", [])[:1]:
        versions = manifest.get("versions", {})
        lines.append(
            f"run: command={manifest.get('command') or '-'} "
            f"config_hash={manifest.get('config_hash', '-')} "
            f"seed={manifest.get('seed')}"
        )
        lines.append(
            "versions: " + " ".join(
                f"{k}={versions[k]}" for k in sorted(versions)
            )
        )
        totals = manifest.get("totals")
        if totals:
            lines.append(
                "totals: " + " ".join(
                    f"{k}={totals[k]:g}" for k in sorted(totals)
                )
            )

    spans = by_type.get("span", [])
    if spans:
        aggregated: Dict[str, Dict[str, float]] = {}
        for row in spans:
            agg = aggregated.setdefault(
                str(row["name"]), {"count": 0, "total_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += float(row.get("duration_s", 0.0))
        ranked = sorted(aggregated.items(),
                        key=lambda item: (-item[1]["total_s"], item[0]))
        lines.append("")
        lines.append(f"top spans ({len(spans)} total):")
        for name, agg in ranked[:top]:
            lines.append(
                f"  {name:<44} x{int(agg['count']):<6} "
                f"{agg['total_s']:.4f} s"
            )

    phases = by_type.get("phase", [])
    if phases:
        lines.append("")
        lines.append("phases:")
        for row in phases[:top]:
            lines.append(
                f"  {row['name']:<44} x{int(row['calls']):<6} "
                f"{float(row['total_s']):.4f} s"
            )

    counters = by_type.get("counter", [])
    if counters:
        ranked = sorted(counters,
                        key=lambda r: (-float(r["value"]), r["name"],
                                       r.get("label", "")))
        lines.append("")
        lines.append(f"top counters ({len(counters)} total):")
        for row in ranked[:top]:
            label = f"{{{row['label']}}}" if row.get("label") else ""
            lines.append(f"  {row['name']}{label:<24} "
                         f"{float(row['value']):g}")

    events = by_type.get("event", [])
    if events:
        kind_counts: Dict[str, int] = {}
        subject_counts: Dict[str, int] = {}
        for row in events:
            kind_counts[str(row.get("kind", "?"))] = (
                kind_counts.get(str(row.get("kind", "?")), 0) + 1
            )
            subject = str(row.get("subject", ""))
            if subject:
                subject_counts[subject] = subject_counts.get(subject, 0) + 1
        lines.append("")
        lines.append(f"events ({len(events)} total):")
        for kind in sorted(kind_counts):
            lines.append(f"  {kind:<24} {kind_counts[kind]}")
        if subject_counts:
            noisiest = sorted(subject_counts.items(),
                              key=lambda item: (-item[1], item[0]))
            lines.append("")
            lines.append("noisiest subjects:")
            for subject, count in noisiest[:top]:
                lines.append(f"  {subject:<44} {count}")

    for row in by_type.get("health_epochs", [])[:1]:
        times = row.get("t", [])
        if not times:
            continue
        links_up = row.get("links_up", [])
        lines.append("")
        lines.append(
            f"health: {len(times)} epochs over "
            f"t=[{times[0]:g}, {times[-1]:g}] s, "
            f"links_up min={min(links_up)} max={max(links_up)}"
        )

    for row in by_type.get("health_links", [])[:1]:
        ids = row.get("ids", [])
        present = row.get("present_epochs", [])
        epochs = max(
            (len(e.get("t", [])) for e in by_type.get("health_epochs", [])),
            default=0,
        )
        if not ids or not epochs:
            continue
        flappiest = sorted(
            zip(ids, present), key=lambda item: (item[1], item[0])
        )
        lines.append("")
        lines.append(f"lowest-availability links ({len(ids)} tracked):")
        for link_id, count in flappiest[:top]:
            lines.append(
                f"  {link_id:<44} {count / epochs:.1%} "
                f"({count}/{epochs} epochs)"
            )

    histograms = by_type.get("histogram", [])
    if histograms:
        lines.append("")
        lines.append(f"histograms ({len(histograms)} total):")
        for row in histograms[:top]:
            label = f"{{{row['label']}}}" if row.get("label") else ""
            lines.append(
                f"  {row['name']}{label} n={row['count']} "
                f"mean={float(row['mean']):.4g} p50={float(row['p50']):.4g} "
                f"p95={float(row['p95']):.4g} max={float(row['max']):.4g}"
            )

    if not lines:
        return "empty trace"
    return "\n".join(lines)


def summarize_file(path: Union[str, Path], top: int = 10) -> str:
    """Summarize a trace file (the ``repro obs summarize`` backend)."""
    return summarize_records(read_jsonl(path), top=top)
