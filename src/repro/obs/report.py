"""Self-contained HTML timeline/health report.

``repro obs report run.jsonl --out run.html`` turns an exported event
stream (:func:`repro.obs.export.write_events_jsonl`, or a combined
trace) into a single HTML file with zero external dependencies: inline
CSS, server-side-rendered SVG — no JavaScript, no CDN fetches — so the
artifact archives cleanly in CI and opens anywhere.

Sections:

* run header (command, seed, config hash, totals);
* an SVG **timeline** of the event stream, one swim-lane per event kind,
  each mark carrying a hover tooltip with the event's subject and attrs;
* **health sparklines** over the sampled epochs (links up, active
  faults);
* the **lowest-availability links** table from the health plane;
* event counts by kind.

Rendering is deterministic: same records in, byte-identical HTML out.
"""

from __future__ import annotations

from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

#: Swim-lane mark colors per event kind (unknown kinds get the fallback).
_KIND_COLORS = {
    "link.up": "#2a9d3a",
    "link.down": "#d62728",
    "handover": "#1f77b4",
    "fault.inject": "#b01515",
    "fault.recover": "#62b56f",
    "breaker.transition": "#ff7f0e",
    "retransmission": "#e8b417",
    "session.admit": "#17becf",
    "session.drop": "#8c564b",
}
_FALLBACK_COLOR = "#7f7f7f"

#: Marks drawn per lane before down-sampling (keeps the SVG bounded).
_MAX_MARKS_PER_LANE = 600

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 1080px; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; border-bottom: 2px solid #1a1a2e; }
h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.7em; text-align: left; }
th { background: #f0f0f5; }
.meta { color: #555; font-size: 0.92em; }
.lane-label { font-size: 11px; fill: #333; }
.axis { stroke: #999; stroke-width: 1; }
.axis-label { font-size: 10px; fill: #666; }
.spark { stroke-width: 1.5; fill: none; }
.note { color: #777; font-size: 0.85em; }
"""


def _svg_timeline(events: Sequence[Dict], width: int = 1000) -> str:
    """The event swim-lane SVG (empty string when there are no events)."""
    if not events:
        return ""
    times = [float(row.get("t", 0.0)) for row in events]
    t_min, t_max = min(times), max(times)
    t_span = (t_max - t_min) or 1.0
    kinds = sorted({str(row.get("kind", "?")) for row in events})
    lane_h = 26
    left = 170
    top = 18
    height = top + lane_h * len(kinds) + 30
    plot_w = width - left - 20

    def x_of(t: float) -> float:
        return left + (t - t_min) / t_span * plot_w

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'role="img" aria-label="event timeline">',
    ]
    lane_of = {kind: index for index, kind in enumerate(kinds)}
    for kind, lane in lane_of.items():
        y = top + lane * lane_h
        parts.append(
            f'<text class="lane-label" x="4" y="{y + lane_h - 9}">'
            f"{escape(kind)}</text>"
        )
        parts.append(
            f'<line class="axis" x1="{left}" y1="{y + lane_h - 5}" '
            f'x2="{width - 20}" y2="{y + lane_h - 5}" opacity="0.35"/>'
        )
    # Down-sample per lane so a million-event run still renders.
    per_lane: Dict[str, List[Dict]] = {kind: [] for kind in kinds}
    for row in events:
        per_lane[str(row.get("kind", "?"))].append(row)
    dropped = 0
    for kind, rows in per_lane.items():
        if len(rows) > _MAX_MARKS_PER_LANE:
            stride = len(rows) / _MAX_MARKS_PER_LANE
            kept = [rows[int(index * stride)]
                    for index in range(_MAX_MARKS_PER_LANE)]
            dropped += len(rows) - len(kept)
            rows = kept
        color = _KIND_COLORS.get(kind, _FALLBACK_COLOR)
        y = top + lane_of[kind] * lane_h + lane_h - 13
        for row in rows:
            cx = x_of(float(row.get("t", 0.0)))
            attrs = row.get("attrs") or {}
            tip = (
                f"#{row.get('seq', '?')} t={float(row.get('t', 0.0)):g}s "
                f"{kind} {row.get('subject', '')}"
            )
            if attrs:
                tip += " " + " ".join(
                    f"{key}={attrs[key]}" for key in sorted(attrs)
                )
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{y}" r="3.2" fill="{color}" '
                f'opacity="0.8"><title>{escape(tip)}</title></circle>'
            )
    axis_y = top + lane_h * len(kinds) + 8
    parts.append(
        f'<line class="axis" x1="{left}" y1="{axis_y}" '
        f'x2="{width - 20}" y2="{axis_y}"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_min + frac * t_span
        parts.append(
            f'<text class="axis-label" x="{x_of(t):.1f}" y="{axis_y + 14}" '
            f'text-anchor="middle">{t:g}s</text>'
        )
    parts.append("</svg>")
    if dropped:
        parts.append(
            f'<p class="note">timeline down-sampled: {dropped} of '
            f"{len(events)} events not drawn</p>"
        )
    return "\n".join(parts)


def _svg_sparkline(times: Sequence[float], values: Sequence[float],
                   color: str, label: str, width: int = 1000,
                   height: int = 56) -> str:
    """One health series as an inline SVG polyline."""
    if not times:
        return ""
    t_min, t_max = min(times), max(times)
    t_span = (t_max - t_min) or 1.0
    v_min, v_max = min(values), max(values)
    v_span = (v_max - v_min) or 1.0
    left, right, pad = 170, 20, 8
    plot_w = width - left - right
    points = " ".join(
        f"{left + (t - t_min) / t_span * plot_w:.1f},"
        f"{height - pad - (v - v_min) / v_span * (height - 2 * pad):.1f}"
        for t, v in zip(times, values)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="{escape(label)}">'
        f'<text class="lane-label" x="4" y="{height // 2 + 4}">'
        f"{escape(label)}</text>"
        f'<polyline class="spark" stroke="{color}" points="{points}"/>'
        f'<text class="axis-label" x="{width - right}" y="{pad + 4}" '
        f'text-anchor="end">max {v_max:g}</text>'
        f'<text class="axis-label" x="{width - right}" y="{height - 2}" '
        f'text-anchor="end">min {v_min:g}</text>'
        f"</svg>"
    )


def render_report(records: Sequence[Dict], title: str = "repro run",
                  top: int = 15) -> str:
    """Render parsed JSONL records into the standalone HTML report."""
    by_type: Dict[str, List[Dict]] = {}
    for record in records:
        by_type.setdefault(str(record.get("type", "?")), []).append(record)
    events = by_type.get("event", [])
    manifest = (by_type.get("manifest") or [{}])[0]
    epochs = (by_type.get("health_epochs") or [{}])[0]
    links = (by_type.get("health_links") or [{}])[0]

    body: List[str] = [f"<h1>{escape(title)}</h1>"]

    meta_bits = []
    if manifest.get("command"):
        meta_bits.append(f"command <code>{escape(str(manifest['command']))}</code>")
    if manifest.get("seed") is not None:
        meta_bits.append(f"seed {escape(str(manifest['seed']))}")
    if manifest.get("config_hash"):
        meta_bits.append(f"config {escape(str(manifest['config_hash']))}")
    totals = manifest.get("totals") or {}
    for key in sorted(totals):
        meta_bits.append(f"{escape(key)} {totals[key]:g}")
    if meta_bits:
        body.append(f'<p class="meta">{" · ".join(meta_bits)}</p>')

    body.append("<h2>Event timeline</h2>")
    if events:
        body.append(_svg_timeline(events))
    else:
        body.append('<p class="note">no events in this file</p>')

    epoch_times = [float(t) for t in epochs.get("t", [])]
    if epoch_times:
        body.append("<h2>Health plane</h2>")
        for column, color, label in (
            ("links_up", "#1f77b4", "links up"),
            ("faults_active", "#d62728", "active faults"),
        ):
            values = [float(v) for v in epochs.get(column, [])]
            if values:
                body.append(
                    _svg_sparkline(epoch_times, values, color, label)
                )
        ids = links.get("ids", [])
        present = links.get("present_epochs", [])
        if ids and epoch_times:
            ranked = sorted(zip(ids, present),
                            key=lambda item: (item[1], item[0]))
            body.append(
                f"<h2>Lowest-availability links ({len(ids)} tracked)</h2>"
            )
            body.append("<table><tr><th>link</th><th>availability</th>"
                        "<th>epochs up</th></tr>")
            for link_id, count in ranked[:top]:
                body.append(
                    f"<tr><td><code>{escape(str(link_id))}</code></td>"
                    f"<td>{int(count) / len(epoch_times):.1%}</td>"
                    f"<td>{int(count)}/{len(epoch_times)}</td></tr>"
                )
            body.append("</table>")

    if events:
        kind_counts: Dict[str, int] = {}
        for row in events:
            kind = str(row.get("kind", "?"))
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
        body.append(f"<h2>Events by kind ({len(events)} total)</h2>")
        body.append("<table><tr><th>kind</th><th>count</th></tr>")
        for kind in sorted(kind_counts):
            body.append(f"<tr><td><code>{escape(kind)}</code></td>"
                        f"<td>{kind_counts[kind]}</td></tr>")
        body.append("</table>")

    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>{escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


def write_report(records: Sequence[Dict], path: Union[str, Path],
                 title: str = "repro run", top: int = 15) -> int:
    """Render and atomically write the report; returns bytes written."""
    from repro.obs.export import atomic_write

    html = render_report(records, title=title, top=top)
    with atomic_write(path) as handle:
        handle.write(html)
    return len(html.encode())


def report_file(trace_path: Union[str, Path],
                out_path: Union[str, Path],
                title: Optional[str] = None, top: int = 15) -> int:
    """``repro obs report`` backend: JSONL in, HTML out."""
    from repro.obs.export import read_jsonl

    records = read_jsonl(trace_path)
    return write_report(records, out_path,
                        title=title or f"repro run — {trace_path}", top=top)
