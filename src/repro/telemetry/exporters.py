"""Exporters: one metrics state, three renderings.

* :func:`metrics_document` — the canonical nested dict (counters,
  gauges, histogram summaries with p50/p90/p99, span accounting,
  flight-recorder occupancy).  Key-sorted and round-stable, so two runs
  of the same seeded scenario serialise byte-identically and the bench
  trajectory is diffable across PRs.
* :func:`render_json` — that document as JSON text.
* :func:`render_prometheus` — Prometheus text exposition format
  (``tnic_`` prefix, dots mapped to underscores), so a real scrape
  pipeline could ingest a simulation run unchanged.
* :func:`render_text` — a human summary for the CLI.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any

from repro.telemetry.metrics import Counter, Gauge, format_labels

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

_PROM_SANITISE = re.compile(r"[^a-zA-Z0-9_]")


def metrics_document(hub: "Telemetry") -> dict[str, Any]:
    """The canonical, deterministic metrics document for *hub*."""
    return {
        "clock_us": round(hub.sim.now, 6),
        "metrics": hub.registry.snapshot(),
        "spans": {
            "finished": len(hub.spans.finished),
            "open": len(hub.spans.open_spans),
            "evicted": hub.spans.evicted,
        },
        "flight_recorder": {
            "snapshots": len(hub.recorder),
            "overflowed": hub.recorder.overflowed,
        },
    }


def render_json(hub: "Telemetry") -> str:
    return json.dumps(metrics_document(hub), indent=2, sort_keys=True)


def _prom_name(name: str) -> str:
    return "tnic_" + _PROM_SANITISE.sub("_", name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double quote and newline must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_prom_escape(str(v))}"' for k, v in key)
        + "}"
    )


def render_prometheus(hub: "Telemetry") -> str:
    """Prometheus text exposition of every metric in the registry."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for name, key, metric in hub.registry:
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            if prom not in seen_types:
                seen_types.add(prom)
                lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom}{_prom_labels(key)} {metric.value:g}")
        elif isinstance(metric, Gauge):
            if prom not in seen_types:
                seen_types.add(prom)
                lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{_prom_labels(key)} {metric.value:g}")
        else:
            if prom not in seen_types:
                seen_types.add(prom)
                lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for index, bound in enumerate(metric.bounds):
                cumulative += metric.bucket_counts[index]
                label = _prom_labels(key + (("le", f"{bound:g}"),))
                lines.append(f"{prom}_bucket{label} {cumulative}")
            label = _prom_labels(key + (("le", "+Inf"),))
            lines.append(f"{prom}_bucket{label} {metric.count}")
            lines.append(f"{prom}_sum{_prom_labels(key)} {metric.total:g}")
            lines.append(f"{prom}_count{_prom_labels(key)} {metric.count}")
    lines.append(f"tnic_clock_us {hub.sim.now:g}")
    return "\n".join(lines)


def render_text(hub: "Telemetry") -> str:
    """Readable CLI summary: counters, gauges, histogram percentiles."""
    doc = metrics_document(hub)
    lines = [f"== telemetry @ {doc['clock_us']:.2f}us virtual =="]
    metrics = doc["metrics"]
    if metrics["counters"]:
        lines.append("-- counters --")
        for series, value in metrics["counters"].items():
            lines.append(f"  {series:44s} {value:g}")
    if metrics["gauges"]:
        lines.append("-- gauges --")
        for series, value in metrics["gauges"].items():
            lines.append(f"  {series:44s} {value:g}")
    if metrics["histograms"]:
        lines.append("-- histograms (us) --")
        for series, summary in metrics["histograms"].items():
            lines.append(
                f"  {series:30s} n={summary['count']:<6d} "
                f"p50={summary['p50']:<9.2f} p90={summary['p90']:<9.2f} "
                f"p99={summary['p99']:<9.2f} max={summary['max']:.2f}"
            )
    spans = doc["spans"]
    lines.append(
        f"-- spans: {spans['finished']} finished, {spans['open']} open, "
        f"{spans['evicted']} evicted --"
    )
    recorder = doc["flight_recorder"]
    lines.append(
        f"-- flight recorder: {recorder['snapshots']} snapshot(s), "
        f"{recorder['overflowed']} overflowed --"
    )
    return "\n".join(lines)


__all__ = [
    "metrics_document",
    "render_json",
    "render_prometheus",
    "render_text",
    "format_labels",
]
