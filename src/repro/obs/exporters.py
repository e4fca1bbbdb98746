"""Render and serialise a :class:`~repro.obs.registry.MetricsRegistry`.

Four operator-facing views of one registry:

* :func:`format_summary` - the human table printed by the CLI;
* :func:`metrics_document` / :func:`write_metrics_json` - a single JSON
  document with counters, gauges, histogram percentiles and per-span
  aggregates (the shape ``engine run --metrics`` emits, and the block
  benchmarks fold into ``BENCH_<name>.json``);
* :func:`write_spans_jsonl` - an append-friendly JSONL event log, one
  object per metric or span;
* :func:`write_chrome_trace` - Chrome's ``chrome://tracing`` (about
  tracing / Perfetto) JSON array format, one complete-event per span,
  one process lane per registry origin.

This module is deliberately *not* imported by ``repro.obs.__init__``:
only operator surfaces (CLI, benchmarks, tests) import it, so result
paths never link against the read side even accidentally - and lint
rule C206 flags any result-path module that tries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.registry import MetricsRegistry

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "SUMMARY_PERCENTILES",
    "format_summary",
    "metrics_document",
    "write_chrome_trace",
    "write_metrics_json",
    "write_spans_jsonl",
]

#: Version of the :func:`metrics_document` envelope.  Version 2 dropped
#: ``derived.kernel_cache_hit_rate`` along with the kernel's array cache.
METRICS_SCHEMA_VERSION = 2

#: Percentiles reported for every histogram, in document key order.
SUMMARY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def _histogram_row(name: str, sketch: Any) -> Dict[str, Any]:
    """One histogram's document entry: count, extrema, percentiles."""
    row: Dict[str, Any] = {
        "count": sketch.count,
        "min": sketch.minimum,
        "max": sketch.maximum,
    }
    for p in SUMMARY_PERCENTILES:
        key = f"p{p:g}"
        row[key] = sketch.percentile(p) if sketch.count else None
    return row


def _derived(counters: Dict[str, int]) -> Dict[str, Any]:
    """Ratios the raw counters imply but readers should not recompute."""
    python_events = counters.get("kernel.batch.python_events", 0)
    array_events = counters.get("kernel.batch.array_events", 0)
    batched = python_events + array_events
    delta = counters.get("clock.rotation.delta", 0)
    replay = counters.get("clock.rotation.replay", 0)
    rotations = delta + replay
    return {
        "kernel_array_path_share": (array_events / batched) if batched else None,
        "rotation_delta_share": (delta / rotations) if rotations else None,
    }


def metrics_document(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as one JSON-safe document (see module docstring).

    Keys are deterministic (sorted within every section) so two runs
    that observed the same counts diff cleanly; latency-derived values
    naturally vary run to run.
    """
    counters = registry.counters()
    histograms = {
        name: _histogram_row(name, sketch) for name, sketch in registry.histograms()
    }
    spans = {
        name: {"count": count, "total_s": total, "max_s": peak}
        for name, (count, total, peak) in registry.span_totals().items()
    }
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "origin": registry.origin,
        "counters": counters,
        "gauges": registry.gauges(),
        "histograms": histograms,
        "spans": spans,
        "derived": _derived(counters),
    }


def format_summary(registry: MetricsRegistry) -> str:
    """The registry as aligned text tables, one section per metric kind.

    Empty sections are omitted; an entirely empty registry renders as a
    single placeholder line so callers can print unconditionally.
    """
    # Deferred import: repro.analysis eagerly pulls the experiment
    # harness, which this module must not load before a registry is
    # actually being rendered.
    from repro.analysis.report import format_table

    document = metrics_document(registry)
    sections: List[str] = []
    counters = document["counters"]
    if counters:
        rows = [{"counter": name, "value": counters[name]} for name in counters]
        sections.append("counters:\n" + format_table(rows))
    gauges = document["gauges"]
    if gauges:
        rows = [{"gauge": name, "value": f"{gauges[name]:g}"} for name in gauges]
        sections.append("gauges:\n" + format_table(rows))
    histograms = document["histograms"]
    if histograms:
        rows = []
        for name in histograms:
            entry = histograms[name]
            row: Dict[str, Any] = {"histogram": name, "count": entry["count"]}
            for p in SUMMARY_PERCENTILES:
                key = f"p{p:g}"
                value = entry[key]
                row[key] = "-" if value is None else f"{value:.6f}"
            rows.append(row)
        sections.append("histograms (seconds):\n" + format_table(rows))
    spans = document["spans"]
    if spans:
        rows = [
            {
                "span": name,
                "count": spans[name]["count"],
                "total_s": f"{spans[name]['total_s']:.3f}",
                "max_s": f"{spans[name]['max_s']:.3f}",
            }
            for name in spans
        ]
        sections.append("spans:\n" + format_table(rows))
    derived = {
        name: value
        for name, value in document["derived"].items()
        if value is not None
    }
    if derived:
        rows = [
            {"derived": name, "value": f"{derived[name]:.4f}"} for name in derived
        ]
        sections.append("derived:\n" + format_table(rows))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def write_metrics_json(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write :func:`metrics_document` to ``path`` as indented JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = metrics_document(registry)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def write_spans_jsonl(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write the registry as a JSONL event log, one object per line.

    The first line is a ``meta`` record (schema, origin, the wall-clock
    anchor of the span timeline); counters, gauges and histograms follow
    in sorted order, then every span in recorded order.  The shape is
    collector-friendly: each line stands alone.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = metrics_document(registry)
    lines: List[str] = [
        json.dumps(
            {
                "type": "meta",
                "schema": METRICS_SCHEMA_VERSION,
                "origin": registry.origin,
                "wall_epoch": registry.wall_epoch,
            },
            sort_keys=True,
        )
    ]
    for name, value in document["counters"].items():
        lines.append(
            json.dumps(
                {"type": "counter", "name": name, "value": value}, sort_keys=True
            )
        )
    for name, value in document["gauges"].items():
        lines.append(
            json.dumps({"type": "gauge", "name": name, "value": value}, sort_keys=True)
        )
    for name, entry in document["histograms"].items():
        record = {"type": "histogram", "name": name}
        record.update(entry)
        lines.append(json.dumps(record, sort_keys=True))
    for origin, name, start, duration, attrs in registry.span_records():
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "origin": origin,
                    "name": name,
                    "start_s": start,
                    "duration_s": duration,
                    "attrs": dict(attrs),
                },
                sort_keys=True,
            )
        )
    target.write_text("\n".join(lines) + "\n")
    return target


def write_chrome_trace(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write the registry's spans as a Chrome trace-event JSON document.

    Loadable in ``chrome://tracing`` or Perfetto.  Every span becomes a
    complete event (``ph: "X"``); registry origins map to process lanes
    (named via ``process_name`` metadata events), so engine runs show
    the main process and each shard worker side by side.  Timestamps are
    microseconds since the importing registry's wall epoch - merged
    worker spans were already re-anchored by ``merge_snapshot``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    records = registry.span_records()
    origins: List[str] = []
    for origin, _name, _start, _duration, _attrs in records:
        if origin not in origins:
            origins.append(origin)
    lanes = {origin: index for index, origin in enumerate(sorted(origins))}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": lane,
            "tid": 0,
            "args": {"name": origin},
        }
        for origin, lane in sorted(lanes.items())
    ]
    for origin, name, start, duration, attrs in records:
        events.append(
            {
                "name": name,
                "cat": "span",
                "ph": "X",
                "pid": lanes[origin],
                "tid": 0,
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "args": dict(attrs),
            }
        )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"origin": registry.origin, "schema": METRICS_SCHEMA_VERSION},
    }
    target.write_text(json.dumps(document, sort_keys=True) + "\n")
    return target
