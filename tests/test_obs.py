"""Tests for the telemetry layer: registry, merging, exporters, identity.

The load-bearing property is the last test class: fingerprints must be
*bit-identical* with and without an installed registry, across every
pipeline/backend/workers combination - telemetry is observed, never
observed-from.  Everything else (counter arithmetic, snapshot merging,
the three export formats) supports that contract's operator surface.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.cli import main
from repro.computation.streams import epoch_marker, thread_churn_stream
from repro.core.kernel import numpy_available
from repro.engine import EngineConfig, run_engine
from repro.obs import (
    HISTOGRAM_COMPRESSION,
    MetricsRegistry,
    active,
    disable,
    enable,
    install,
    span,
)
from repro.obs.exporters import (
    METRICS_SCHEMA_VERSION,
    format_summary,
    metrics_document,
    write_chrome_trace,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.registry import NULL_SPAN
from repro.online import compare_mechanisms_on_stream, seed_mechanism_factories


@pytest.fixture(autouse=True)
def no_leaked_registry():
    """Every test starts and ends with telemetry disabled."""
    previous = install(None)
    yield
    install(previous)


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counters_accumulate_and_default_to_zero(self):
        registry = MetricsRegistry()
        assert registry.counter_value("engine.chunks") == 0
        registry.add("engine.chunks")
        registry.add("engine.chunks", 4)
        assert registry.counter_value("engine.chunks") == 5
        assert registry.counters() == {"engine.chunks": 5}

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("engine.workers", 2)
        registry.gauge("engine.workers", 4)
        assert registry.gauge_value("engine.workers") == 4.0
        assert registry.gauge_value("missing", -1.0) == -1.0

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("latency", float(value))
        assert registry.percentile("latency", 50.0) == pytest.approx(50.5, abs=2.0)
        assert registry.percentile("latency", 99.0) == pytest.approx(99.0, abs=2.0)
        assert registry.percentile("missing", 50.0) is None

    def test_span_records_name_attrs_and_duration(self):
        registry = MetricsRegistry(origin="test")
        with registry.span("work", shard=3, pipeline="batched") as timer:
            pass
        assert timer.duration >= 0.0
        ((origin, name, start, duration, attrs),) = registry.span_records()
        assert (origin, name) == ("test", "work")
        assert duration == timer.duration
        assert start >= 0.0
        assert attrs == (("pipeline", "batched"), ("shard", 3))
        assert registry.span_totals() == {"work": (1, duration, duration)}

    def test_sorted_read_views(self):
        registry = MetricsRegistry()
        registry.add("b")
        registry.add("a")
        registry.gauge("z", 1)
        registry.gauge("y", 2)
        registry.observe("n", 1.0)
        registry.observe("m", 2.0)
        assert list(registry.counters()) == ["a", "b"]
        assert list(registry.gauges()) == ["y", "z"]
        assert [name for name, _ in registry.histograms()] == ["m", "n"]


class TestInstallation:
    def test_install_returns_previous(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        assert install(first) is None
        assert active() is first
        assert install(second) is first
        assert disable() is second
        assert active() is None

    def test_enable_defaults_to_fresh_registry(self):
        registry = enable()
        assert active() is registry
        assert isinstance(registry, MetricsRegistry)

    def test_module_helpers_write_to_installed(self):
        registry = enable()
        from repro import obs

        obs.add("hits", 2)
        obs.gauge("level", 7)
        obs.observe("lat", 0.5)
        with obs.span("step"):
            pass
        assert registry.counter_value("hits") == 2
        assert registry.gauge_value("level") == 7.0
        assert registry.histogram("lat").count == 1
        assert len(registry.span_records()) == 1


# ---------------------------------------------------------------------------
# Disabled mode: the default must cost (almost) nothing
# ---------------------------------------------------------------------------
class TestDisabledMode:
    def test_span_returns_shared_null_span(self):
        assert span("anything", k=1) is NULL_SPAN
        assert span("other") is NULL_SPAN
        with span("nested") as timer:
            assert timer is NULL_SPAN
        assert NULL_SPAN.duration == 0.0

    def test_helpers_are_noops(self):
        from repro import obs

        obs.add("never", 10)
        obs.gauge("never", 1.0)
        obs.observe("never", 1.0)
        registry = enable()
        assert registry.counter_value("never") == 0

    def test_disabled_write_loop_is_cheap(self):
        # A smoke bound, not a benchmark: 100k no-op observations must
        # finish in well under a second even on a loaded CI core.
        from time import perf_counter

        from repro import obs

        start = perf_counter()
        for _ in range(100_000):
            obs.add("hot.counter")
        assert perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Snapshots and merging (the spawn-worker protocol)
# ---------------------------------------------------------------------------
class TestSnapshotMerge:
    def test_snapshot_is_picklable(self):
        registry = MetricsRegistry(origin="shard-0")
        registry.add("events", 3)
        registry.observe("lat", 0.25)
        with registry.span("chunk", shard=0):
            pass
        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        assert snapshot.origin == "shard-0"
        assert snapshot.counters == {"events": 3}
        assert snapshot.histograms["lat"].count == 1
        assert len(snapshot.spans) == 1

    def test_counters_sum_and_gauges_overwrite(self):
        parent = MetricsRegistry()
        parent.add("events", 5)
        parent.gauge("engine.shard[0].inserts", 10)
        worker = MetricsRegistry(origin="shard-1")
        worker.add("events", 7)
        worker.gauge("engine.shard[1].inserts", 20)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("events") == 12
        assert parent.gauge_value("engine.shard[0].inserts") == 10.0
        assert parent.gauge_value("engine.shard[1].inserts") == 20.0

    def test_histogram_merge_matches_single_registry(self):
        # Sketch-merge correctness: percentiles of the merged histogram
        # equal those of one registry that observed the union directly
        # (QuantileSketch.merge is exact for these sizes).
        low = [float(v) for v in range(100)]
        high = [float(v) for v in range(100, 200)]
        left = MetricsRegistry(origin="shard-0")
        right = MetricsRegistry(origin="shard-1")
        combined = MetricsRegistry()
        for value in low:
            left.observe("lat", value)
            combined.observe("lat", value)
        for value in high:
            right.observe("lat", value)
            combined.observe("lat", value)
        parent = MetricsRegistry()
        parent.merge_snapshot(left.snapshot())
        parent.merge_snapshot(right.snapshot())
        assert parent.histogram("lat").count == 200
        for p in (50.0, 90.0, 99.0):
            assert parent.percentile("lat", p) == pytest.approx(
                combined.percentile("lat", p), rel=0.05
            )

    def test_merged_spans_keep_origin_and_reanchor(self):
        parent = MetricsRegistry(origin="main")
        worker = MetricsRegistry(origin="shard-2")
        with worker.span("chunk"):
            pass
        parent.merge_snapshot(worker.snapshot())
        ((origin, name, start, _duration, _attrs),) = parent.span_records()
        assert (origin, name) == ("shard-2", "chunk")
        # Re-anchored onto the parent's timeline via the wall epochs: the
        # worker was created after the parent, so its spans cannot land
        # noticeably before the parent's epoch.
        assert start > -1.0

    def test_merge_requires_shared_compression(self):
        # All registries share HISTOGRAM_COMPRESSION by construction;
        # this pins the constant the merge contract relies on.
        registry = MetricsRegistry()
        registry.observe("lat", 1.0)
        assert registry.histogram("lat").compression == HISTOGRAM_COMPRESSION


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def populated_registry():
    registry = MetricsRegistry(origin="main")
    registry.add("kernel.batch.array_events", 80)
    registry.add("kernel.batch.python_events", 20)
    registry.gauge("engine.workers", 2)
    for value in range(1, 11):
        registry.observe("engine.chunk_s", value / 10.0)
    with registry.span("engine.map", workers=2):
        pass
    worker = MetricsRegistry(origin="shard-0")
    with worker.span("engine.chunk", shard=0):
        pass
    registry.merge_snapshot(worker.snapshot())
    return registry


class TestExporters:
    def test_metrics_document_shape_and_derived(self):
        document = metrics_document(populated_registry())
        assert document["schema"] == METRICS_SCHEMA_VERSION
        assert document["counters"]["kernel.batch.array_events"] == 80
        assert document["derived"]["kernel_array_path_share"] == pytest.approx(0.8)
        row = document["histograms"]["engine.chunk_s"]
        assert row["count"] == 10
        assert row["min"] == pytest.approx(0.1)
        assert row["max"] == pytest.approx(1.0)
        assert row["p50"] is not None and row["p99"] is not None
        assert document["spans"]["engine.map"]["count"] == 1

    def test_derived_ratios_null_when_unobserved(self):
        document = metrics_document(MetricsRegistry())
        assert document["derived"]["kernel_array_path_share"] is None

    def test_metrics_json_round_trip(self, tmp_path):
        registry = populated_registry()
        path = write_metrics_json(registry, tmp_path / "metrics.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(metrics_document(registry)))

    def test_spans_jsonl_parses_line_by_line(self, tmp_path):
        registry = populated_registry()
        path = write_spans_jsonl(registry, tmp_path / "metrics.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == METRICS_SCHEMA_VERSION
        kinds = {record["type"] for record in records}
        assert kinds == {"meta", "counter", "gauge", "histogram", "span"}
        spans = [record for record in records if record["type"] == "span"]
        assert {record["origin"] for record in spans} == {"main", "shard-0"}

    def test_chrome_trace_round_trip(self, tmp_path):
        registry = populated_registry()
        path = write_chrome_trace(registry, tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        lanes = {
            event["args"]["name"]: event["pid"]
            for event in events
            if event["ph"] == "M"
        }
        assert set(lanes) == {"main", "shard-0"}
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} == {
            "engine.map",
            "engine.chunk",
        }
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["pid"] in lanes.values()

    def test_format_summary_sections_and_empty_placeholder(self):
        text = format_summary(populated_registry())
        for section in ("counters:", "gauges:", "histograms", "spans:"):
            assert section in text
        assert format_summary(MetricsRegistry()) == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# The contract: telemetry never moves a fingerprint
# ---------------------------------------------------------------------------
BASE_CONFIG = EngineConfig(
    scenario="thread-churn",
    num_threads=16,
    num_objects=24,
    density=0.25,
    num_events=600,
    seed=8_100,
    num_shards=3,
    chunk_size=150,
    mechanisms=("naive", "popularity"),
    include_offline=True,
    timestamps=True,
)

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())


class TestFingerprintIdentity:
    @pytest.mark.parametrize("pipeline", ["per-event", "batched"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_metrics_on_off_identical(self, pipeline, backend, workers):
        config = dataclasses.replace(
            BASE_CONFIG, pipeline=pipeline, backend=backend, workers=workers
        )
        baseline = run_engine(config)
        registry = enable(MetricsRegistry(origin="engine"))
        try:
            instrumented = run_engine(config)
        finally:
            disable()
        assert instrumented.fingerprint() == baseline.fingerprint()
        assert instrumented.partial == baseline.partial
        # The run must actually have been observed, not silently skipped.
        assert registry.counter_value("engine.chunks") > 0

    def test_simulator_results_ignore_telemetry(self):
        events = list(thread_churn_stream(10, 12, 0.3, 400, seed=3))
        events[150:150] = [epoch_marker()]

        def simulate():
            factories = seed_mechanism_factories(
                {
                    label: EXTENDED_MECHANISMS[label]
                    for label in ("naive", "adaptive-popularity")
                },
                11,
            )
            return compare_mechanisms_on_stream(events, factories, epoch=50)

        baseline = simulate()
        registry = enable(MetricsRegistry(origin="simulator"))
        try:
            instrumented = simulate()
        finally:
            disable()
        assert instrumented == baseline
        assert any(event.is_expire for event in events)
        assert registry.counter_value("sharder.shard[0].events") == len(events)

    def test_telemetry_is_jobs_independent(self):
        # Counters describe the logical run, not the physical schedule:
        # in-process and pooled executions observe identical counts.
        def counters_for(workers):
            registry = enable(MetricsRegistry(origin="engine"))
            try:
                run_engine(dataclasses.replace(BASE_CONFIG, workers=workers))
            finally:
                disable()
            return registry.counters()

        assert counters_for(1) == counters_for(2) == counters_for(3)

    def test_per_shard_event_counters_cover_the_stream(self):
        registry = enable(MetricsRegistry(origin="engine"))
        try:
            result = run_engine(BASE_CONFIG)
        finally:
            disable()
        shard_events = sum(
            registry.counter_value(f"sharder.shard[{shard}].events")
            for shard in range(BASE_CONFIG.num_shards)
        )
        assert shard_events >= result.inserts + result.expires
        for shard in range(BASE_CONFIG.num_shards):
            assert registry.gauge_value(f"engine.shard[{shard}].inserts") > 0


# ---------------------------------------------------------------------------
# CLI surface: --metrics/--trace/--metrics-log end to end
# ---------------------------------------------------------------------------
class TestCliExports:
    def test_engine_run_writes_all_exports(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        log = tmp_path / "metrics.jsonl"
        assert (
            main(
                [
                    "engine",
                    "run",
                    "--scenario",
                    "thread-churn",
                    "--events",
                    "400",
                    "--shards",
                    "2",
                    "--chunk-size",
                    "100",
                    "--timestamps",
                    "--metrics",
                    str(metrics),
                    "--trace",
                    str(trace),
                    "--metrics-log",
                    str(log),
                ]
            )
            == 0
        )
        document = json.loads(metrics.read_text())
        assert "kernel_array_path_share" in document["derived"]
        assert document["counters"]["engine.chunks"] > 0
        assert any(
            name.startswith("sharder.shard[") for name in document["counters"]
        )
        assert json.loads(trace.read_text())["traceEvents"]
        assert log.read_text().splitlines()

    def test_sweep_ratio_metrics_export(self, tmp_path):
        metrics = tmp_path / "sweep_metrics.json"
        assert (
            main(
                [
                    "sweep",
                    "ratio",
                    "--scenario",
                    "thread-churn",
                    "--events",
                    "120",
                    "--trials",
                    "1",
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        document = json.loads(metrics.read_text())
        assert "sweep.trials" in document["spans"]
