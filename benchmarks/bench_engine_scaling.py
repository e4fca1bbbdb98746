"""Extra experiment E9: sharded engine throughput vs worker-pool size.

The ROADMAP's scaling item asks for a benchmark that pushes the dynamic
streaming machinery to millions of events; this is it.  One thread-churn
configuration (1.2M inserts in the full run, shrunken under ``--smoke``)
is executed at increasing ``workers`` pool sizes (one shard group and
one stream pass per worker); the table reports events/sec per leg plus
the speedup over ``workers=1``, which runs every shard down ONE pass
in-process (no spawn at all).  Larger pools trade extra passes for CPU
parallelism.

Every leg must produce a bit-identical merged result (the engine's
central determinism contract; the fingerprint is the proof).  Below
:data:`SPEEDUP_FLOOR` inserts per shard (the smoke run), fixed costs
dominate, so the leg records ``spawn_dominated: true`` in its JSON (the
perf-trajectory collector drops such runs from speedup plots).

The ``metrics`` block of ``BENCH_engine_scaling.json`` comes from one
extra instrumented pass at the best pooled size: per-worker stream
generation time (``engine.stream_gen_s``), task queue wait
(``pool.task_wait_s``), spawn latency (``pool.worker_spawn_s``) and the
final task distribution (``pool.tasks_per_worker``), so the spawn
amortisation is visible in the artifact, not just in this docstring.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.engine import EngineConfig, run_engine
from repro.obs.exporters import metrics_document
from repro.obs.registry import MetricsRegistry, install as obs_install

from _common import (
    ENGINE_CHUNK,
    ENGINE_EVENTS,
    ENGINE_NODES,
    ENGINE_SHARDS,
    ENGINE_WORKERS,
)

#: Minimum inserts per shard for speedup numbers to mean anything: below
#: this, worker spawn + the per-pass fixed cost exceed the clock work
#: itself, so the ratio measures overhead, not scaling.  The floor is
#: deliberately far above the smoke scale (2k/4 shards = 500) and far
#: below the full scale (1.2M/8 = 150k).
SPEEDUP_FLOOR = 10_000

CONFIG = EngineConfig(
    scenario="thread-churn",
    num_threads=ENGINE_NODES,
    num_objects=2 * ENGINE_NODES,
    density=0.1,
    num_events=ENGINE_EVENTS,
    seed=9_200,
    num_shards=ENGINE_SHARDS,
    chunk_size=ENGINE_CHUNK,
)


def _timed_leg(label, config):
    start = time.perf_counter()
    result = run_engine(config)
    return label, time.perf_counter() - start, result


def _instrumented_metrics(workers: int) -> dict:
    """One extra pass with telemetry installed; its metrics document.

    Separate from the timed legs on purpose: the published rates stay
    telemetry-free, and the instrumented pass exists only to capture the
    pool/stream observations (spawn latency, queue wait, per-worker
    stream-generation time) into the JSON artifact.
    """
    registry = MetricsRegistry(origin="bench-engine-scaling")
    previous = obs_install(registry)
    try:
        run_engine(replace(CONFIG, workers=workers))
    finally:
        obs_install(previous)
    return metrics_document(registry)


@pytest.mark.benchmark(group="engine-scaling")
def test_engine_scaling_events_per_second(benchmark, record_table, record_json):
    def run_all():
        return [
            _timed_leg(f"workers={workers}", replace(CONFIG, workers=workers))
            for workers in ENGINE_WORKERS
        ]

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    fingerprints = {result.fingerprint() for _, _, result in runs}
    assert len(fingerprints) == 1, "the worker count changed the merged metrics"

    reference = runs[0][2]
    assert reference.inserts == ENGINE_EVENTS
    for label in CONFIG.mechanisms:
        pooled = reference.pooled_ratios(label)
        assert pooled.count == sum(
            fragment.ratios.count
            for (_, lbl), fragment in reference.partial.series.items()
            if lbl == label
        )
        assert pooled.minimum >= 1.0 - 1e-9  # online never beats the optimum
        for shard in reference.partial.shard_ids():
            assert reference.partial.fragment(shard, label).samples

    one_worker_elapsed = runs[0][1]
    per_shard_inserts = ENGINE_EVENTS // ENGINE_SHARDS
    spawn_dominated = per_shard_inserts < SPEEDUP_FLOOR
    cpu_count = os.cpu_count() or 1
    lines = [
        f"scenario: thread-churn  inserts: {ENGINE_EVENTS:,}  "
        f"shards: {ENGINE_SHARDS}  chunk: {ENGINE_CHUNK:,}  "
        f"nodes: {ENGINE_NODES}+{2 * ENGINE_NODES}  cpus: {cpu_count}"
        + ("  [spawn-dominated: speedups are overhead]" if spawn_dominated else ""),
        f"fingerprint (identical for every leg): "
        f"{reference.fingerprint()[:16]}...",
        "",
        f"{'leg':>10}  {'seconds':>8}  {'events/s':>10}  {'speedup':>7}",
    ]
    total_events = reference.inserts + reference.expires
    for label, elapsed, _ in runs:
        rate = total_events / elapsed if elapsed else float("inf")
        lines.append(
            f"{label:>10}  {elapsed:>8.2f}  {rate:>10,.0f}  "
            f"{one_worker_elapsed / elapsed if elapsed else float('inf'):>6.2f}x"
        )
    record_table("engine_scaling", "\n".join(lines))
    speedups = {
        label: (one_worker_elapsed / elapsed if elapsed else None)
        for label, elapsed, _ in runs
    }
    worker_speedups = {
        workers: speedups[f"workers={workers}"] for workers in ENGINE_WORKERS
    }
    best_workers = max(worker_speedups, key=lambda w: worker_speedups[w])
    # Instrument the best *pooled* leg (workers > 1) even when workers=1
    # won the race: the metrics block exists to expose the pool's spawn
    # amortisation, and an in-process pass has no pool to observe.
    pooled = [workers for workers in ENGINE_WORKERS if workers > 1]
    metrics_workers = (
        max(pooled, key=lambda w: worker_speedups[w]) if pooled else best_workers
    )
    metrics = _instrumented_metrics(metrics_workers)
    record_json(
        "engine_scaling",
        {
            "scenario": "thread-churn",
            "inserts": ENGINE_EVENTS,
            "total_events": total_events,
            "shards": ENGINE_SHARDS,
            "per_shard_inserts": per_shard_inserts,
            "spawn_dominated": spawn_dominated,
            "workers_swept": list(ENGINE_WORKERS),
            "best_workers": best_workers,
            "metrics_workers": metrics_workers,
            "events_per_second": {
                label: (total_events / elapsed if elapsed else None)
                for label, elapsed, _ in runs
            },
            "speedup_vs_one_worker": speedups,
            "fingerprint": reference.fingerprint(),
        },
        metrics=metrics,
    )
