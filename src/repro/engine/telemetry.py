"""Cross-process telemetry plumbing for the sharded engine.

Engine workers are spawned processes: the parent's installed
:class:`~repro.obs.registry.MetricsRegistry` does not exist over there,
and nothing about worker scheduling may leak into the merged telemetry
(the same discipline the result merge follows).  The bridge:

* :func:`run_shard_group_task_with_metrics` wraps the shard-group task.
  It installs a fresh registry per group, runs the group, restores
  whatever was installed before, and returns the partials *plus* a
  picklable snapshot of everything the group observed.  Because the
  wrapper runs identically in-process (one worker) and in a pool
  worker, the merged counters are independent of the worker count -
  only the latencies themselves differ.
* :func:`absorb_snapshots` folds the snapshots into the parent registry
  in the order given; :func:`~repro.engine.runner.run_engine` passes
  them in group (hence shard-id) order, mirroring the result merge tree.

This module is the engine's one sanctioned reader of telemetry state:
lint rule C206 forbids snapshot/merge calls in result-path modules and
exempts exactly this file (see ``TELEMETRY_BRIDGE_MODULES`` in
:mod:`repro.lint.contracts`).  The exemption is safe because nothing
here feeds a value derived from telemetry back into the shard run - the
snapshot is taken after ``run_shard_group`` returns and travels strictly
outward.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.engine.results import PartialResult
from repro.engine.runner import EngineConfig, run_shard_group
from repro.obs.registry import MetricsRegistry, MetricsSnapshot, install

__all__ = [
    "absorb_snapshots",
    "run_shard_group_task_with_metrics",
]


def run_shard_group_task_with_metrics(
    task: Tuple[EngineConfig, Tuple[int, ...]],
) -> Tuple[Dict[int, PartialResult], MetricsSnapshot]:
    """Run one shard group under a fresh registry; return both outputs.

    Module-level and picklable, so the pool can ship it by name.  One
    registry per *group task* (origin ``shards-A-B``, or ``shard-A`` for
    a one-shard group), because the group - not the shard - is the unit
    a worker executes.  The previous registry (the parent's, in-process;
    ``None`` in a spawned worker) is restored in a ``finally`` so an
    interrupt cannot leave group telemetry installed.  All
    per-shard series (``engine.shard[i].*`` gauges, per-shard chunk
    spans) still land inside it keyed by shard id, so absorbing group
    snapshots in group order yields shard telemetry in shard-id order -
    groups are contiguous and ascending by construction.
    """
    config, shard_ids = task
    first, last = shard_ids[0], shard_ids[-1]
    origin = f"shard-{first}" if first == last else f"shards-{first}-{last}"
    registry = MetricsRegistry(origin=origin)
    previous = install(registry)
    try:
        partials = run_shard_group(config, shard_ids)
    finally:
        install(previous)
    return partials, registry.snapshot()


def absorb_snapshots(
    registry: MetricsRegistry, snapshots: Iterable[MetricsSnapshot]
) -> None:
    """Fold worker snapshots into ``registry`` in the order given.

    The caller fixes the order (the engine uses shard-id order), so the
    combined registry - like the merged result - never depends on which
    worker finished first.
    """
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
