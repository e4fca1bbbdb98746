"""Sharded, resumable execution engine for million-event streaming runs.

The engine scales the streaming evaluation past what one process and one
pass can hold: a :class:`~repro.engine.sharding.StreamSharder` partitions
any registered stream scenario into thread-affine shards,
:func:`~repro.engine.sharding.plan_shard_groups` deals the shards into
``workers`` contiguous :class:`~repro.engine.sharding.ShardGroup`\\ s,
and :func:`~repro.engine.runner.run_shard_group` drives each group
through ONE stream pass - in-process, or on a persistent spawn
:class:`~repro.engine.executor.WorkerPool`.  Each shard's metrics travel
as mergeable :class:`~repro.engine.results.PartialResult` objects, and
chunk-boundary checkpoints (:mod:`repro.engine.checkpoint`) make
interrupted runs resumable.  ``python -m repro engine run`` is the CLI
surface; :func:`~repro.engine.runner.run_engine` is the library one.

The load-bearing guarantee, asserted by the test suite: a run's merged
result is a pure function of its :class:`~repro.engine.runner.EngineConfig`
- bit-identical across ``workers`` counts, pipelines, backends, and
interrupt/resume cycles.
"""

from repro.engine.checkpoint import EngineCheckpointManager, ShardCheckpoint
from repro.engine.executor import WorkerPool
from repro.engine.results import (
    EngineResult,
    PartialResult,
    SeriesFragment,
    merge_partials,
)
from repro.engine.runner import (
    EngineConfig,
    EngineInterrupted,
    run_engine,
    run_shard_group,
    run_shard_group_task,
)
from repro.engine.sharding import (
    HASH,
    ROUND_ROBIN,
    STRATEGIES,
    ShardGroup,
    StreamSharder,
    plan_shard_groups,
)
from repro.online.simulator import OFFLINE_LABEL

__all__ = [
    "EngineCheckpointManager",
    "EngineConfig",
    "EngineInterrupted",
    "EngineResult",
    "HASH",
    "OFFLINE_LABEL",
    "PartialResult",
    "ROUND_ROBIN",
    "STRATEGIES",
    "SeriesFragment",
    "ShardCheckpoint",
    "ShardGroup",
    "StreamSharder",
    "WorkerPool",
    "merge_partials",
    "plan_shard_groups",
    "run_engine",
    "run_shard_group",
    "run_shard_group_task",
]
