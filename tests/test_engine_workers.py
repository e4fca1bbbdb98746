"""Tests for the worker-pooled engine: shard groups, the pool, identity.

The engine's one schedule rearranges *where* shards run - contiguous
shard groups, one stream pass per worker - without being allowed to
touch *what* they compute.  These tests attack that boundary from every
layer:

* :func:`plan_shard_groups` / :class:`ShardGroup` - the deterministic
  balanced partition whose flattening must recover shard-id order;
* :meth:`StreamSharder.split_runs_group` - the one-pass router, checked
  event-for-event against independent single-shard passes, including epoch-broadcast copy-position skip arithmetic (the
  "resume mid-epoch" regression the ISSUE suspected of double-counting);
* :class:`WorkerPool` - task order, exception transport (original type
  preserved across the process boundary), dead-worker detection;
* ``run_engine(workers=w)`` - the hypothesis property that every
  registered stream scenario, on every available kernel backend, merges
  to a fingerprint bit-identical to one worker for any pool size, plus
  interrupt/resume cycles that *cross* worker counts (checkpoint written
  at ``workers=4``, resumed at ``workers=1``, and the reverse);
* the CLI ``--workers`` surface and the telemetry invariants (counters
  identical across worker counts; pool gauges present).
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.computation.registry import REGISTRY, STREAM
from repro.computation.streams import EXPIRE, StreamEvent, epoch_marker
from repro.core.kernel import numpy_available
from repro.engine import (
    EngineConfig,
    EngineInterrupted,
    ShardGroup,
    StreamSharder,
    WorkerPool,
    plan_shard_groups,
    run_engine,
    run_shard_group,
)
from repro.engine.results import merge_partials
from repro.engine.sharding import ExpireRun
from repro.exceptions import EngineError
from repro.obs.registry import MetricsRegistry, disable, enable
from repro.seeds import stable_hash

SCENARIOS = REGISTRY.names(STREAM)
BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())


# ---------------------------------------------------------------------------
# plan_shard_groups / ShardGroup
# ---------------------------------------------------------------------------
class TestPlanShardGroups:
    @given(num_shards=st.integers(1, 64), workers=st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_plan_partitions_shards_exactly(self, num_shards, workers):
        groups = plan_shard_groups(num_shards, workers)
        flattened = [
            shard_id for group in groups for shard_id in group.shard_ids
        ]
        # Flattening in group-id order recovers shard-id order exactly -
        # the property the engine's merge tree depends on.
        assert flattened == list(range(num_shards))
        assert [group.group_id for group in groups] == list(range(len(groups)))
        assert len(groups) == min(workers, num_shards)
        sizes = [len(group.shard_ids) for group in groups]
        assert max(sizes) - min(sizes) <= 1
        # Oversized groups come first (the deal is deterministic).
        assert sizes == sorted(sizes, reverse=True)

    def test_plan_is_deterministic(self):
        assert plan_shard_groups(8, 3) == plan_shard_groups(8, 3)
        assert plan_shard_groups(8, 3) == (
            ShardGroup(0, (0, 1, 2)),
            ShardGroup(1, (3, 4, 5)),
            ShardGroup(2, (6, 7)),
        )

    def test_workers_above_shards_clamp(self):
        groups = plan_shard_groups(3, 9)
        assert len(groups) == 3
        assert all(len(group.shard_ids) == 1 for group in groups)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(EngineError):
            plan_shard_groups(0, 2)
        with pytest.raises(EngineError):
            plan_shard_groups(4, 0)

    def test_shard_group_validates_ids(self):
        with pytest.raises(EngineError):
            ShardGroup(0, ())
        with pytest.raises(EngineError):
            ShardGroup(0, (2, 1))
        with pytest.raises(EngineError):
            ShardGroup(0, (1, 1))


# ---------------------------------------------------------------------------
# split_runs_group vs independent single-shard passes
# ---------------------------------------------------------------------------
def _solo_pass(sharder, events, shard_id, cap, skip=0):
    """One shard's ``(consumed, item)`` sequence from a pass of its own."""
    return [
        (consumed, item)
        for _, consumed, item in sharder.split_runs_group(
            events, (shard_id,), {shard_id: lambda: cap}, {shard_id: skip}
        )
    ]


def _stream_events(draw_ops):
    """Materialise op tuples into stream events."""
    events = []
    for op in draw_ops:
        if op[0] == "epoch":
            events.append(epoch_marker())
        elif op[0] == "expire":
            events.append(StreamEvent(f"T{op[1]}", f"O{op[2]}", EXPIRE))
        else:
            events.append(StreamEvent(f"T{op[1]}", f"O{op[2]}"))
    return events


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("expire"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("epoch")),
    ),
    max_size=60,
)


class TestSplitRunsGroup:
    @given(
        ops=_ops,
        num_shards=st.integers(1, 5),
        cap=st.integers(1, 7),
        strategy=st.sampled_from(["hash", "round-robin"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_group_pass_matches_single_shard_passes(
        self, ops, num_shards, cap, strategy
    ):
        # A group pass over ALL shards must yield, per shard, exactly the
        # (consumed, item) sequence a dedicated one-shard pass yields -
        # same run boundaries, same counts.  Fresh sharders per pass:
        # round-robin is stateful.
        events = _stream_events(ops)
        owned = tuple(range(num_shards))
        grouped = {shard_id: [] for shard_id in owned}
        group_sharder = StreamSharder(num_shards, strategy)
        for shard_id, consumed, item in group_sharder.split_runs_group(
            events, owned, {shard_id: (lambda: cap) for shard_id in owned}
        ):
            grouped[shard_id].append((consumed, item))
        for shard_id in owned:
            solo = _solo_pass(
                StreamSharder(num_shards, strategy), events, shard_id, cap
            )
            assert grouped[shard_id] == solo, f"shard {shard_id} diverged"

    @given(
        ops=_ops,
        num_shards=st.integers(1, 4),
        cap=st.integers(1, 7),
        skip=st.integers(0, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_skip_matches_single_shard_skip(
        self, ops, num_shards, cap, skip
    ):
        events = _stream_events(ops)
        owned = tuple(range(num_shards))
        # Tagged length bounds the valid skips; oversize must raise on
        # both paths identically.
        tagged = len(list(StreamSharder(num_shards).split(events)))
        skips = {shard_id: min(skip, tagged) for shard_id in owned}
        grouped = {shard_id: [] for shard_id in owned}
        for shard_id, consumed, item in StreamSharder(
            num_shards
        ).split_runs_group(
            events,
            owned,
            {shard_id: (lambda: cap) for shard_id in owned},
            skips,
        ):
            grouped[shard_id].append((consumed, item))
        for shard_id in owned:
            solo = _solo_pass(
                StreamSharder(num_shards), events, shard_id, cap, skips[shard_id]
            )
            assert grouped[shard_id] == solo

    @given(
        ops=_ops,
        num_shards=st.integers(1, 4),
        cap=st.integers(1, 7),
        expire_cap=st.integers(1, 4),
        strategy=st.sampled_from(["hash", "round-robin"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_shard_gets_its_sub_stream_in_order(
        self, ops, num_shards, cap, expire_cap, strategy
    ):
        # Against a router written here: flattening a shard's runs must
        # give its sub-stream (its threads' events, every marker) in
        # order.  Insert runs are lists of at most ``cap`` pairs, expire
        # runs ExpireRuns of at most ``expire_cap``; an expire run
        # reports the tagged position of its last expire, a marker the
        # position after its broadcast.
        events = _stream_events(ops)
        assignment = {}
        expected = {shard_id: [] for shard_id in range(num_shards)}
        position = 0
        for event in events:
            if event.kind == "epoch":
                position += num_shards
                for shard_id in expected:
                    expected[shard_id].append((event.kind, None, position))
                continue
            position += 1
            if strategy == "hash":
                shard = stable_hash(event.thread) % num_shards
            else:
                shard = assignment.setdefault(event.thread, len(assignment) % num_shards)
            expected[shard].append((event.kind, event.pair, position))
        owned = tuple(range(num_shards))
        delivered = {shard_id: [] for shard_id in owned}
        ends = {}
        for shard_id, consumed, item in StreamSharder(num_shards, strategy).split_runs_group(
            events, owned, {shard_id: (lambda: cap) for shard_id in owned},
            expire_cap=expire_cap,
        ):
            assert shard_id not in ends, "an item after the end tick"
            if item is None:
                ends[shard_id] = consumed
            elif type(item) is list:
                assert 0 < len(item) <= cap
                delivered[shard_id].extend(("insert", pair, None) for pair in item)
            elif type(item) is ExpireRun:
                assert 0 < len(item) <= expire_cap
                delivered[shard_id].extend(("expire", pair, None) for pair in item)
                last = len(delivered[shard_id]) - 1
                assert consumed == expected[shard_id][last][2]
            else:
                assert item == epoch_marker()
                delivered[shard_id].append(("epoch", None, consumed))
        assert ends == {shard_id: position for shard_id in owned}
        for shard_id in owned:
            assert [(kind, pair) for kind, pair, _ in delivered[shard_id]] == [
                (kind, pair) for kind, pair, _ in expected[shard_id]
            ]
            assert [at for kind, _, at in delivered[shard_id] if kind == "epoch"] == [
                at for kind, _, at in expected[shard_id] if kind == "epoch"
            ]

    def test_expire_run_reports_its_last_expire(self):
        # Shard 0's expire run is cut by its next insert, two tagged
        # events after its last expire: it still reports that expire's
        # position, as one yield per expire would.
        sharder = StreamSharder(2)
        threads = [f"T{index}" for index in range(20)]
        mine = next(thread for thread in threads if sharder.shard_of(thread) == 0)
        other = next(thread for thread in threads if sharder.shard_of(thread) == 1)
        events = [
            StreamEvent(mine, "O0"),
            StreamEvent(mine, "O0", EXPIRE),
            StreamEvent(other, "O1"),
            StreamEvent(other, "O1"),
            StreamEvent(mine, "O2"),
        ]
        delivered = [
            (consumed, item)
            for shard_id, consumed, item in sharder.split_runs_group(
                events, (0,), {0: (lambda: 1)}
            )
        ]
        assert delivered == [
            (1, [(mine, "O0")]),
            (2, [(mine, "O0")]),
            (5, [(mine, "O2")]),
            (5, None),
        ]
        assert type(delivered[1][1]) is ExpireRun

    def test_mid_epoch_skip_uses_per_shard_copy_positions(self):
        # The regression the ISSUE suspected: a resume whose skip lands
        # *inside* an epoch broadcast must deliver the marker only to the
        # shards whose own copy position lies beyond their skip - not
        # re-deliver (double-count) it to shards already past theirs.
        # With 3 shards, the marker after one insert occupies tagged
        # positions 2, 3, 4 (copy of shard 0, 1, 2).  A skip of 3 covers
        # shard 0's and shard 1's copies but not shard 2's.
        events = [StreamEvent("T0", "O0"), epoch_marker()]
        sharder = StreamSharder(3)
        insert_shard = sharder.shard_of("T0")
        caps = {shard_id: (lambda: 10) for shard_id in range(3)}
        out = {shard_id: [] for shard_id in range(3)}
        for shard_id, consumed, item in StreamSharder(3).split_runs_group(
            events, (0, 1, 2), caps, {0: 3, 1: 3, 2: 3}
        ):
            out[shard_id].append((consumed, item))
        for shard_id in range(3):
            expected = []
            if shard_id == 2:
                # Only shard 2's copy (position 4) lies beyond skip=3.
                expected.append((4, events[1]))
            expected.append((4, None))
            assert out[shard_id] == expected, f"shard {shard_id}"
        assert insert_shard in range(3)  # the insert itself was skipped

    def test_group_validation(self):
        sharder = StreamSharder(4)
        caps = {0: (lambda: 5), 2: (lambda: 5)}
        with pytest.raises(EngineError):
            list(sharder.split_runs_group([], (), {}))
        with pytest.raises(EngineError):
            list(sharder.split_runs_group([], (2, 0), caps))
        with pytest.raises(EngineError):
            list(sharder.split_runs_group([], (0, 9), caps))
        with pytest.raises(EngineError):
            list(sharder.split_runs_group([], (0, 1), caps))  # no cap for 1

    def test_skip_beyond_stream_raises(self):
        events = [StreamEvent("T0", "O0")]
        with pytest.raises(EngineError, match="exhausted"):
            list(
                StreamSharder(2).split_runs_group(
                    events, (0, 1), {0: (lambda: 5), 1: (lambda: 5)}, {0: 0, 1: 9}
                )
            )


# ---------------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------------
def _square(value):
    return value * value


def _raise_value_error(value):
    raise ValueError(f"task {value} exploded")


def _raise_interrupt(value):
    raise EngineInterrupted(f"task {value} stopped")


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("stateful failure")
        self.lock = threading.Lock()  # defeats pickle


def _raise_unpicklable(value):
    raise _UnpicklableError()


def _exit_hard(value):
    os._exit(3)  # simulates an OOM-killed / segfaulted worker


class TestWorkerPool:
    def test_results_in_task_order(self):
        assert WorkerPool(2).map(_square, [3, 1, 4, 1, 5, 9]) == [
            9, 1, 16, 1, 25, 81,
        ]

    def test_serial_paths_take_no_pool(self):
        # workers=1 and single-task inputs run in-process (lambdas work:
        # nothing is pickled).
        assert WorkerPool(1).map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert WorkerPool(4).map(lambda x: x + 1, [7]) == [8]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EngineError):
            WorkerPool(0)

    def test_exception_type_crosses_the_process_boundary(self):
        with pytest.raises(ValueError, match="exploded"):
            WorkerPool(2).map(_raise_value_error, [0, 1])

    def test_engine_interrupted_survives_transport(self):
        # EngineInterrupted carries resume semantics run_engine's callers
        # match on; the pool must not launder it into a generic error.
        with pytest.raises(EngineInterrupted):
            WorkerPool(2).map(_raise_interrupt, [0, 1])

    def test_unpicklable_exception_degrades_with_traceback(self):
        with pytest.raises(EngineError, match="_UnpicklableError"):
            WorkerPool(2).map(_raise_unpicklable, [0, 1])

    def test_dead_worker_detected(self):
        with pytest.raises(EngineError, match="pool died"):
            WorkerPool(2).map(_exit_hard, [0, 1])


# ---------------------------------------------------------------------------
# run_engine(workers=w): the fingerprint identity property
# ---------------------------------------------------------------------------
def _config(scenario, backend, seed, **extra):
    return EngineConfig(
        scenario=scenario,
        num_threads=12,
        num_objects=12,
        density=0.15,
        num_events=360,
        seed=seed,
        num_shards=3,
        chunk_size=50,
        backend=backend,
        timestamps=True,
        **extra,
    )


_serial_fingerprints = {}


def _serial_fingerprint(config):
    key = (config.scenario, config.backend, config.seed)
    if key not in _serial_fingerprints:
        _serial_fingerprints[key] = run_engine(config).fingerprint()
    return _serial_fingerprints[key]


class TestWorkersFingerprintIdentity:
    @given(
        scenario=st.sampled_from(SCENARIOS),
        backend=st.sampled_from(BACKENDS),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**20),
    )
    # Pin every registered scenario x available backend combination so
    # the full matrix runs on every invocation, not just when hypothesis
    # happens to draw it; random examples then vary workers and seed.
    @example(scenario=SCENARIOS[0], backend=BACKENDS[0], workers=2, seed=2019)
    @example(scenario=SCENARIOS[0], backend=BACKENDS[-1], workers=3, seed=2019)
    @example(scenario=SCENARIOS[1], backend=BACKENDS[0], workers=2, seed=2019)
    @example(scenario=SCENARIOS[1], backend=BACKENDS[-1], workers=3, seed=2019)
    @example(scenario=SCENARIOS[2], backend=BACKENDS[0], workers=2, seed=2019)
    @example(scenario=SCENARIOS[2], backend=BACKENDS[-1], workers=3, seed=2019)
    @settings(max_examples=10, deadline=None)
    def test_workers_fingerprint_identical_to_serial(
        self, scenario, backend, workers, seed
    ):
        config = _config(scenario, backend, seed)
        pooled = run_engine(replace(config, workers=workers))
        assert pooled.fingerprint() == _serial_fingerprint(config)

    def test_group_partials_equal_per_shard_partials(self):
        # One level down from the fingerprint: the group task's per-shard
        # partials are the same objects a one-shard group produces.
        config = _config("thread-churn", None, 77)
        grouped = run_shard_group(config, (0, 1, 2))
        for shard_id in range(3):
            assert grouped[shard_id] == run_shard_group(config, (shard_id,))[shard_id]
        merged = merge_partials(
            [grouped[shard_id] for shard_id in range(3)]
        )
        assert merged == run_engine(config).partial

    def test_workers_above_shards_clamp_in_run_engine(self):
        config = _config("thread-churn", None, 5)
        assert (
            run_engine(replace(config, workers=9)).fingerprint()
            == _serial_fingerprint(config)
        )

    def test_invalid_workers_rejected(self):
        with pytest.raises(EngineError, match="workers"):
            run_engine(_config("thread-churn", None, 5, workers=0))


# ---------------------------------------------------------------------------
# Interrupt/resume crossing worker counts (and scheduling modes)
# ---------------------------------------------------------------------------
class TestResumeAcrossWorkerCounts:
    BASE = EngineConfig(
        scenario="phase-change",
        num_threads=14,
        num_objects=14,
        density=0.15,
        num_events=3_000,
        seed=424,
        num_shards=4,
        chunk_size=150,
        epoch_every=220,
    )

    def _reference(self):
        return run_engine(self.BASE).fingerprint()

    def test_checkpoint_at_workers_4_resumes_at_workers_1(self, tmp_path):
        interrupted = replace(
            self.BASE,
            checkpoint_dir=str(tmp_path),
            max_chunks_per_shard=1,
            workers=4,
        )
        with pytest.raises(EngineInterrupted):
            run_engine(interrupted)
        resumed = run_engine(
            replace(self.BASE, checkpoint_dir=str(tmp_path), workers=1)
        )
        assert resumed.fingerprint() == self._reference()

    def test_mid_epoch_checkpoint_resumes_across_pool_sizes(self, tmp_path):
        # The satellite regression: phase-change emits stream epoch
        # markers AND epoch_every adds shard-local ones, chunk_size does
        # not divide either interval, and the interrupted run stops each
        # shard between epoch boundaries.  If resume recomputed the
        # broadcast consumed-counts from zero (the suspected
        # double-count), the resumed shards would re-deliver or skip
        # marker copies and the fingerprint would diverge.  It does not:
        # per-shard copy positions make the arithmetic exact.
        interrupted = replace(
            self.BASE,
            checkpoint_dir=str(tmp_path),
            max_chunks_per_shard=2,
            workers=2,
        )
        with pytest.raises(EngineInterrupted):
            run_engine(interrupted)
        resumed = run_engine(
            replace(self.BASE, checkpoint_dir=str(tmp_path), workers=3)
        )
        assert resumed.fingerprint() == self._reference()

    def test_jobs_checkpoint_resumes_under_workers(self, tmp_path):
        # A checkpoint written in-process (one worker) resumes on a pool.
        interrupted = replace(
            self.BASE, checkpoint_dir=str(tmp_path), max_chunks_per_shard=1
        )
        with pytest.raises(EngineInterrupted):
            run_engine(interrupted)
        resumed = run_engine(
            replace(self.BASE, checkpoint_dir=str(tmp_path), workers=2)
        )
        assert resumed.fingerprint() == self._reference()

    def test_workers_checkpoint_resumes_under_jobs(self, tmp_path):
        # A checkpoint written on a pool resumes in-process, with every
        # shard resumed by a one-shard group of its own.
        interrupted = replace(
            self.BASE,
            checkpoint_dir=str(tmp_path),
            max_chunks_per_shard=1,
            workers=3,
        )
        with pytest.raises(EngineInterrupted):
            run_engine(interrupted)
        config = replace(self.BASE, checkpoint_dir=str(tmp_path))
        partials = [
            run_shard_group(config, (shard_id,))[shard_id]
            for shard_id in range(config.num_shards)
        ]
        assert merge_partials(partials) == run_engine(self.BASE).partial
        assert run_engine(config).fingerprint() == self._reference()


# ---------------------------------------------------------------------------
# CLI surface and telemetry invariants
# ---------------------------------------------------------------------------
class TestWorkersCli:
    ARGS = [
        "engine", "run", "--scenario", "thread-churn",
        "--events", "900", "--shards", "4", "--nodes", "16",
        "--chunk-size", "120",
    ]

    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out  # stdout is schedule-independent
        assert "workers=2" in captured.err

    def test_workers_with_jobs_fails_cleanly(self, capsys):
        # --workers is the one scheduling knob; the old --jobs is gone.
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--workers", "2", "--jobs", "2"])
        assert exit_info.value.code != 0
        assert "--jobs" in capsys.readouterr().err


class TestWorkersTelemetry:
    CONFIG = EngineConfig(
        scenario="thread-churn",
        num_threads=12,
        num_objects=12,
        density=0.15,
        num_events=600,
        seed=99,
        num_shards=4,
        chunk_size=100,
    )

    def _registry_for(self, workers, pipeline="batched"):
        registry = enable(MetricsRegistry(origin="engine"))
        try:
            run_engine(replace(self.CONFIG, workers=workers, pipeline=pipeline))
        finally:
            disable()
        return registry

    def test_counters_identical_across_scheduling_modes(self):
        # Counters describe the logical run, never the physical schedule:
        # identical across worker counts, and the per-event pipeline
        # routes the same events to the same shards.
        serial = self._registry_for(1).counters()
        assert self._registry_for(2).counters() == serial
        assert self._registry_for(4).counters() == serial
        per_event = self._registry_for(1, pipeline="per-event").counters()
        assert {
            name: value for name, value in per_event.items()
            if name.startswith("sharder.")
        } == {
            name: value for name, value in serial.items()
            if name.startswith("sharder.")
        }

    def test_pool_and_shard_telemetry_present(self):
        registry = self._registry_for(2)
        gauges = registry.gauges()
        assert gauges["pool.workers"] == 2
        assert gauges["engine.workers"] == 2
        for shard in range(self.CONFIG.num_shards):
            assert gauges[f"engine.shard[{shard}].inserts"] > 0
        histogram_names = {name for name, _ in registry.histograms()}
        assert "pool.worker_spawn_s" in histogram_names
        assert "pool.task_wait_s" in histogram_names
        assert "pool.tasks_per_worker" in histogram_names
        assert "engine.stream_gen_s" in histogram_names
