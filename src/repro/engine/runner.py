"""The sharded execution engine: chunked per-shard runs, merged results.

This is the driver that takes any registered ``stream`` scenario from
thousands of events to millions.  It runs the same
:class:`~repro.online.simulator.StreamConsumer` as the one-pass
:func:`~repro.online.simulator.compare_mechanisms_on_stream` - the
mechanisms, the dynamic optimum, the imposed window and the counter
epochs - one per shard, fed by the same router, and adds around it
only what is its own: chunks, stride sampling, ratio statistics and
sketches, stamp folding and checkpoints.  The design splits the single
pass along two axes:

* **shards** - the *logical* partition.  A
  :class:`~repro.engine.sharding.StreamSharder` routes every event by
  thread affinity to one of ``num_shards`` sub-streams, and each shard
  runs its own mechanisms and its own dynamic offline optimum over its
  sub-stream, exactly as a per-shard monitoring agent would.  Shards are
  the semantic unit: results are a function of ``num_shards``, never of
  worker count;
* **chunks** - the *checkpoint* partition.  Within a shard, inserts are
  processed ``chunk_size`` at a time; each chunk boundary freezes the
  chunk's metrics into a mergeable
  :class:`~repro.engine.results.PartialResult` and (when a checkpoint
  directory is configured) persists the shard's full consumer state, so
  an interrupted run resumes from the last completed chunk instead of
  replaying hours of matching work.

Workers never receive events over IPC.  Each task regenerates the base
stream from the run's root seed (generation is a cheap pure function of
the seed; the matching and mechanism work dominates) and routes it to
the shards it owns, which makes tasks pure functions of ``(config,
shard ids)``.

One consumer loop and one schedule:

* **one loop** - :func:`run_shard_group` consumes each owned shard's
  sub-stream as whole insert runs plus boundary events
  (:meth:`~repro.engine.sharding.StreamSharder.split_runs_group`, which
  the simulator drives over one shard with the same dispatch).
  Every insert run goes through ``_ShardRun.flush_inserts`` - the
  shard's stream consumer, then ``advance_batch`` on the timestamping
  kernels; expire runs (``StreamConsumer.expire_run``) and epoch
  markers go to the consumer directly.  An insert run's length is
  capped by ``_ShardRun.run_cap``: chunk boundaries, the consumer's own
  cap (epoch boundaries; an imposed window expires inside a run), and
  one insert under ``pipeline="per-event"``, which also stamps one
  insert at a time and caps expire runs at one pair.
  Per-event execution is a run length, not a second loop;
* **one schedule** - :func:`plan_shard_groups` deals the shards into
  ``workers`` contiguous groups, and :func:`run_engine` maps
  :func:`run_shard_group_task` over them on a
  :class:`~repro.engine.executor.WorkerPool` (in-process for one group),
  so the stream is generated and routed once per group, never once per
  shard.

Determinism contract (the one the acceptance tests assert): for a fixed
``EngineConfig``, the merged :class:`~repro.engine.results.EngineResult`
is bit-identical across ``workers`` values, pipelines, kernel backends,
and interrupt/resume cycles - checkpoints written at one worker count
resume at any other.  Every source of variation is keyed by
:func:`repro.seeds.derive_seed` paths (stream, per-shard per-mechanism
seeds), and every float accumulation follows one fixed merge tree
(chunks in order within a shard, shards in id order at the end).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import truediv
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.analysis.metrics import QuantileSketch, RunningStats
from repro.computation.registry import REGISTRY, STREAM
from repro.computation.streams import MAX_BATCH_EVENTS
from repro.core.components import ClockComponents
from repro.core.kernel import ClockKernel, resolve_backend
from repro.engine.checkpoint import EngineCheckpointManager, ShardCheckpoint
from repro.engine.executor import WorkerPool
from repro.engine.results import (
    EngineResult,
    PartialResult,
    SeriesFragment,
    merge_partials,
)
from repro.engine.sharding import (
    HASH,
    STRATEGIES,
    ExpireRun,
    StreamSharder,
    plan_shard_groups,
)
from repro.exceptions import ClockError, EngineError, ScenarioError
from repro.obs.registry import active as _metrics_active
from repro.obs.registry import span as _metrics_span
from repro.online.base import OBJECT, THREAD
from repro.online.simulator import (
    OFFLINE_LABEL,
    StreamConsumer,
    seed_mechanism_factories,
)
from repro.seeds import derive_seed

#: Execution pipelines: the longest insert run the consumers take at
#: once (``per-event`` caps runs at one insert).  Never part of a run's
#: identity - the merged result is bit-identical across them.
BATCHED = "batched"
PER_EVENT = "per-event"
PIPELINES = (BATCHED, PER_EVENT)


#: EngineConfig fields *deliberately* absent from :meth:`EngineConfig.signature`.
#: Lint rule C203 requires every field to appear either here or as a string
#: key inside ``signature()`` - adding a field without deciding its identity
#: status is the ``timestamps``-in-signature class of bug from PR 5.
NON_SIGNATURE_FIELDS = (
    "checkpoint_dir",        # where state lives, not what is computed
    "max_chunks_per_shard",  # an interrupted run and its resumption are the same run
    "pipeline",              # bit-identical across pipelines by contract
    "backend",               # bit-identical across kernel backends by contract
    "trajectory_stride",     # identity enters via the resolved "stride" key
    "workers",               # physical shard-group scheduling only: the merged
                             # result is bit-identical across worker counts,
                             # so checkpoints cross worker counts freely
                             # (asserted by the tests)
)


class EngineInterrupted(EngineError):
    """A run stopped at a chunk boundary before finishing.

    Raised by the ``max_chunks_per_shard`` hook, which exists so tests
    (and operators rehearsing recovery) can interrupt a checkpointed run
    at a deterministic point; a killed process leaves the same on-disk
    state, just less politely.
    """


@dataclass(frozen=True)
class EngineConfig:
    """One sharded run, fully specified.

    Everything that shapes the numbers lives here; everything that only
    shapes the wall-clock (worker count, backend) deliberately does not.
    ``trajectory_stride=0`` means auto: sample roughly a thousand points
    over the whole run so million-event trajectories stay plottable
    without carrying millions of samples per label.  ``epoch_every``
    delivers a shard-local epoch boundary to every mechanism after that
    many of the shard's inserts (on top of any markers the scenario
    emits); it is part of the run's identity - window-aware mechanisms
    restructure their clocks at boundaries - so it lives in the
    signature, unlike ``workers``.

    Three fields shape the hot path without (``pipeline``, ``backend``)
    or with (``timestamps``) shaping the numbers:

    * ``pipeline`` - ``"batched"`` (default) consumes each shard's
      inserts in runs cut at lifecycle ticks and chunk/epoch boundaries,
      feeding ``observe_batch`` / ``advance_batch``; ``"per-event"``
      caps every run at one insert.  Bit-identical results; the
      fingerprint proves it.
    * ``backend`` - the kernel backend (``python`` / ``numpy``) for the
      timestamping stage; ``None`` picks ``numpy`` when it imports and
      ``python`` otherwise.  The numpy backend is gated on numpy
      importing and never changes a single stamp value.
    * ``timestamps`` - when ``True``, every shard actually *mints* a
      timestamp per insert per mechanism label (the monitoring system's
      real output, driven through a per-label :class:`ClockKernel` that
      follows the mechanism's component additions) and folds the stamps
      into a per-label digest carried under the fingerprint.  Part of
      the signature: it adds digest lines to the canonical result.
      Restricted to append-only mechanisms - retirement would require a
      per-shard rotation/replay story, which stays with
      :class:`~repro.online.adaptive.LifecycleClockDriver`.

    ``workers`` deals the shards into that many contiguous groups
    (:func:`plan_shard_groups`) and runs each group as one task that
    generates the stream once for all its shards - in-process for one
    group, on a spawn pool otherwise.  It is wall-clock only: the merged
    result, and every checkpoint, is bit-identical across ``workers``
    values.
    """

    scenario: str
    num_threads: int = 50
    num_objects: int = 50
    density: float = 0.1
    num_events: int = 20_000
    seed: int = 2019
    num_shards: int = 8
    chunk_size: int = 10_000
    window: Optional[int] = None
    epoch_every: Optional[int] = None
    mechanisms: Tuple[str, ...] = ("naive", "random", "popularity")
    include_offline: bool = True
    strategy: str = HASH
    checkpoint_dir: Optional[str] = None
    trajectory_stride: int = 0
    max_chunks_per_shard: Optional[int] = None
    pipeline: str = BATCHED
    backend: Optional[str] = None
    timestamps: bool = False
    workers: int = 1

    def validate(self) -> None:
        try:
            scenario = REGISTRY.get(self.scenario, kind=STREAM)
        except ScenarioError as error:
            raise EngineError(str(error)) from None
        if self.num_threads < 1 or self.num_objects < 1:
            raise EngineError("num_threads and num_objects must be >= 1")
        if not (0.0 <= self.density <= 1.0):
            raise EngineError(f"density must be in [0, 1], got {self.density}")
        if self.num_events < 0:
            raise EngineError("num_events must be non-negative")
        if self.num_shards < 1:
            raise EngineError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.window is not None:
            if self.window < 1:
                raise EngineError(f"window must be >= 1, got {self.window}")
            if scenario.expires:
                raise EngineError(
                    f"scenario {self.scenario!r} emits its own expire events; "
                    f"a sliding window cannot be imposed on top"
                )
        if self.epoch_every is not None and self.epoch_every < 1:
            raise EngineError(
                f"epoch_every must be >= 1, got {self.epoch_every}"
            )
        if self.strategy not in STRATEGIES:
            raise EngineError(
                f"unknown sharding strategy {self.strategy!r} "
                f"(expected one of: {', '.join(STRATEGIES)})"
            )
        if not self.mechanisms:
            raise EngineError("at least one mechanism label is required")
        for index, label in enumerate(self.mechanisms):
            if label in self.mechanisms[:index]:
                raise EngineError(f"mechanism {label!r} is listed twice")
            if label == OFFLINE_LABEL:
                raise EngineError(
                    f"{OFFLINE_LABEL!r} is reserved for the optimum series"
                )
            if label not in EXTENDED_MECHANISMS:
                raise EngineError(
                    f"unknown mechanism {label!r} (expected one of: "
                    f"{', '.join(sorted(EXTENDED_MECHANISMS))})"
                )
        if self.trajectory_stride < 0:
            raise EngineError("trajectory_stride must be >= 0")
        if self.max_chunks_per_shard is not None and self.max_chunks_per_shard < 1:
            raise EngineError("max_chunks_per_shard must be >= 1")
        if self.pipeline not in PIPELINES:
            raise EngineError(
                f"unknown pipeline {self.pipeline!r} "
                f"(expected one of: {', '.join(PIPELINES)})"
            )
        if self.backend is not None:
            try:
                resolve_backend(self.backend)
            except ClockError as error:
                raise EngineError(str(error)) from None
        if self.timestamps:
            for label in self.mechanisms:
                if EXTENDED_MECHANISMS[label](0).window_aware:
                    raise EngineError(
                        f"timestamps=True is limited to append-only "
                        f"mechanisms; {label!r} retires components, which "
                        f"would require per-shard epoch rotation (use "
                        f"LifecycleClockDriver for that)"
                    )
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")

    @property
    def stride(self) -> int:
        """The resolved trajectory sampling stride (see class docstring)."""
        if self.trajectory_stride > 0:
            return self.trajectory_stride
        return max(1, self.num_events // 1024)

    def signature(self) -> Dict[str, object]:
        """The JSON-safe identity of this run's numbers.

        Two configurations with equal signatures produce bit-identical
        merged metrics, so this is what the checkpoint manifest records.
        ``max_chunks_per_shard`` is excluded on purpose: an interrupted
        run and its resumption are the *same* run - and so are
        ``pipeline``, ``backend`` and ``workers``, which by contract
        never change a number (a run checkpointed under one may resume
        under another).  ``timestamps`` *is* identity - it adds digest
        series - but the key is recorded only when set, so checkpoint
        directories written before the timestamping stage existed (whose
        semantics are unchanged) stay resumable.
        """
        signature = {
            "scenario": self.scenario,
            "num_threads": self.num_threads,
            "num_objects": self.num_objects,
            "density": self.density,
            "num_events": self.num_events,
            "seed": self.seed,
            "num_shards": self.num_shards,
            "chunk_size": self.chunk_size,
            "window": self.window,
            "epoch_every": self.epoch_every,
            "mechanisms": list(self.mechanisms),
            "include_offline": self.include_offline,
            "strategy": self.strategy,
            "stride": self.stride,
        }
        if self.timestamps:
            signature["timestamps"] = True
        return signature


@dataclass
class _ShardConsumers:
    """The picklable per-shard run state (what a checkpoint snapshots).

    ``stream`` is the shard's lifecycle consumer: its mechanisms, the
    optimum, the imposed window and the insert/expire/epoch counters.
    ``clocks`` / ``stamp_folds`` exist only for timestamping runs: one
    :class:`ClockKernel` per mechanism label (its component set follows
    the mechanism's decisions) and the label's cumulative stamp digest.
    Kernels pickle with their backend as one flag, so a resumed run can
    re-pin them to its own ``backend``.
    """

    stream: StreamConsumer
    clocks: Optional[Dict[str, ClockKernel]] = None
    stamp_folds: Optional[Dict[str, int]] = None


class _ChunkBuffers:
    """Accumulators of the chunk in progress, frozen at the boundary.

    Expire and epoch counts are the stream consumer's counters minus
    their values when the chunk opened.
    """

    def __init__(self, stream: StreamConsumer, stride: int) -> None:
        labels = tuple(stream.mechanisms)
        self.start = stream.inserts
        self.expires_at = stream.expires
        self.epochs_at = stream.epochs
        self.stride = stride
        self.inserts = 0
        self.offline_final = 0
        self.samples: Dict[str, List[int]] = {label: [] for label in labels}
        self.ratios: Dict[str, RunningStats] = {label: RunningStats() for label in labels}
        # The quantile companion of the moment statistics; the offline
        # series has no ratios, so it carries no sketch either.
        self.sketches: Dict[str, QuantileSketch] = {}
        if stream.optimum is not None:
            self.sketches = {label: QuantileSketch() for label in labels}
            self.samples[OFFLINE_LABEL] = []
            self.ratios[OFFLINE_LABEL] = RunningStats()

    def touched(self, stream: StreamConsumer) -> bool:
        """Whether any insert, expire or epoch landed in this chunk."""
        return bool(
            self.inserts
            or stream.expires != self.expires_at
            or stream.epochs != self.epochs_at
        )

    def freeze(
        self,
        shard_id: int,
        stream: StreamConsumer,
        stamp_folds: Optional[Dict[str, int]] = None,
    ) -> PartialResult:
        """The chunk as a mergeable partial.

        Chunks covering no inserts can still carry facts: expire and
        epoch ticks change a mechanism's clock size and retirement total
        (a window-aware mechanism shrinks between inserts), so every
        mechanism freezes, possibly to a count-0 *lifecycle-update*
        fragment - the merge algebra takes the temporally later
        fragment's carried values, so a trailing expire-only chunk is
        not lost.  The offline series freezes only from a chunk with
        inserts (its final size is the optimum after the last insert).

        ``stamp_folds`` (timestamping runs) is the per-label cumulative
        digest as of this chunk boundary; it rides on each mechanism
        fragment like the other carried-forward facts.
        """
        series: Dict[Tuple[int, str], SeriesFragment] = {}
        for label, samples in self.samples.items():
            mechanism = stream.mechanisms.get(label)
            if mechanism is None and not self.inserts:
                continue
            series[(shard_id, label)] = SeriesFragment(
                start=self.start,
                count=self.inserts,
                stride=self.stride,
                final_size=(
                    self.offline_final if mechanism is None else mechanism.clock_size
                ),
                samples=tuple(samples),
                ratios=self.ratios[label].freeze(),
                sketch=self.sketches.get(label),
                retired=0 if mechanism is None else mechanism.retired_total,
                stamp_digest=(
                    stamp_folds.get(label) if stamp_folds is not None else None
                ),
            )
        return PartialResult(
            inserts=self.inserts,
            expires=stream.expires - self.expires_at,
            epochs=stream.epochs - self.epochs_at,
            series=series,
        )


def _fresh_consumers(config: EngineConfig, shard_id: int) -> _ShardConsumers:
    # One root per shard, one child per mechanism label - the same
    # splitting discipline the ratio sweep uses, so a mechanism's
    # randomness depends on *what* it computes, never on worker placement.
    shard_root = derive_seed(config.seed, config.scenario, "shard", shard_id)
    factories = seed_mechanism_factories(
        {label: EXTENDED_MECHANISMS[label] for label in config.mechanisms},
        shard_root,
    )
    stream = StreamConsumer(
        {label: factories[label]() for label in config.mechanisms},
        config.include_offline, config.window, config.epoch_every,
    )
    clocks = None
    stamp_folds = None
    if config.timestamps:
        # One kernel per label, born empty: the mechanism's first
        # decisions extend it before the triggering events are stamped,
        # so every stamped event is covered and strict mode holds.
        clocks = {
            label: ClockKernel(
                ClockComponents(), strict=True, backend=config.backend
            )
            for label in config.mechanisms
        }
        stamp_folds = {label: 0 for label in config.mechanisms}
    return _ShardConsumers(stream=stream, clocks=clocks, stamp_folds=stamp_folds)


def _extend_clock(kernel: ClockKernel, decision) -> None:
    """Mirror one component addition onto a label's kernel."""
    if decision.choice == THREAD:
        kernel.extend_components(thread_components=(decision.component,))
    else:
        kernel.extend_components(object_components=(decision.component,))


def _timed_stream(stream: Iterable, reg) -> Iterator:
    """Yield ``stream`` unchanged, accumulating generator-side time.

    Stream generation is lazy, so its cost is interleaved with
    consumption and invisible to coarse spans; this wrapper meters the
    time spent *inside* the generator's ``next`` and observes the total
    as the ``engine.stream_gen_s`` histogram (one observation per pass,
    flushed even when the pass is abandoned mid-stream).  Only installed
    when telemetry is active - untimed runs never pay the per-event
    clock reads - and, like all telemetry, never read back into any
    result.
    """
    total = 0.0
    iterator = iter(stream)
    try:
        while True:
            began = perf_counter()
            try:
                event = next(iterator)
            except StopIteration:
                break
            finally:
                total += perf_counter() - began
            yield event
    finally:
        reg.observe("engine.stream_gen_s", total)


class _ShardRun:
    """One shard's live execution state and transitions.

    The per-shard half of :func:`run_shard_group`, wrapped around the
    shard's :class:`~repro.online.simulator.StreamConsumer` (loaded from
    a checkpoint or fresh): the chunk clock, stride sampling, ratio
    statistics, the timestamping accumulation, and the chunk-boundary
    checkpoint/telemetry plumbing.  Every shard is driven through these
    same methods in the same per-shard event order whichever group owns
    it, so a shard's partial cannot depend on the worker count, and the
    bytes of a checkpoint taken after a given chunk depend on neither
    the worker count nor the hash seed.  Which chunks an interrupted run
    reaches does depend on the grouping: :meth:`interrupt_if_due` ends
    the whole group's pass once any shard it owns is at its limit.
    """

    def __init__(self, config: EngineConfig, shard_id: int,
                 manager: Optional[EngineCheckpointManager], reg) -> None:
        self.config = config
        self.shard_id = shard_id
        self.manager = manager
        self.reg = reg
        self.chunk_started = perf_counter() if reg is not None else 0.0
        checkpoint = None
        if manager is not None:
            with _metrics_span("engine.checkpoint.load", shard=shard_id):
                checkpoint = manager.load(shard_id)
        if checkpoint is not None:
            self.consumers = checkpoint.consumers
            self.partial = checkpoint.partial
            self.raw_consumed = checkpoint.raw_events_consumed
            self.chunks_done = checkpoint.chunks_done
            if config.timestamps and self.consumers.clocks is not None:
                # The pickled kernels carry the backend flag they ran under;
                # the resuming configuration wins (backends are bit-identical
                # by contract, so this is purely a wall-clock choice).
                for kernel in self.consumers.clocks.values():
                    kernel.set_backend(config.backend)
        else:
            self.consumers = _fresh_consumers(config, shard_id)
            self.partial = PartialResult()
            self.raw_consumed = 0
            self.chunks_done = 0
        self.stream = self.consumers.stream
        self.mechanisms = self.stream.mechanisms
        self.clocks = self.consumers.clocks
        self.stamp_folds = self.consumers.stamp_folds
        self.chunk = _ChunkBuffers(self.stream, config.stride)
        # The timestamping stage's own, longer accumulation: the
        # per-label kernels consume *inserts only* (append-only clocks
        # ignore expiry), so their runs are cut by chunk boundaries and
        # the memory cap - not by the lifecycle ticks that cut mechanism
        # runs.  This is what amortises the backends' working-state
        # setup over thousands of events even on churn-heavy streams.
        # The per-event pipeline stamps one insert at a time, like every
        # other consumer.
        self.kernel_pending: List[Tuple[object, object]] = []
        self.kernel_run = 1 if config.pipeline == PER_EVENT else MAX_BATCH_EVENTS
        self.kernel_start = self.stream.inserts
        self.decision_cursor: Dict[str, int] = (
            {
                label: mechanism.decision_count
                for label, mechanism in self.mechanisms.items()
            }
            if self.clocks is not None
            else {}
        )

    # -- chunk / lifecycle transitions ----------------------------------
    def complete_chunk(self) -> None:
        self.partial = self.partial.merge(
            self.chunk.freeze(self.shard_id, self.stream, self.stamp_folds)
        )
        self.chunks_done += 1
        reg = self.reg
        if reg is not None:
            now = perf_counter()
            reg.add("engine.chunks")
            reg.observe("engine.chunk_s", now - self.chunk_started)
            reg.record_span(
                "engine.chunk",
                self.chunk_started,
                now - self.chunk_started,
                (("chunk", self.chunks_done), ("shard", self.shard_id)),
            )
            self.chunk_started = now
        if self.manager is not None:
            with _metrics_span("engine.checkpoint.save", shard=self.shard_id):
                self.manager.save(
                    ShardCheckpoint(
                        shard_id=self.shard_id,
                        chunks_done=self.chunks_done,
                        raw_events_consumed=self.raw_consumed,
                        inserts_done=self.stream.inserts,
                        expires_done=self.partial.expires,
                        consumers=self.consumers,
                        partial=self.partial,
                    )
                )
        self.chunk = _ChunkBuffers(self.stream, self.config.stride)

    def interrupt_if_due(self) -> None:
        if (
            self.config.max_chunks_per_shard is not None
            and self.chunks_done >= self.config.max_chunks_per_shard
        ):
            raise EngineInterrupted(
                f"shard {self.shard_id} stopped after {self.chunks_done} "
                f"chunks ({self.stream.inserts} inserts checkpointed)"
            )

    # -- insert runs ----------------------------------------------------
    def run_cap(self) -> int:
        """Largest insert run :meth:`flush_inserts` may take next.

        A run never overshoots a chunk boundary, nor whatever the stream
        consumer's own cap says (epoch boundaries).  The per-event
        pipeline caps every run at one insert.
        """
        config = self.config
        if config.pipeline == PER_EVENT:
            return 1
        return self.stream.run_cap(
            min(config.chunk_size - self.chunk.inserts, MAX_BATCH_EVENTS)
        )

    def flush_stamps(self) -> None:
        """Advance every label's kernel over the accumulated inserts.

        Each component addition extends the kernel *before* its
        triggering event is stamped, hence the same digest as stamping
        one event at a time.  A sub-run is cut at an addition only when
        the new component is an endpoint (on its side) of an event since
        the last cut: extending earlier would count that event in its
        slot.  Otherwise the slot would stay zero until the triggering
        event either way, so the kernel extends at once and the run goes
        on - a new thread's first event, the common case, costs no cut.
        """
        kernel_pending = self.kernel_pending
        if not kernel_pending:
            return
        clocks = self.clocks
        stamp_folds = self.stamp_folds
        decision_cursor = self.decision_cursor
        kernel_start = self.kernel_start
        for label, mechanism in self.mechanisms.items():
            kernel = clocks[label]
            fold = stamp_folds[label]
            cursor_offset = scanned = 0
            seen = {THREAD: set(), OBJECT: set()}
            for decision in mechanism.decisions_since(decision_cursor[label]):
                offset = decision.event_index - kernel_start
                for thread, obj in kernel_pending[scanned:offset]:
                    seen[THREAD].add(thread)
                    seen[OBJECT].add(obj)
                scanned = offset
                if decision.component in seen[decision.choice]:
                    fold = kernel.advance_batch(
                        kernel_pending[cursor_offset:offset], fold
                    )
                    cursor_offset = offset
                    seen = {THREAD: set(), OBJECT: set()}
                _extend_clock(kernel, decision)
            decision_cursor[label] = mechanism.decision_count
            if cursor_offset:
                fold = kernel.advance_batch(
                    kernel_pending[cursor_offset:], fold
                )
            else:
                fold = kernel.advance_batch(kernel_pending, fold)
            stamp_folds[label] = fold
        self.kernel_start += len(kernel_pending)
        kernel_pending.clear()

    def flush_inserts(self, run: List[Tuple[object, object]]) -> None:
        """One whole insert run through the stream consumer and the stamps.

        Samples every ``stride``-th insert, folds each label's ratios to
        the optimum into its stats and sketch once per run, and completes
        the chunk when the run fills it.
        """
        sizes, offline_sizes = self.stream.insert_run(run)
        chunk = self.chunk
        count = len(run)
        reg = self.reg
        if reg is not None:
            reg.observe("engine.batch_size", count)
        start = self.stream.inserts - count
        sample_offsets = range(-start % chunk.stride, count, chunk.stride)
        for label, label_sizes in sizes.items():
            samples = chunk.samples[label]
            for offset in sample_offsets:
                samples.append(label_sizes[offset])
            if offline_sizes is not None:
                ratios = [*map(truediv, label_sizes, offline_sizes)]
                chunk.ratios[label].update_many(ratios)
                chunk.sketches[label].update_many(ratios)
        if offline_sizes is not None:
            chunk.offline_final = offline_sizes[-1]
            offline_samples = chunk.samples[OFFLINE_LABEL]
            for offset in sample_offsets:
                offline_samples.append(offline_sizes[offset])
        if self.clocks is not None:
            self.kernel_pending.extend(run)
            if len(self.kernel_pending) >= self.kernel_run:
                self.flush_stamps()
        chunk.inserts += count
        if chunk.inserts == self.config.chunk_size:
            # The chunk's frozen digest must be current, so the kernels
            # catch up right before the boundary.
            self.flush_stamps()
            self.complete_chunk()
            self.interrupt_if_due()

    # -- completion ------------------------------------------------------
    def finish(self) -> PartialResult:
        """Freeze any trailing chunk, flush telemetry; the shard's partial."""
        self.flush_stamps()
        if self.chunk.touched(self.stream):
            self.complete_chunk()
        reg = self.reg
        if reg is not None:
            shard_id = self.shard_id
            reg.gauge(f"engine.shard[{shard_id}].inserts", self.partial.inserts)
            reg.gauge(f"engine.shard[{shard_id}].expires", self.partial.expires)
            reg.gauge(f"engine.shard[{shard_id}].epochs", self.partial.epochs)
            reg.gauge(f"engine.shard[{shard_id}].chunks", self.chunks_done)
        return self.partial


def run_shard_group(
    config: EngineConfig, shard_ids: Sequence[int]
) -> Dict[int, PartialResult]:
    """Run a contiguous group of shards to completion in ONE stream pass.

    The engine's task body: the base stream is regenerated *once* and
    every event routed to the owning shard's consumers in a single pass,
    so a worker that owns four shards pays the fixed per-pass cost
    (generation + routing) once instead of four times.  Each owned
    shard's consumer state, chunk clock and checkpoints evolve exactly
    as they would in a group of its own - per-shard resume skips
    included - which is what makes checkpoints (and the merged
    fingerprint) interchangeable across ``workers`` counts.

    Returns the per-shard partials keyed by shard id.  Raises
    :class:`EngineInterrupted` when any owned shard hits the
    ``max_chunks_per_shard`` hook; sibling shards keep whatever chunk
    checkpoints they had already completed, and the next invocation
    resumes every shard from its own last boundary.
    """
    config.validate()
    # The group's shard ids are validated by split_runs_group.
    owned: Tuple[int, ...] = tuple(shard_ids)
    scenario = REGISTRY.get(config.scenario, kind=STREAM)
    manager = (
        EngineCheckpointManager(config.checkpoint_dir, config.signature())
        if config.checkpoint_dir
        else None
    )
    # Telemetry handle, bound once per group pass: every observation below
    # guards on ``reg is not None`` so the disabled cost is this single
    # global read.  Nothing read from the registry (or any clock feeding
    # it) influences the partials - telemetry is observed, never
    # observed-from.
    reg = _metrics_active()
    group_started = perf_counter() if reg is not None else 0.0
    runs: Dict[int, _ShardRun] = {
        shard_id: _ShardRun(config, shard_id, manager, reg)
        for shard_id in owned
    }
    stream = scenario.build(
        config.num_threads,
        config.num_objects,
        config.density,
        config.num_events,
        seed=derive_seed(config.seed, config.scenario, "stream"),
    )
    if reg is not None:
        stream = _timed_stream(stream, reg)
    sharder = StreamSharder(config.num_shards, config.strategy)
    # Runs of consecutive inserts, cut at lifecycle ticks and at each
    # shard's run_cap() (chunk / epoch boundaries, the per-event
    # pipeline), and runs of consecutive expires arrive whole and
    # already routed to their owning shard from split_runs_group.
    # Boundary checks run after *every* flushed insert run, but only a
    # cap-sized run can land on a chunk/epoch boundary: the sharder
    # re-evaluates run_cap() at each run's first insert, so a run cut
    # short by a lifecycle event (or end of stream) always stops
    # strictly before one.
    caps = {shard_id: runs[shard_id].run_cap for shard_id in owned}
    skips = {shard_id: runs[shard_id].raw_consumed for shard_id in owned}
    expire_cap = 1 if config.pipeline == PER_EVENT else MAX_BATCH_EVENTS
    for shard, consumed, item in sharder.split_runs_group(
        stream, owned, caps, skips, expire_cap
    ):
        shard_run = runs[shard]
        shard_run.raw_consumed = consumed
        if item is None:
            continue
        if type(item) is list:
            shard_run.flush_inserts(item)
        elif type(item) is ExpireRun:
            shard_run.stream.expire_run(item)
        else:
            shard_run.stream.end_epoch()

    partials = {shard_id: runs[shard_id].finish() for shard_id in owned}
    if reg is not None:
        if len(owned) == 1:
            reg.record_span(
                "engine.shard",
                group_started,
                perf_counter() - group_started,
                (("pipeline", config.pipeline), ("shard", owned[0])),
            )
        else:
            reg.record_span(
                "engine.group",
                group_started,
                perf_counter() - group_started,
                (
                    ("pipeline", config.pipeline),
                    ("shards", f"{owned[0]}-{owned[-1]}"),
                ),
            )
    return partials


def run_shard_group_task(
    task: Tuple[EngineConfig, Tuple[int, ...]],
) -> Dict[int, PartialResult]:
    """Module-level group-task entry point (picklable for the pool)."""
    config, shard_ids = task
    return run_shard_group(config, shard_ids)


def run_engine(config: EngineConfig) -> EngineResult:
    """Run every shard of ``config`` and merge.

    The shards are dealt into ``config.workers`` contiguous
    :class:`~repro.engine.sharding.ShardGroup`\\ s and each group runs as
    one :func:`run_shard_group` task - on a persistent worker pool when
    the plan has more than one group, in-process otherwise - so the
    stream is generated once per group.  The merge folds shard partials
    in shard-id order, the fixed merge tree that keeps results
    independent of the worker count.  With a checkpoint directory
    configured, completed shards short-circuit through their
    checkpoints, so re-invoking after an :class:`EngineInterrupted`
    finishes the remaining work only - under any ``workers`` value, not
    only the interrupted one's.
    """
    config.validate()
    if config.checkpoint_dir:
        # Fail fast in the parent on a manifest mismatch, before any
        # worker is spawned.
        EngineCheckpointManager(config.checkpoint_dir, config.signature())
    groups = plan_shard_groups(config.num_shards, config.workers)
    pool = WorkerPool(len(groups))
    tasks = [(config, group.shard_ids) for group in groups]
    registry = _metrics_active()
    if registry is None:
        grouped = pool.map(run_shard_group_task, tasks)
    else:
        # Deferred import: the telemetry bridge imports this module back.
        from repro.engine.telemetry import (
            absorb_snapshots,
            run_shard_group_task_with_metrics,
        )

        registry.gauge("engine.workers", len(groups))
        registry.gauge("engine.num_shards", config.num_shards)
        with registry.span(
            "engine.map", workers=len(groups), shards=config.num_shards
        ):
            outcomes = pool.map(run_shard_group_task_with_metrics, tasks)
        grouped = [partials for partials, _snapshot in outcomes]
        # Group-id order == shard-id order (groups are contiguous and
        # ascending), mirroring the result merge tree.
        absorb_snapshots(registry, [snapshot for _partials, snapshot in outcomes])
    partials = [
        grouped[index][shard_id]
        for index, group in enumerate(groups)
        for shard_id in group.shard_ids
    ]
    with _metrics_span("engine.merge"):
        merged = merge_partials(partials)
    return EngineResult(
        scenario=config.scenario,
        num_shards=config.num_shards,
        strategy=config.strategy,
        seed=config.seed,
        window=config.window,
        chunk_size=config.chunk_size,
        mechanisms=config.mechanisms,
        partial=merged,
    )
