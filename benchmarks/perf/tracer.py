"""Layer attribution for the perf benchmark: timing wrappers, outside-in.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public functions and methods listed in :data:`LAYERS` with wrappers
that push a frame on the :class:`Tracer`'s stack, call the original and
pop the frame; :func:`uninstall` puts the originals back.  Because the
stack holds every active wrapper, a layer's *self* time excludes the
time of every wrapped call it makes - including calls into its own layer
(a subclass ``observe_batch`` falling back to the base one) - so the
self times of all layers plus the benchmark root's self time add up to
the root's wall time exactly.

Generators (the scenario stream, the sharder's splits) are wrapped per
``next()``: the wrapper's frame is live only while the generator runs,
so a consumer's work between two ``next()`` calls is never charged to
the producer.

Worker processes of the engine's spawn pool re-import the benchmark's
``__main__`` as ``__mp_main__``; when :data:`WORKER_TRACE_ENV` names a
directory, that import calls :func:`install_worker`, which installs the
same wrappers and writes one JSON record per shard-group task into the
directory when the task's root frame closes (in a ``finally``, so an
:class:`~repro.engine.runner.EngineInterrupted` task still reports).  The
parent-side :class:`~repro.engine.executor.WorkerPool` wrapper collects
the records after every ``map`` and folds them in shard-group order.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Environment variable naming the directory pool workers report into.
WORKER_TRACE_ENV = "REPRO_PERF_TRACE_DIR"

#: Frame name of the benchmark's own root (one per timed tick).
ROOT = "root"

#: Every attributed layer, in report order, with the public callables
#: timed for it.  ``(module, qualified name)``: a bare function name is
#: replaced in every loaded ``repro`` module that imported it; a
#: ``Class.method`` name is replaced on the class.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("computation.streams", (("repro.computation.registry", "Scenario.build"),)),
    ("engine.sharding", (
        ("repro.engine.sharding", "StreamSharder.split"),
        ("repro.engine.sharding", "StreamSharder.split_runs_group"),
    )),
    ("engine.runner", (
        ("repro.engine.runner", "run_engine"),
        ("repro.engine.runner", "run_shard_group"),
    )),
    ("engine.executor", (("repro.engine.executor", "WorkerPool.map"),)),
    ("engine.checkpoint", (
        ("repro.engine.checkpoint", "EngineCheckpointManager.save"),
        ("repro.engine.checkpoint", "EngineCheckpointManager.load"),
    )),
    ("engine.results", (
        ("repro.engine.results", "merge_partials"),
        ("repro.engine.results", "PartialResult.merge"),
        ("repro.engine.results", "EngineResult.fingerprint"),
    )),
    ("online", ()),  # every OnlineMechanism class, see _online_targets
    ("online.driver", (
        ("repro.online.adaptive", "LifecycleClockDriver.observe"),
        ("repro.online.adaptive", "LifecycleClockDriver.expire"),
    )),
    ("graph.incremental", (
        ("repro.graph.incremental", "DynamicMatching.add_edge"),
        ("repro.graph.incremental", "DynamicMatching.remove_edge"),
        ("repro.graph.incremental", "DynamicMatching.vertex_cover"),
    )),
    ("graph.matching", (
        ("repro.graph.matching", "hopcroft_karp_matching"),
        ("repro.graph.matching", "augment_from_unmatched_thread"),
    )),
    ("graph.vertex_cover", (
        ("repro.graph.vertex_cover", "konig_vertex_cover"),
        ("repro.graph.vertex_cover", "alternating_reachable"),
    )),
    ("offline", (("repro.offline.algorithm", "optimal_components_for_graph"),)),
    ("core.kernel", tuple(
        ("repro.core.kernel", f"ClockKernel.{name}")
        for name in (
            "advance_batch", "timestamp_batch", "observe",
            "extend_components", "rotate_epoch", "rotate_epoch_delta",
        )
    )),
    ("core.timestamping", (
        ("repro.core.timestamping", "EpochClock.observe"),
        ("repro.core.timestamping", "EpochClock.expire"),
        ("repro.core.timestamping", "EpochClock.extend"),
        ("repro.core.timestamping", "EpochClock.rotate"),
        ("repro.core.timestamping", "VectorClockProtocol.timestamp_computation"),
    )),
    ("analysis.metrics", (
        ("repro.analysis.metrics", "RunningStats.update"),
        ("repro.analysis.metrics", "QuantileSketch.update"),
        ("repro.analysis.metrics", "QuantileSketch.merge"),
    )),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, _ in LAYERS)

#: Methods of every OnlineMechanism class timed as the ``online`` layer.
ONLINE_METHODS = ("observe", "observe_batch", "expire", "end_epoch")

#: Layers whose calls are coarse enough to keep as spans, besides the root.
SPAN_LAYERS = frozenset((
    "engine.runner", "engine.executor", "engine.checkpoint",
    "engine.results", "offline",
))

#: Counters kept beside the per-layer self time and call count.
COUNTERS = (
    "online.decisions",
    "graph.incremental.adds",
    "graph.incremental.grows",
    "core.kernel.events",
    "core.kernel.delta_rotations",
    "engine.checkpoint.bytes_written",
    "engine.checkpoint.bytes_read",
    "engine.executor.overhead_s",
)


class Tracer:
    """The wrapper stack plus the per-layer aggregates it feeds.

    ``layers[name] = [self_s, calls]``; ``rotations`` holds the inclusive
    wall time of every ``EpochClock.rotate``; ``spans`` holds
    ``(name, start, end, parent, workload)`` tuples for the root and the
    :data:`SPAN_LAYERS` calls.  ``workers`` holds the same aggregates
    folded in from pool workers (their time runs in parallel with the
    parent's, so it is kept apart from the parent's self-time identity).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.job = 0
        self.reset()

    def reset(self) -> None:
        self.stack: List[list] = []
        self.root_wall = 0.0
        self.layers: Dict[str, List[float]] = {name: [0.0, 0] for name in LAYER_NAMES}
        self.layers[ROOT] = [0.0, 0]
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.rotations: List[float] = []
        self.spans: List[tuple] = []
        self.workers = WorkerAggregate()

    def push(self, layer: str) -> list:
        frame = [layer, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        layer, start, children = frame
        elapsed = end - start
        row = self.layers[layer]
        row[0] += elapsed - children
        row[1] += 1
        if stack:
            stack[-1][2] += elapsed
        else:
            self.root_wall += elapsed
        if layer == ROOT or layer in SPAN_LAYERS:
            parent = stack[-1][0] if stack else ""
            self.spans.append((layer, start, end, parent, f"{self.workload}#{self.job}"))
        return elapsed

    def current(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def record(self) -> dict:
        """This process's aggregates as a JSON-safe record."""
        return {
            "layers": {name: list(row) for name, row in self.layers.items()},
            "counters": dict(self.counters),
            "rotations": list(self.rotations),
            "spans": [list(span) for span in self.spans],
            "pid": os.getpid(),
        }


class WorkerAggregate:
    """Pool-worker records folded in shard-group order."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {name: [0.0, 0] for name in LAYER_NAMES}
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.rotations: List[float] = []
        self.spans: List[tuple] = []
        self.records = 0

    def absorb(self, record: dict) -> None:
        for name, (self_s, calls) in record["layers"].items():
            if name in self.layers:
                self.layers[name][0] += self_s
                self.layers[name][1] += calls
        for name, value in record["counters"].items():
            self.counters[name] += value
        self.rotations.extend(record["rotations"])
        pid = record["pid"]
        self.spans.extend(tuple(span) + (pid,) for span in record["spans"])
        self.records += 1


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _timed(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            pop(frame)

    return timed


class _TimedIterator:
    """Charge each ``next()`` of ``iterator`` to ``layer``."""

    def __init__(self, tracer: Tracer, layer: str, iterator) -> None:
        self._tracer = tracer
        self._layer = layer
        self._iterator = iter(iterator)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.push(self._layer)
        try:
            return next(self._iterator)
        finally:
            self._tracer.pop(frame)


def _timed_generator(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return _TimedIterator(tracer, layer, fn(*args, **kwargs))

    return timed


def _scenario_build(tracer: Tracer, fn: Callable) -> Callable:
    """Stream scenarios yield events lazily; other kinds build a value."""

    @functools.wraps(fn)
    def timed(scenario, *args, **kwargs):
        built = fn(scenario, *args, **kwargs)
        if scenario.kind != "stream":
            return built
        return _TimedIterator(tracer, "computation.streams", built)

    return timed


def _online(tracer: Tracer, fn: Callable) -> Callable:
    """``online`` wrapper; the outermost call counts the decisions made."""
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(mechanism, *args, **kwargs):
        outer = tracer.current() != "online"
        frame = push("online")
        try:
            if not outer:
                return fn(mechanism, *args, **kwargs)
            before = mechanism.decision_count
            try:
                return fn(mechanism, *args, **kwargs)
            finally:
                counters["online.decisions"] += mechanism.decision_count - before
        finally:
            pop(frame)

    return timed


def _add_edge(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(matching, thread, obj):
        frame = push("graph.incremental")
        try:
            grew = fn(matching, thread, obj)
            counters["graph.incremental.adds"] += 1
            counters["graph.incremental.grows"] += grew
            return grew
        finally:
            pop(frame)

    return timed


def _kernel_batch(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(kernel, pairs, *args, **kwargs):
        frame = push("core.kernel")
        try:
            counters["core.kernel.events"] += len(pairs)
            return fn(kernel, pairs, *args, **kwargs)
        finally:
            pop(frame)

    return timed


def _kernel_observe(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(kernel, thread, obj):
        frame = push("core.kernel")
        try:
            counters["core.kernel.events"] += 1
            return fn(kernel, thread, obj)
        finally:
            pop(frame)

    return timed


def _rotate_delta(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = push("core.kernel")
        try:
            counters["core.kernel.delta_rotations"] += 1
            return fn(*args, **kwargs)
        finally:
            pop(frame)

    return timed


def _rotate(tracer: Tracer, fn: Callable) -> Callable:
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = push("core.timestamping")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.rotations.append(pop(frame))

    return timed


def _file_size(path) -> int:
    return path.stat().st_size if path is not None else 0


def _checkpoint_save(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(manager, checkpoint):
        frame = push("engine.checkpoint")
        try:
            fn(manager, checkpoint)
            counters["engine.checkpoint.bytes_written"] += _file_size(
                manager.shard_files().get(checkpoint.shard_id)
            )
        finally:
            pop(frame)

    return timed


def _checkpoint_load(tracer: Tracer, fn: Callable) -> Callable:
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(manager, shard_id):
        frame = push("engine.checkpoint")
        try:
            checkpoint = fn(manager, shard_id)
            if checkpoint is not None:
                counters["engine.checkpoint.bytes_read"] += _file_size(
                    manager.shard_files().get(shard_id)
                )
            return checkpoint
        finally:
            pop(frame)

    return timed


def _pool_map(tracer: Tracer, fn: Callable, report_dir: Path) -> Callable:
    """Parent side of the pool: collect worker records after every map."""
    push, pop, counters = tracer.push, tracer.pop, tracer.counters

    @functools.wraps(fn)
    def timed(pool, task_fn, tasks):
        frame = push("engine.executor")
        try:
            return fn(pool, task_fn, tasks)
        finally:
            wall = perf_counter() - frame[1]
            records = collect_worker_records(report_dir)
            for record in records:
                tracer.workers.absorb(record)
            if records:
                busiest = max(record["busy_s"] for record in records)
                counters["engine.executor.overhead_s"] += wall - busiest
            pop(frame)

    return timed


def _worker_root(tracer: Tracer, fn: Callable, report_dir: Path) -> Callable:
    """Worker side: the shard-group task is the root; report when it closes."""
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def timed(config, shard_ids):
        root = not tracer.stack
        frame = push("engine.runner")
        try:
            return fn(config, shard_ids)
        finally:
            busy = pop(frame)
            if root:
                record = tracer.record()
                record["busy_s"] = busy
                record["shards"] = list(shard_ids)
                _write_record(report_dir, record)
                tracer.reset()

    return timed


def _write_record(report_dir: Path, record: dict) -> None:
    first = record["shards"][0] if record["shards"] else 0
    final = report_dir / f"worker-{first:05d}-{os.getpid()}.json"
    staging = final.with_suffix(".tmp")
    staging.write_text(json.dumps(record))
    os.replace(staging, final)


def collect_worker_records(report_dir: Path) -> List[dict]:
    """Read and delete the finished worker records, in shard-group order."""
    records = []
    for path in sorted(report_dir.glob("worker-*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    records.sort(key=lambda record: record["shards"])
    return records


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _online_targets() -> List[Tuple[type, str]]:
    from repro.analysis import experiments  # noqa: F401  (registers every mechanism)
    from repro.online import adaptive  # noqa: F401
    from repro.online.base import OnlineMechanism

    classes, pending = [], [OnlineMechanism]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    classes.sort(key=lambda cls: (cls.__module__, cls.__qualname__))
    return [
        (cls, name)
        for cls in classes
        for name in ONLINE_METHODS
        if name in vars(cls)
    ]


def _special(tracer: Tracer, qualname: str, fn: Callable,
             report_dir: Path, worker: bool) -> Optional[Callable]:
    if qualname == "Scenario.build":
        return _scenario_build(tracer, fn)
    if qualname.startswith("StreamSharder."):
        return _timed_generator(tracer, "engine.sharding", fn)
    if qualname == "run_shard_group" and worker:
        return _worker_root(tracer, fn, report_dir)
    if qualname == "WorkerPool.map":
        return _pool_map(tracer, fn, report_dir)
    if qualname == "EngineCheckpointManager.save":
        return _checkpoint_save(tracer, fn)
    if qualname == "EngineCheckpointManager.load":
        return _checkpoint_load(tracer, fn)
    if qualname == "DynamicMatching.add_edge":
        return _add_edge(tracer, fn)
    if qualname in ("ClockKernel.advance_batch", "ClockKernel.timestamp_batch"):
        return _kernel_batch(tracer, fn)
    if qualname == "ClockKernel.observe":
        return _kernel_observe(tracer, fn)
    if qualname == "ClockKernel.rotate_epoch_delta":
        return _rotate_delta(tracer, fn)
    if qualname == "EpochClock.rotate":
        return _rotate(tracer, fn)
    return None


def install(tracer: Tracer, report_dir: Path,
            worker: bool = False) -> List[Tuple[object, str, object]]:
    """Wrap every callable of :data:`LAYERS` for ``tracer``.

    Pool workers write their records into ``report_dir``, where the
    parent's ``WorkerPool.map`` wrapper collects them.

    Returns the replaced ``(owner, name, original)`` attributes, for
    :func:`uninstall`.
    """
    replaced: List[Tuple[object, str, object]] = []

    def replace(owner, name: str, value) -> None:
        replaced.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    for layer, targets in LAYERS:
        for module_name, qualname in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, name = qualname.split(".")
                owner = getattr(module, class_name)
                fn = vars(owner)[name]
                wrapper = _special(tracer, qualname, fn, report_dir, worker)
                replace(owner, name, wrapper or _timed(tracer, layer, fn))
                continue
            fn = getattr(module, qualname)
            wrapper = _special(tracer, qualname, fn, report_dir, worker)
            wrapper = wrapper or _timed(tracer, layer, fn)
            # Every module that imported the function holds its own
            # reference; replace each one (sorted for a stable order).
            for loaded_name in sorted(sys.modules):
                loaded = sys.modules[loaded_name]
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        replace(loaded, key, wrapper)
    for cls, name in _online_targets():
        replace(cls, name, _online(tracer, vars(cls)[name]))
    return replaced


def uninstall(replaced: List[Tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(replaced):
        setattr(owner, name, original)
    replaced.clear()


def install_worker(report_dir: str) -> Tracer:
    """Pool-worker entry: trace every shard-group task into ``report_dir``."""
    tracer = Tracer("worker")
    install(tracer, Path(report_dir), worker=True)
    return tracer


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> dict:
    """The recorded spans (parent and workers) as a Chrome trace document."""
    pid = os.getpid()
    spans = [tuple(span) + (pid,) for span in tracer.spans] + list(tracer.workers.spans)
    events = [
        {
            "name": name,
            "cat": name,
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": span_pid,
            "tid": 0,
            "args": {"parent": parent, "workload": workload},
        }
        for name, start, end, parent, workload, span_pid in sorted(
            spans, key=lambda span: (span[1], span[5])
        )
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
