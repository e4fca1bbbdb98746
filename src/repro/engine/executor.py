"""Task execution: :class:`WorkerPool`, in-process or a persistent spawn pool.

The unit of physical parallelism is a *task* - one shard group of an
engine run, or one cell-trial of a ratio sweep.  Tasks are pure
functions of their (picklable) arguments, so the only thing the pool
may influence is wall-clock time: results are returned in task order no
matter which worker finished first, and every consumer folds them in
that order.  That discipline - deterministic task decomposition plus
order-preserving collection - is what makes ``--workers N`` (and the
ratio sweep's ``--jobs N``) bit-identical to one worker.

:meth:`WorkerPool.map` runs in-process when the pool has one worker or
the task list has one task, producing *the same result structure* as
the pool - the parallel path differs only in where the work ran.
Otherwise it starts ``spawn`` processes **once** per call and feeds
them tasks over a queue until a sentinel retires them, so the
interpreter spawn + package re-import cost is paid per *worker*, not
per *task*.  ``spawn`` is chosen over ``fork`` deliberately: workers
re-import the package from a clean interpreter (no inherited mutable
module state to diverge on) and behave identically on
Linux/macOS/Windows.

The pool's telemetry (active-registry runs only) makes the amortisation
measurable: ``pool.worker_spawn_s`` observes each worker's spawn-to-ready
latency, ``pool.tasks_per_worker`` the final task distribution, and
``pool.task_wait_s`` the time each task sat queued before a worker
picked it up; the ``executor.pool`` span brackets the whole
spawn + compute + retire window.  All of it flows through gauges,
histograms and spans - never counters - so merged counter telemetry
stays bit-identical across worker counts.

The task callable must be a module-level function (picklable by
qualified name) and every task argument and result must be picklable -
properties of the engine's frozen config dataclasses and mergeable
partials by construction.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import EngineError
from repro.obs.registry import active as _metrics_active

Task = TypeVar("Task")
Result = TypeVar("Result")

#: How long the collector blocks on the result queue before checking
#: worker liveness (a crashed worker never sends a result, so without
#: this the parent would wait forever on an empty queue).
LIVENESS_INTERVAL_S = 1.0

#: Grace period for a retiring worker to drain and exit before the pool
#: escalates to termination.
JOIN_TIMEOUT_S = 10.0

_PENDING = object()

#: Message kinds on the result queue (worker -> parent).
_READY = "ready"
_DONE = "done"
_ERROR = "error"


def _shippable_error(error: BaseException) -> BaseException:
    """``error`` if it survives pickling, else a faithful stand-in.

    The worker's exception must cross a process boundary with its type
    intact when possible - :class:`~repro.engine.runner.EngineInterrupted`
    carries resume semantics the parent's callers match on.  Exceptions
    whose state defeats pickling degrade to an :class:`EngineError`
    carrying the formatted traceback, so the failure is never silently
    replaced by a queue serialisation error.
    """
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        detail = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        return EngineError(f"worker task failed (unpicklable exception):\n{detail}")
    return error


def _pool_worker(worker_id: int, task_queue, result_queue) -> None:
    """The worker loop: announce readiness, then drain tasks to a sentinel.

    Runs in a spawned child.  Each message back to the parent carries the
    worker id and the time the worker spent blocked waiting for that item
    (the parent folds the waits into ``pool.task_wait_s``); results and
    errors are made shippable before they hit the queue.
    """
    result_queue.put((_READY, worker_id, None, 0.0))
    while True:
        waited_from = perf_counter()
        item = task_queue.get()
        waited = perf_counter() - waited_from
        if item is None:
            break
        index, fn, task = item
        try:
            result = fn(task)
        except BaseException as error:  # ship it, whatever it was
            result_queue.put((_ERROR, worker_id, (index, _shippable_error(error)), waited))
        else:
            try:
                result_queue.put((_DONE, worker_id, (index, result), waited))
            except Exception as error:
                result_queue.put(
                    (_ERROR, worker_id, (index, _shippable_error(error)), waited)
                )


class WorkerPool:
    """A persistent pool of spawn workers fed over a task queue.

    One :meth:`map` call spawns ``min(workers, len(tasks))`` processes
    *once*, queues every task (then one retirement sentinel per worker),
    and collects results as workers finish - re-ordered to task order
    before returning, so scheduling can never leak into a merge.  A
    worker that raises ships its exception back (original type when
    picklable); the pool then terminates the remaining workers and
    re-raises in the parent.  A worker that *dies* - OOM kill, segfault -
    can never send a result, so the collector polls liveness every
    :data:`LIVENESS_INTERVAL_S` and raises :class:`EngineError` once no
    live worker remains while tasks are still owed.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(self, fn: Callable[[Task], Result], tasks: Sequence[Task]) -> List[Result]:
        """Run ``fn`` over ``tasks`` on the pool; results in task order."""
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        return self._map_pooled(fn, tasks)

    def _map_pooled(
        self, fn: Callable[[Task], Result], tasks: List[Task]
    ) -> List[Result]:
        registry = _metrics_active()
        worker_count = min(self.workers, len(tasks))
        context = multiprocessing.get_context("spawn")
        task_queue = context.Queue()
        result_queue = context.Queue()
        for index, task in enumerate(tasks):
            task_queue.put((index, fn, task))
        for _ in range(worker_count):
            task_queue.put(None)
        pool_started = perf_counter()
        if registry is not None:
            registry.gauge("pool.workers", worker_count)
        processes = []
        spawn_started: Dict[int, float] = {}
        for worker_id in range(worker_count):
            process = context.Process(
                target=_pool_worker,
                args=(worker_id, task_queue, result_queue),
                daemon=True,
            )
            spawn_started[worker_id] = perf_counter()
            process.start()
            processes.append(process)
        results: List[object] = [_PENDING] * len(tasks)
        tasks_done: Dict[int, int] = {worker_id: 0 for worker_id in range(worker_count)}
        pending = len(tasks)
        failure: Optional[BaseException] = None
        try:
            while pending:
                try:
                    kind, worker_id, payload, waited = result_queue.get(
                        timeout=LIVENESS_INTERVAL_S
                    )
                except queue_module.Empty:
                    # Workers retire only after a sentinel, which sits
                    # *behind* every task - so an early exit with work
                    # still owed means siblings drained the queue while
                    # this one crashed.  Only the all-dead case is
                    # conclusive: its claimed task can no longer arrive.
                    if all(not process.is_alive() for process in processes):
                        raise EngineError(
                            f"worker pool died with {pending} task(s) "
                            f"unfinished (a worker was killed before "
                            f"returning its result)"
                        )
                    continue
                if kind == _READY:
                    if registry is not None:
                        registry.observe(
                            "pool.worker_spawn_s",
                            perf_counter() - spawn_started[worker_id],
                        )
                    continue
                if registry is not None:
                    registry.observe("pool.task_wait_s", waited)
                if kind == _ERROR:
                    _index, failure = payload
                    break
                index, result = payload
                results[index] = result
                tasks_done[worker_id] += 1
                pending -= 1
        finally:
            self._drain_ready(result_queue, registry, spawn_started)
            self._shutdown(processes, abandon=pending > 0)
            task_queue.close()
            result_queue.close()
        if failure is not None:
            raise failure
        if registry is not None:
            for worker_id in range(worker_count):
                registry.observe("pool.tasks_per_worker", tasks_done[worker_id])
            registry.record_span(
                "executor.pool",
                pool_started,
                perf_counter() - pool_started,
                (("tasks", len(tasks)), ("workers", worker_count)),
            )
        return results  # type: ignore[return-value]

    @staticmethod
    def _drain_ready(result_queue, registry, spawn_started: Dict[int, float]) -> None:
        """Consume any late ``ready`` announcements still queued.

        A worker spawned slowly enough that its siblings finished the
        whole task list still reports readiness; draining keeps the
        spawn histogram complete and the queue's feeder thread happy.
        """
        while True:
            try:
                kind, worker_id, _payload, _waited = result_queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return
            if kind == _READY and registry is not None:
                registry.observe(
                    "pool.worker_spawn_s",
                    perf_counter() - spawn_started[worker_id],
                )

    @staticmethod
    def _shutdown(processes, abandon: bool) -> None:
        """Retire the pool: join politely, terminate whatever won't go.

        ``abandon`` (an error or interrupt left tasks unfinished) skips
        straight to termination - the queued sentinels may never be
        reached behind abandoned tasks, so a polite join could hang.
        """
        if abandon:
            for process in processes:
                if process.is_alive():
                    process.terminate()
        for process in processes:
            process.join(timeout=JOIN_TIMEOUT_S)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=JOIN_TIMEOUT_S)

