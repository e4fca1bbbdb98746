"""Workload generators: turn access patterns into operation traces.

The paper's evaluation works directly on random bipartite graphs, but the
vector clock protocols themselves operate on *computations* (sequences of
operations).  This module bridges the two worlds:

* :func:`trace_from_graph` expands a thread-object bipartite graph into a
  concrete interleaved computation whose access pattern is exactly that
  graph (used to exercise the clock protocols on the same graphs the paper
  evaluates).
* :func:`random_trace` generates an operation trace directly by repeatedly
  picking a thread and one of the objects it may access - the setting an
  online algorithm faces.
* Scenario generators (:func:`producer_consumer_trace`,
  :func:`work_stealing_trace`, :func:`lock_hierarchy_trace`,
  :func:`pipeline_trace`) model the kinds of multithreaded programs the
  paper's introduction motivates (debugging, visualisation); they are used
  by the examples and the runtime benchmarks.

Every generator takes a ``seed`` so that experiments are reproducible.

These generators produce *finite, materialised* computations - the input
shape of the figure-reproduction experiments.  Each is also registered as
a ``trace`` scenario in the :mod:`~repro.computation.registry`, which is
where the CLI and the experiment harness look workloads up; the
unbounded/streaming counterparts (event streams with churn and expiry for
the sliding-window monitoring regime) live in
:mod:`repro.computation.streams`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.computation.registry import TRACE, register_scenario
from repro.computation.trace import Computation, ComputationBuilder
from repro.exceptions import ComputationError
from repro.graph.bipartite import BipartiteGraph, vertex_sort_key
from repro.graph.generators import SeedLike, object_names, thread_names, _rng


def trace_from_graph(
    graph: BipartiteGraph,
    operations_per_edge: int = 1,
    shuffle: bool = True,
    seed: SeedLike = None,
) -> Computation:
    """Expand a bipartite access pattern into an interleaved computation.

    Each edge ``(t, o)`` contributes ``operations_per_edge`` operations of
    thread ``t`` on object ``o``.  With ``shuffle=True`` (default) the
    resulting operations are interleaved in a random global order, which
    produces non-trivial cross-thread causality through shared objects.

    The returned computation's :meth:`~repro.computation.trace.Computation.bipartite_graph`
    equals ``graph`` up to isolated vertices (vertices with no incident
    edge cannot appear in any operation).  Edges are expanded in canonical
    :func:`~repro.graph.bipartite.vertex_sort_key` order (``graph.edges()``
    walks adjacency sets, whose order changes with ``PYTHONHASHSEED``), so
    a seeded trace is the same in every process.
    """
    if operations_per_edge < 1:
        raise ComputationError("operations_per_edge must be >= 1")
    rng = _rng(seed)
    pairs: List[Tuple[object, object]] = []
    edges = sorted(
        graph.edges(), key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1]))
    )
    for edge in edges:
        pairs.extend([edge] * operations_per_edge)
    if shuffle:
        rng.shuffle(pairs)
    return Computation.from_pairs(pairs)


def random_trace(
    num_threads: int,
    num_objects: int,
    num_events: int,
    locality: float = 0.0,
    seed: SeedLike = None,
) -> Computation:
    """Generate a random operation trace event by event.

    Each event picks a uniformly random thread.  With probability
    ``locality`` the thread re-accesses one of the objects it has already
    touched (if any); otherwise it picks a uniformly random object.  Higher
    locality produces sparser thread-object graphs, which is the regime
    where the paper's mechanisms shine.
    """
    if num_events < 0:
        raise ComputationError("num_events must be non-negative")
    if not (0.0 <= locality <= 1.0):
        raise ComputationError("locality must be in [0, 1]")
    rng = _rng(seed)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    touched: Dict[str, List[str]] = {t: [] for t in threads}
    builder = ComputationBuilder()
    for _ in range(num_events):
        thread = rng.choice(threads)
        previously = touched[thread]
        if previously and rng.random() < locality:
            obj = rng.choice(previously)
        else:
            obj = rng.choice(objects)
            if obj not in previously:
                previously.append(obj)
        builder.append(thread, obj)
    return builder.build()


def producer_consumer_trace(
    num_producers: int = 4,
    num_consumers: int = 4,
    num_queues: int = 2,
    items_per_producer: int = 25,
    seed: SeedLike = None,
) -> Computation:
    """A producer/consumer program over shared queues.

    Producers repeatedly write to a (randomly chosen) shared queue object;
    consumers read from queues.  Each thread also touches a private state
    object, so the thread-object graph has a few very popular vertices (the
    queues) and many degree-1 vertices - the Nonuniform regime where a
    mixed clock is much smaller than ``min(n, m)``.
    """
    rng = _rng(seed)
    producers = [f"producer-{i}" for i in range(num_producers)]
    consumers = [f"consumer-{i}" for i in range(num_consumers)]
    queues = [f"queue-{i}" for i in range(num_queues)]
    builder = ComputationBuilder()
    pending: List[Tuple[str, str, str, bool]] = []
    for producer in producers:
        private = f"state-{producer}"
        for item in range(items_per_producer):
            pending.append((producer, private, f"produce-{item}", True))
            pending.append((producer, rng.choice(queues), f"enqueue-{item}", True))
    for consumer in consumers:
        private = f"state-{consumer}"
        expected = (num_producers * items_per_producer) // max(1, num_consumers)
        for item in range(expected):
            pending.append((consumer, rng.choice(queues), f"dequeue-{item}", False))
            pending.append((consumer, private, f"consume-{item}", True))
    # Interleave while preserving each thread's program order.
    per_thread: Dict[str, List[Tuple[str, str, str, bool]]] = {}
    for entry in pending:
        per_thread.setdefault(entry[0], []).append(entry)
    _interleave(builder, per_thread, rng)
    return builder.build()


def work_stealing_trace(
    num_workers: int = 8,
    tasks_per_worker: int = 20,
    steal_probability: float = 0.2,
    seed: SeedLike = None,
) -> Computation:
    """A work-stealing scheduler: each worker owns a deque, thieves steal.

    Most operations stay on the worker's own deque (high locality); with
    probability ``steal_probability`` a worker touches a victim's deque.
    The resulting graph is sparse with mild popularity skew.
    """
    rng = _rng(seed)
    workers = [f"worker-{i}" for i in range(num_workers)]
    deques = {w: f"deque-{i}" for i, w in enumerate(workers)}
    per_thread: Dict[str, List[Tuple[str, str, str, bool]]] = {w: [] for w in workers}
    for worker in workers:
        for task in range(tasks_per_worker):
            if rng.random() < steal_probability and num_workers > 1:
                victim = rng.choice([w for w in workers if w != worker])
                per_thread[worker].append(
                    (worker, deques[victim], f"steal-{task}", True)
                )
            else:
                per_thread[worker].append(
                    (worker, deques[worker], f"pop-{task}", True)
                )
    builder = ComputationBuilder()
    _interleave(builder, per_thread, rng)
    return builder.build()


def lock_hierarchy_trace(
    num_threads: int = 6,
    num_locks: int = 3,
    num_accounts: int = 12,
    transfers_per_thread: int = 15,
    seed: SeedLike = None,
) -> Computation:
    """A bank-transfer program guarded by a small lock hierarchy.

    Every transfer touches one of a few global lock objects plus two account
    objects, so the lock objects dominate the vertex cover - the motivating
    case for mixing objects into the clock.
    """
    rng = _rng(seed)
    threads = [f"teller-{i}" for i in range(num_threads)]
    locks = [f"lock-{i}" for i in range(num_locks)]
    accounts = [f"account-{i}" for i in range(num_accounts)]
    per_thread: Dict[str, List[Tuple[str, str, str, bool]]] = {t: [] for t in threads}
    for thread in threads:
        for transfer in range(transfers_per_thread):
            src, dst = rng.sample(accounts, 2)
            lock = rng.choice(locks)
            per_thread[thread].extend(
                [
                    (thread, lock, f"acquire-{transfer}", True),
                    (thread, src, f"debit-{transfer}", True),
                    (thread, dst, f"credit-{transfer}", True),
                    (thread, lock, f"release-{transfer}", True),
                ]
            )
    builder = ComputationBuilder()
    _interleave(builder, per_thread, rng)
    return builder.build()


def pipeline_trace(
    num_stages: int = 4,
    workers_per_stage: int = 2,
    items: int = 30,
    seed: SeedLike = None,
) -> Computation:
    """A staged pipeline: stage ``i`` reads buffer ``i`` and writes buffer ``i+1``.

    Buffers between stages are the only shared objects, giving a
    banded/clustered bipartite structure.
    """
    rng = _rng(seed)
    buffers = [f"buffer-{i}" for i in range(num_stages + 1)]
    per_thread: Dict[str, List[Tuple[str, str, str, bool]]] = {}
    for stage in range(num_stages):
        for worker in range(workers_per_stage):
            thread = f"stage{stage}-worker{worker}"
            ops: List[Tuple[str, str, str, bool]] = []
            for item in range(items // workers_per_stage):
                ops.append((thread, buffers[stage], f"read-{item}", False))
                ops.append((thread, buffers[stage + 1], f"write-{item}", True))
            per_thread[thread] = ops
    builder = ComputationBuilder()
    _interleave(builder, per_thread, rng)
    return builder.build()


def paper_example_trace() -> Computation:
    """The computation of Fig. 1 in the paper.

    Reading the figure left to right: thread ``T2`` touches ``O1``, ``O2``
    and ``O3``; ``T1`` touches ``O2``; ``T3`` touches ``O3``; ``T4``
    touches ``O2`` and ``O3``.  Every operation involves ``T2``, ``O2`` or
    ``O3``, so the optimal mixed clock has the three components
    ``{T2, O2, O3}``.
    """
    pairs = [
        ("T2", "O1"),
        ("T1", "O2"),
        ("T2", "O2"),
        ("T2", "O3"),
        ("T3", "O3"),
        ("T4", "O2"),
        ("T4", "O3"),
    ]
    return Computation.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Registry entries
# ---------------------------------------------------------------------------
# One adapter per generator pins the configuration the CLI and experiment
# harness run (the registry's trace contract is ``factory(seed)``); the
# generators above stay directly callable with their full signatures.
@register_scenario(
    "paper-example",
    kind=TRACE,
    description="the running example of Fig. 1 (fixed; seed ignored)",
)
def _paper_example_scenario(seed: SeedLike = None) -> Computation:  # repro: noqa[C204] the paper's worked example is constant by definition; the registry contract fixes the factory(seed) shape
    return paper_example_trace()


@register_scenario(
    "producer-consumer",
    kind=TRACE,
    description="producers and consumers sharing a few hot queues",
)
def _producer_consumer_scenario(seed: SeedLike = None) -> Computation:
    return producer_consumer_trace(seed=seed)


@register_scenario(
    "work-stealing",
    kind=TRACE,
    description="per-worker deques with occasional cross-worker steals",
)
def _work_stealing_scenario(seed: SeedLike = None) -> Computation:
    return work_stealing_trace(seed=seed)


@register_scenario(
    "lock-hierarchy",
    kind=TRACE,
    description="bank transfers guarded by a small global lock hierarchy",
)
def _lock_hierarchy_scenario(seed: SeedLike = None) -> Computation:
    return lock_hierarchy_trace(seed=seed)


@register_scenario(
    "pipeline",
    kind=TRACE,
    description="staged pipeline communicating through inter-stage buffers",
)
def _pipeline_scenario(seed: SeedLike = None) -> Computation:
    return pipeline_trace(seed=seed)


@register_scenario(
    "random",
    kind=TRACE,
    description="10 threads x 20 objects, 400 events, locality 0.5",
)
def _random_scenario(seed: SeedLike = None) -> Computation:
    return random_trace(10, 20, 400, locality=0.5, seed=seed)


def _interleave(
    builder: ComputationBuilder,
    per_thread: Dict[str, List[Tuple[str, str, str, bool]]],
    rng: random.Random,
) -> None:
    """Randomly interleave per-thread operation lists, preserving program order."""
    queues = {thread: list(ops) for thread, ops in per_thread.items() if ops}
    while queues:
        thread = rng.choice(list(queues))
        thread_name, obj, label, is_write = queues[thread].pop(0)
        builder.append(thread_name, obj, label=label, is_write=is_write)
        if not queues[thread]:
            del queues[thread]
