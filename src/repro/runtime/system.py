"""A deterministic simulated concurrent system.

The paper's setting is a multithreaded program whose threads operate on
shared objects with per-object mutual exclusion.  Benchmarking real Python
threads would mostly measure the GIL rather than the algorithms (the
reproduction notes call this out), so the library ships a small
*simulated* concurrent system: threads are programs (sequences of steps),
objects are named cells with values, and a seeded scheduler interleaves
runnable threads one step at a time.  The output is exactly what the
clocks consume - a :class:`~repro.computation.trace.Computation` - plus the
final object values, so examples and tests can assert functional results
as well as causality.

A real-`threading` based tracer lives in :mod:`repro.runtime.instrument`
for users who want to trace actual thread interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.computation.trace import Computation, ComputationBuilder
from repro.exceptions import RuntimeSystemError
from repro.graph.generators import SeedLike, _rng

#: A step mutates (or reads) the current value of an object and returns the new value.
StepFunction = Callable[[Any], Any]


@dataclass(frozen=True)
class Step:
    """One program step.

    ``kind`` is one of ``"access"`` (read or write ``obj``'s value),
    ``"acquire"`` (block until the lock object ``obj`` is free, then hold
    it) or ``"release"`` (release a lock held by this thread).  ``is_write``
    and ``label`` are propagated to the resulting trace event; acquire and
    release are synchronisation accesses, which the race detector treats
    specially.
    """

    obj: str
    function: Optional[StepFunction] = None
    label: str = ""
    is_write: bool = True
    kind: str = "access"

    @property
    def is_sync(self) -> bool:
        """``True`` for lock acquire/release steps."""
        return self.kind in ("acquire", "release")


def read(obj: str, label: str = "read") -> Step:
    """A read-only step (does not change the object's value)."""
    return Step(obj=obj, function=None, label=label, is_write=False)


def write(obj: str, function: StepFunction, label: str = "write") -> Step:
    """A step that replaces the object's value with ``function(old_value)``."""
    return Step(obj=obj, function=function, label=label, is_write=True)


def increment(obj: str, amount: int = 1) -> Step:
    """A step that adds ``amount`` to a numeric object."""
    return Step(
        obj=obj,
        function=lambda value: (value or 0) + amount,
        label=f"increment+{amount}",
        is_write=True,
    )


def acquire(lock: str) -> Step:
    """A synchronisation step that blocks until ``lock`` is free, then holds it."""
    return Step(obj=lock, function=None, label="acquire", is_write=True, kind="acquire")


def release(lock: str) -> Step:
    """A synchronisation step that releases a lock held by the executing thread."""
    return Step(obj=lock, function=None, label="release", is_write=True, kind="release")


@dataclass
class ThreadProgram:
    """A named thread plus the ordered steps it will execute."""

    name: str
    steps: Sequence[Step]


@dataclass(frozen=True)
class ExecutionResult:
    """Everything a simulated run produced."""

    computation: Computation
    final_values: Mapping[str, Any]
    sync_objects: frozenset
    schedule: Tuple[str, ...]

    @property
    def num_events(self) -> int:
        return len(self.computation)


class ConcurrentSystem:
    """A collection of thread programs over shared objects, plus a scheduler.

    Usage::

        system = ConcurrentSystem()
        system.add_object("counter", 0)
        system.add_thread("worker-0", [increment("counter") for _ in range(10)])
        system.add_thread("worker-1", [increment("counter") for _ in range(10)])
        result = system.run(seed=7)
        assert result.final_values["counter"] == 20

    The scheduler picks a runnable thread uniformly at random (seeded) per
    step, or round-robin when ``policy="round-robin"``; every interleaving
    it produces respects each thread's program order and serialises the
    accesses to each object, exactly as the paper's model requires.
    """

    def __init__(self) -> None:
        self._programs: Dict[str, List[Step]] = {}
        self._initial_values: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_object(self, name: str, initial_value: Any = None) -> None:
        """Declare a shared object with an initial value."""
        if name in self._programs:
            raise RuntimeSystemError(f"{name!r} is already a thread name")
        self._initial_values[name] = initial_value

    def add_thread(self, name: str, steps: Sequence[Step]) -> None:
        """Register a thread program."""
        if name in self._programs:
            raise RuntimeSystemError(f"thread {name!r} already registered")
        if name in self._initial_values:
            raise RuntimeSystemError(f"{name!r} is already an object name")
        self._programs[name] = list(steps)

    @property
    def thread_names(self) -> Tuple[str, ...]:
        return tuple(self._programs)

    @property
    def object_names(self) -> Tuple[str, ...]:
        names = dict(self._initial_values)
        for steps in self._programs.values():
            for step in steps:
                names.setdefault(step.obj, None)
        return tuple(names)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, seed: SeedLike = None, policy: str = "random") -> ExecutionResult:
        """Execute all programs to completion under the chosen scheduler.

        Lock semantics are enforced: a thread whose next step is an
        ``acquire`` of a lock currently held by another thread is not
        runnable until the holder releases it.  A ``release`` of a lock the
        thread does not hold, or a schedule in which every remaining thread
        is blocked (deadlock), raises :class:`RuntimeSystemError`.
        """
        if not self._programs:
            raise RuntimeSystemError("no threads registered")
        if policy not in ("random", "round-robin"):
            raise RuntimeSystemError(f"unknown scheduling policy: {policy!r}")
        rng = _rng(seed)
        values: Dict[str, Any] = dict(self._initial_values)
        cursors: Dict[str, int] = {name: 0 for name in self._programs}
        lock_holder: Dict[str, str] = {}
        builder = ComputationBuilder()
        schedule: List[str] = []
        sync_objects: set = set()

        unfinished = [name for name, steps in self._programs.items() if steps]
        round_robin_index = 0

        def next_step(thread: str) -> Step:
            return self._programs[thread][cursors[thread]]

        def is_runnable(thread: str) -> bool:
            step = next_step(thread)
            if step.kind == "acquire":
                return lock_holder.get(step.obj) in (None, thread)
            return True

        while unfinished:
            runnable = [name for name in unfinished if is_runnable(name)]
            if not runnable:
                blocked = {name: next_step(name).obj for name in unfinished}
                raise RuntimeSystemError(f"deadlock: all remaining threads blocked on {blocked}")
            if policy == "random":
                thread = rng.choice(runnable)
            else:
                thread = runnable[round_robin_index % len(runnable)]
                round_robin_index += 1
            step = next_step(thread)
            current = values.get(step.obj)
            if step.kind == "acquire":
                lock_holder[step.obj] = thread
                sync_objects.add(step.obj)
            elif step.kind == "release":
                if lock_holder.get(step.obj) != thread:
                    raise RuntimeSystemError(
                        f"thread {thread!r} released lock {step.obj!r} it does not hold"
                    )
                del lock_holder[step.obj]
                sync_objects.add(step.obj)
            elif step.function is not None:
                values[step.obj] = step.function(current)
            else:
                values.setdefault(step.obj, current)
            builder.append(thread, step.obj, label=step.label, is_write=step.is_write)
            schedule.append(thread)
            cursors[thread] += 1
            if cursors[thread] >= len(self._programs[thread]):
                unfinished.remove(thread)

        return ExecutionResult(
            computation=builder.build(),
            final_values=dict(values),
            sync_objects=frozenset(sync_objects),
            schedule=tuple(schedule),
        )


def counter_workload(num_threads: int = 4, increments: int = 25) -> ConcurrentSystem:
    """A canonical shared-counter program guarded by a single lock."""
    system = ConcurrentSystem()
    system.add_object("counter", 0)
    for i in range(num_threads):
        steps: List[Step] = []
        for _ in range(increments):
            steps.append(acquire("counter-lock"))
            steps.append(increment("counter"))
            steps.append(release("counter-lock"))
        system.add_thread(f"worker-{i}", steps)
    return system
