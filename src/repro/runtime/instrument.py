"""Tracing real Python threads.

:class:`TracingSession` wraps ordinary :mod:`threading` code so that every
access to a traced shared object is recorded as an event, producing the
same :class:`~repro.computation.trace.Computation` the simulator does.  A
single session-wide lock serialises trace appends, which also gives the
per-object serialisation the paper's model assumes (the recorded
interleaving is whatever the OS scheduler actually produced).

This exists so that users can point the library at real multithreaded code;
the *benchmarks* use the deterministic simulator instead because wall-clock
numbers obtained under the GIL say little about the algorithms (see
DESIGN.md, substitutions table).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.computation.trace import Computation, ComputationBuilder
from repro.exceptions import RuntimeSystemError


class TracedObject:
    """A shared value whose reads and writes are recorded by a session."""

    def __init__(self, session: "TracingSession", name: str, initial_value: Any) -> None:
        self._session = session
        self._name = name
        self._value = initial_value

    @property
    def name(self) -> str:
        return self._name

    def read(self, label: str = "read") -> Any:
        """Read the current value (recorded as a read event)."""
        with self._session._lock:
            self._session._record(self._name, label=label, is_write=False)
            return self._value

    def write(self, value: Any, label: str = "write") -> None:
        """Replace the value (recorded as a write event)."""
        with self._session._lock:
            self._session._record(self._name, label=label, is_write=True)
            self._value = value

    def update(self, function: Callable[[Any], Any], label: str = "update") -> Any:
        """Atomically apply ``function`` to the value (one write event)."""
        with self._session._lock:
            self._session._record(self._name, label=label, is_write=True)
            self._value = function(self._value)
            return self._value


class TracingSession:
    """Collects events from real threads accessing :class:`TracedObject`\\ s.

    Thread identity defaults to the current thread's name; spawn worker
    threads with meaningful ``name=`` arguments (or use
    :meth:`run_threads`) so the trace reads well.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._builder = ComputationBuilder()
        self._objects: Dict[str, TracedObject] = {}
        self._finished = False

    # ------------------------------------------------------------------
    def traced_object(self, name: str, initial_value: Any = None) -> TracedObject:
        """Create (or fetch) the traced shared object called ``name``."""
        with self._lock:
            if name not in self._objects:
                self._objects[name] = TracedObject(self, name, initial_value)
            return self._objects[name]

    def _record(self, obj_name: str, label: str, is_write: bool) -> None:
        if self._finished:
            raise RuntimeSystemError("tracing session already finished")
        thread_name = threading.current_thread().name
        self._builder.append(thread_name, obj_name, label=label, is_write=is_write)

    # ------------------------------------------------------------------
    def run_threads(
        self,
        workers: Dict[str, Callable[[], None]],
        timeout: Optional[float] = 30.0,
    ) -> None:
        """Run each callable in its own named thread and join them all."""
        threads = [
            threading.Thread(target=target, name=name, daemon=True)
            for name, target in workers.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise RuntimeSystemError(f"worker {thread.name!r} did not finish")

    def finish(self) -> Computation:
        """Stop recording and return the collected computation."""
        with self._lock:
            self._finished = True
            return self._builder.build()

    @property
    def events_recorded(self) -> int:
        return self._builder.num_events
