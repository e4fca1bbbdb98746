"""Events of a thread-object computation.

The paper's system model (Section II) is a set of sequential threads
performing operations on shared objects; every event is an operation by
exactly one thread on exactly one object, and all operations on a single
object are serialised (e.g. by a lock).

:class:`Event` captures one such operation together with the bookkeeping
the rest of the library needs:

* ``thread`` and ``obj`` - the endpoints (``e.thread`` / ``e.object`` in
  the paper's notation);
* ``index`` - the event's global position in the trace (a convenient
  unique identifier; the computation itself is only partially ordered);
* ``thread_seq`` / ``object_seq`` - the event's position within its
  thread's sequence and its object's sequence, which are exactly the two
  chains Lamport's happened-before relation is generated from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

ThreadId = Hashable
ObjectId = Hashable


@dataclass(frozen=True)
class Operation:
    """A not-yet-scheduled operation request: thread ``thread`` acting on ``obj``.

    Operations are what workload generators and the runtime produce;
    :class:`~repro.computation.trace.Computation` turns an operation
    sequence into :class:`Event` instances with chain positions filled in.
    The optional ``label`` and ``is_write`` fields carry application-level
    meaning (e.g. for the race detector) and do not affect causality.
    """

    thread: ThreadId
    obj: ObjectId
    label: str = ""
    is_write: bool = True


@dataclass(frozen=True, order=False)
class Event:
    """One operation of a computation, with its position in both chains.

    Instances are immutable and hashable, so they can serve as vertices of
    the happened-before poset and as dictionary keys for timestamps.
    """

    index: int
    thread: ThreadId
    obj: ObjectId
    thread_seq: int
    object_seq: int
    label: str = ""
    is_write: bool = True

    def same_thread(self, other: "Event") -> bool:
        """``True`` iff both events were executed by the same thread."""
        return self.thread == other.thread

    def same_object(self, other: "Event") -> bool:
        """``True`` iff both events operated on the same object."""
        return self.obj == other.obj

    def endpoints(self) -> tuple:
        """The ``(thread, object)`` pair, i.e. the bipartite-graph edge."""
        return (self.thread, self.obj)

    def describe(self) -> str:
        """Human-readable one-line description, used by examples and reports."""
        kind = "write" if self.is_write else "read"
        suffix = f" [{self.label}]" if self.label else ""
        return (
            f"e{self.index}: {self.thread} {kind}s {self.obj} "
            f"(thread op #{self.thread_seq}, object op #{self.object_seq}){suffix}"
        )

    def __str__(self) -> str:
        return f"[{self.thread},{self.obj}]#{self.index}"
