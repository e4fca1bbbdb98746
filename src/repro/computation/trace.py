"""Computations: totally-ordered traces of events with partial-order semantics.

A :class:`Computation` is the library's representation of the paper's
``(E, →)``: a finite set of events produced by sequential threads operating
on serialised objects.  We store the events in one global interleaving
order (the order in which the operations were revealed / executed), which
is strictly more information than the happened-before partial order but is
exactly what an online algorithm observes and what a trace file records.
The partial order itself is recovered by
:class:`~repro.computation.poset.HappenedBefore`.

The class also knows how to project itself onto the thread-object bipartite
graph of Section III-A (:meth:`Computation.bipartite_graph`), which is the
input of the offline algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.computation.event import Event, ObjectId, Operation, ThreadId
from repro.exceptions import ComputationError
from repro.graph.bipartite import BipartiteGraph


class Computation:
    """An immutable trace of events.

    Build one either from :class:`~repro.computation.event.Operation`
    requests via :meth:`from_operations`, from bare ``(thread, object)``
    pairs via :meth:`from_pairs`, or incrementally with
    :class:`ComputationBuilder` (used by the runtime and the online
    simulator).
    """

    def __init__(self, events: Sequence[Event]):
        self._events: Tuple[Event, ...] = tuple(events)
        self._validate()
        self._by_thread: Dict[ThreadId, List[Event]] = defaultdict(list)
        self._by_object: Dict[ObjectId, List[Event]] = defaultdict(list)
        for event in self._events:
            self._by_thread[event.thread].append(event)
            self._by_object[event.obj].append(event)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_operations(cls, operations: Iterable[Operation]) -> "Computation":
        """Build a computation from an interleaved operation sequence."""
        builder = ComputationBuilder()
        for op in operations:
            builder.append(op.thread, op.obj, label=op.label, is_write=op.is_write)
        return builder.build()

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[ThreadId, ObjectId]]) -> "Computation":
        """Build a computation from bare ``(thread, object)`` pairs."""
        builder = ComputationBuilder()
        for thread, obj in pairs:
            builder.append(thread, obj)
        return builder.build()

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[Event, ...]:
        """All events in global (interleaving) order."""
        return self._events

    @property
    def threads(self) -> Tuple[ThreadId, ...]:
        """Threads appearing in the computation, in order of first event."""
        seen: Dict[ThreadId, None] = {}
        for event in self._events:
            seen.setdefault(event.thread, None)
        return tuple(seen)

    @property
    def objects(self) -> Tuple[ObjectId, ...]:
        """Objects appearing in the computation, in order of first event."""
        seen: Dict[ObjectId, None] = {}
        for event in self._events:
            seen.setdefault(event.obj, None)
        return tuple(seen)

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def num_threads(self) -> int:
        return len(self._by_thread)

    @property
    def num_objects(self) -> int:
        return len(self._by_object)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Computation):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Computation(events={self.num_events}, threads={self.num_threads}, "
            f"objects={self.num_objects})"
        )

    def thread_events(self, thread: ThreadId) -> Tuple[Event, ...]:
        """Events of ``thread`` in program order (a chain of the poset)."""
        if thread not in self._by_thread:
            raise ComputationError(f"unknown thread: {thread!r}")
        return tuple(self._by_thread[thread])

    def object_events(self, obj: ObjectId) -> Tuple[Event, ...]:
        """Events on ``obj`` in serialisation order (a chain of the poset)."""
        if obj not in self._by_object:
            raise ComputationError(f"unknown object: {obj!r}")
        return tuple(self._by_object[obj])

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def bipartite_graph(self) -> BipartiteGraph:
        """The thread-object bipartite graph of this computation (Section III-A).

        An edge ``(t, o)`` exists iff the computation contains at least one
        operation by ``t`` on ``o``; multiplicities are ignored.
        """
        graph = BipartiteGraph(threads=self.threads, objects=self.objects)
        for event in self._events:
            graph.add_edge(event.thread, event.obj)
        return graph

    def access_pairs(self) -> Tuple[Tuple[ThreadId, ObjectId], ...]:
        """The distinct ``(thread, object)`` pairs, in order of first occurrence."""
        seen: Dict[Tuple[ThreadId, ObjectId], None] = {}
        for event in self._events:
            seen.setdefault(event.endpoints(), None)
        return tuple(seen)

    def prefix(self, length: int) -> "Computation":
        """The computation consisting of the first ``length`` events."""
        if length < 0:
            raise ComputationError("prefix length must be non-negative")
        return Computation(self._events[:length])

    def immediate_predecessors(self, event: Event) -> Tuple[Event, ...]:
        """The direct happened-before predecessors of ``event``.

        These are the previous event of the same thread and the previous
        event on the same object (rules 1 and 2 of the happened-before
        definition in Section II).  Either may be absent; if both exist and
        coincide, the single event is returned once.
        """
        predecessors: List[Event] = []
        if event.thread_seq > 0:
            predecessors.append(self._by_thread[event.thread][event.thread_seq - 1])
        if event.object_seq > 0:
            prev_obj = self._by_object[event.obj][event.object_seq - 1]
            if not predecessors or predecessors[0] is not prev_obj:
                predecessors.append(prev_obj)
        return tuple(predecessors)

    def immediate_successors(self, event: Event) -> Tuple[Event, ...]:
        """The direct happened-before successors of ``event``."""
        successors: List[Event] = []
        thread_chain = self._by_thread[event.thread]
        if event.thread_seq + 1 < len(thread_chain):
            successors.append(thread_chain[event.thread_seq + 1])
        object_chain = self._by_object[event.obj]
        if event.object_seq + 1 < len(object_chain):
            nxt = object_chain[event.object_seq + 1]
            if not successors or successors[0] is not nxt:
                successors.append(nxt)
        return tuple(successors)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_pairs(self) -> List[Tuple[ThreadId, ObjectId]]:
        """Flatten back to ``(thread, object)`` pairs in interleaving order."""
        return [event.endpoints() for event in self._events]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        thread_counts: Dict[ThreadId, int] = defaultdict(int)
        object_counts: Dict[ObjectId, int] = defaultdict(int)
        for position, event in enumerate(self._events):
            if event.index != position:
                raise ComputationError(
                    f"event at position {position} has index {event.index}"
                )
            if event.thread_seq != thread_counts[event.thread]:
                raise ComputationError(
                    f"event {event} has thread_seq {event.thread_seq}, "
                    f"expected {thread_counts[event.thread]}"
                )
            if event.object_seq != object_counts[event.obj]:
                raise ComputationError(
                    f"event {event} has object_seq {event.object_seq}, "
                    f"expected {object_counts[event.obj]}"
                )
            thread_counts[event.thread] += 1
            object_counts[event.obj] += 1


class ComputationBuilder:
    """Incrementally assemble a :class:`Computation` one operation at a time.

    The builder assigns global indices and per-chain sequence numbers, so
    callers only supply ``(thread, object)``.  It is the single place in
    the library where events are minted, which keeps the chain-position
    invariants in one spot.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._thread_counts: Dict[ThreadId, int] = defaultdict(int)
        self._object_counts: Dict[ObjectId, int] = defaultdict(int)

    def append(
        self,
        thread: ThreadId,
        obj: ObjectId,
        label: str = "",
        is_write: bool = True,
    ) -> Event:
        """Record one operation and return the minted :class:`Event`."""
        event = Event(
            index=len(self._events),
            thread=thread,
            obj=obj,
            thread_seq=self._thread_counts[thread],
            object_seq=self._object_counts[obj],
            label=label,
            is_write=is_write,
        )
        self._events.append(event)
        self._thread_counts[thread] += 1
        self._object_counts[obj] += 1
        return event

    def extend(self, pairs: Iterable[Tuple[ThreadId, ObjectId]]) -> None:
        """Append many bare ``(thread, object)`` operations."""
        for thread, obj in pairs:
            self.append(thread, obj)

    @property
    def num_events(self) -> int:
        return len(self._events)

    def events_so_far(self) -> Tuple[Event, ...]:
        """Snapshot of the events recorded so far (used by the online simulator)."""
        return tuple(self._events)

    def build(self) -> Computation:
        """Finalize into an immutable :class:`Computation`."""
        return Computation(self._events)
