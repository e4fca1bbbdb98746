"""Consistent cuts and recovery lines - the "recovery from failures" application.

The paper's abstract motivates causality tracking with recovery: after a
failure, a system must roll back to a *consistent* global state, i.e. a cut
of the computation that is closed under happened-before (if an event is
included, everything that happened before it is included too).  With vector
clock timestamps that closure test is a simple vector comparison, so this
module implements the standard constructions directly on top of the
library's clocks:

* :func:`is_consistent_cut` - is a given set of events left-closed under
  happened-before?
* :func:`causal_past_cut` - the smallest consistent cut containing a set of
  events (their combined causal past), which is exactly the state a
  debugger or recovery protocol must restore to "re-execute from just
  before these events";
* :func:`latest_consistent_cut` - the largest consistent cut containing at
  most the first ``k_t`` events of each thread (the recovery line for a set
  of per-thread checkpoints);
* :class:`CheckpointManager` - per-thread checkpoints with timestamps, and
  the recovery line computation over them.

Everything here works with any valid timestamping of the computation (the
optimal mixed clock included); tests cross-check the cut computations
against the exact happened-before oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.computation.event import Event, ThreadId
from repro.computation.trace import Computation
from repro.core.timestamping import TimestampedComputation
from repro.exceptions import ComputationError


def is_consistent_cut(computation: Computation, events: Iterable[Event]) -> bool:
    """``True`` iff ``events`` is left-closed under happened-before.

    Uses only the events' immediate predecessors (the cut is closed iff it
    contains each member's thread-predecessor and object-predecessor),
    which is equivalent to closure under the full relation and avoids
    building the transitive closure.
    """
    cut: Set[Event] = set(events)
    for event in cut:  # repro: noqa[D101] pure all-quantified membership test; the verdict is order-independent
        for predecessor in computation.immediate_predecessors(event):
            if predecessor not in cut:
                return False
    return True


def causal_past_cut(computation: Computation, events: Iterable[Event]) -> FrozenSet[Event]:
    """The smallest consistent cut containing ``events``.

    Computed by walking immediate predecessors backwards; the result always
    satisfies :func:`is_consistent_cut`.
    """
    cut: Set[Event] = set()
    frontier: List[Event] = list(events)
    for event in frontier:
        if event.index >= len(computation.events) or computation.events[event.index] != event:
            raise ComputationError(f"event {event} does not belong to this computation")
    while frontier:
        event = frontier.pop()
        if event in cut:
            continue
        cut.add(event)
        frontier.extend(computation.immediate_predecessors(event))
    return frozenset(cut)


def frontier_of(cut: Iterable[Event]) -> Dict[ThreadId, Event]:
    """The last event of each thread inside a cut (the cut's frontier)."""
    frontier: Dict[ThreadId, Event] = {}
    for event in cut:
        current = frontier.get(event.thread)
        if current is None or event.thread_seq > current.thread_seq:
            frontier[event.thread] = event
    return frontier


def latest_consistent_cut(
    computation: Computation, limits: Mapping[ThreadId, int]
) -> FrozenSet[Event]:
    """The largest consistent cut taking at most ``limits[t]`` events per thread.

    ``limits`` maps each thread to how many of its first events may be kept
    (its checkpoint position); threads not mentioned contribute no events.
    This is the classical "recovery line" computation: start from the
    per-thread checkpoints and repeatedly drop events whose predecessors
    fall outside the cut, until the cut is consistent.
    """
    kept: Dict[ThreadId, int] = {}
    for thread in computation.threads:
        limit = limits.get(thread, 0)
        if limit < 0:
            raise ComputationError(f"limit for thread {thread!r} must be non-negative")
        kept[thread] = min(limit, len(computation.thread_events(thread)))

    # Rollback propagation ("domino effect"): while some kept event has a
    # predecessor that is not kept, truncate its thread just before it.
    # ``kept`` only ever decreases, so the loop terminates; the fixpoint is
    # the unique largest consistent cut within the limits.
    changed = True
    while changed:
        changed = False
        for thread in computation.threads:
            for event in computation.thread_events(thread)[: kept[thread]]:
                dropped = False
                for predecessor in computation.immediate_predecessors(event):
                    if predecessor.thread_seq >= kept.get(predecessor.thread, 0):
                        kept[thread] = event.thread_seq
                        changed = True
                        dropped = True
                        break
                if dropped:
                    break

    cut: Set[Event] = set()
    for thread, count in kept.items():
        cut.update(computation.thread_events(thread)[:count])
    return frozenset(cut)


@dataclass(frozen=True)
class Checkpoint:
    """A per-thread checkpoint: the thread has executed ``position`` events."""

    thread: ThreadId
    position: int
    timestamp: Optional[object] = None


class CheckpointManager:
    """Track per-thread checkpoints of a timestamped computation.

    A recovery protocol periodically checkpoints each thread.  After a
    failure the system rolls back to the *recovery line*: the largest
    consistent cut that keeps, for every thread, at most the events up to
    its most recent checkpoint.  The manager stores checkpoints (with the
    clock value at that point, taken from the timestamped computation) and
    computes that line on demand.
    """

    def __init__(self, stamped: TimestampedComputation) -> None:
        self._stamped = stamped
        self._computation = stamped.computation
        self._checkpoints: Dict[ThreadId, Checkpoint] = {}

    @property
    def checkpoints(self) -> Mapping[ThreadId, Checkpoint]:
        return dict(self._checkpoints)

    def take_checkpoint(self, thread: ThreadId, position: int) -> Checkpoint:
        """Record that ``thread`` checkpointed after its first ``position`` events."""
        events = self._computation.thread_events(thread)
        if not (0 <= position <= len(events)):
            raise ComputationError(
                f"checkpoint position {position} out of range for thread {thread!r}"
            )
        timestamp = self._stamped[events[position - 1]] if position else None
        checkpoint = Checkpoint(thread=thread, position=position, timestamp=timestamp)
        self._checkpoints[thread] = checkpoint
        return checkpoint

    def recovery_line(self) -> FrozenSet[Event]:
        """The largest consistent cut respecting every recorded checkpoint."""
        limits = {thread: cp.position for thread, cp in self._checkpoints.items()}
        return latest_consistent_cut(self._computation, limits)

    def rollback_work(self) -> Dict[ThreadId, int]:
        """Events each thread must undo: checkpointed position minus the recovery line."""
        line = frontier_of(self.recovery_line())
        work: Dict[ThreadId, int] = {}
        for thread, checkpoint in self._checkpoints.items():
            kept = line[thread].thread_seq + 1 if thread in line else 0
            work[thread] = checkpoint.position - kept
        return work
