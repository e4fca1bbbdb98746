"""The happened-before partial order of a computation.

:class:`HappenedBefore` materialises Lamport's happened-before relation for
a :class:`~repro.computation.trace.Computation` exactly as defined in
Section II of the paper: the smallest transitive relation containing

1. consecutive events of the same thread, and
2. consecutive events on the same object.

It answers reachability ("does ``e`` happen before ``f``?"), concurrency,
and exposes the whole relation as predecessor/successor sets.  The class is
*the independent oracle* the test suite compares every vector clock
implementation against (Theorem 2: ``s → t  ⇔  s.v < t.v``), so it is kept
deliberately simple: an explicit DAG plus a transitive closure computed
with a reverse-topological sweep over the event indices (the interleaving
order is already a linear extension of the partial order, which makes the
sweep a single pass).

For large computations the closure costs ``O(|E|^2 / 64)`` bits of memory
(Python integers used as bitsets); the library's algorithms never need it —
only tests and the analysis tooling do.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Tuple

from repro.computation.event import Event
from repro.computation.trace import Computation
from repro.exceptions import ComputationError


class HappenedBefore:
    """Reachability oracle for the happened-before relation of a computation."""

    def __init__(self, computation: Computation):
        self._computation = computation
        self._events = computation.events
        # descendants[i] is a bitmask over event indices j with  i -> j  or i == j.
        self._descendants: List[int] = [0] * len(self._events)
        self._build_closure()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_closure(self) -> None:
        events = self._events
        # The global interleaving order is a linear extension: an event's
        # successors always have larger indices, so one reverse pass suffices.
        for event in reversed(events):
            mask = 1 << event.index
            for successor in self._computation.immediate_successors(event):
                mask |= self._descendants[successor.index]
            self._descendants[event.index] = mask

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------
    @property
    def computation(self) -> Computation:
        return self._computation

    def happened_before(self, earlier: Event, later: Event) -> bool:
        """``True`` iff ``earlier → later`` (strictly; an event does not
        happen before itself)."""
        self._check(earlier)
        self._check(later)
        if earlier.index == later.index:
            return False
        return bool(self._descendants[earlier.index] >> later.index & 1)

    def causally_related(self, a: Event, b: Event) -> bool:
        """``True`` iff ``a → b`` or ``b → a`` (the paper's "comparable")."""
        return self.happened_before(a, b) or self.happened_before(b, a)

    def concurrent(self, a: Event, b: Event) -> bool:
        """``True`` iff ``a ∥ b``: distinct and causally unrelated."""
        self._check(a)
        self._check(b)
        if a.index == b.index:
            return False
        return not self.causally_related(a, b)

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    def successors(self, event: Event) -> FrozenSet[Event]:
        """All events ``f`` with ``event → f``."""
        self._check(event)
        mask = self._descendants[event.index] & ~(1 << event.index)
        return frozenset(self._events[i] for i in _bits(mask))

    def predecessors(self, event: Event) -> FrozenSet[Event]:
        """All events ``f`` with ``f → event``."""
        self._check(event)
        target_bit = event.index
        return frozenset(
            self._events[i]
            for i in range(len(self._events))
            if i != target_bit and (self._descendants[i] >> target_bit) & 1
        )

    def concurrent_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Iterate over all unordered concurrent pairs ``(a, b)`` with ``a.index < b.index``."""
        events = self._events
        for i, a in enumerate(events):
            desc_a = self._descendants[i]
            for j in range(i + 1, len(events)):
                if not (desc_a >> j) & 1:
                    yield (a, events[j])

    def comparable_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Iterate over all ordered pairs ``(a, b)`` with ``a → b``."""
        events = self._events
        for i, a in enumerate(events):
            desc_a = self._descendants[i] & ~(1 << i)
            for j in _bits(desc_a):
                yield (a, events[j])

    def width_lower_bound(self, sample_antichain: bool = True) -> int:
        """A lower bound on the poset width via a greedy antichain.

        The poset width governs the chain-clock baseline's component count
        (Agarwal-Garg); this greedy bound is only used in reports, never in
        the algorithms themselves.
        """
        best = 0
        taken: List[Event] = []
        for event in self._events:
            if all(not self.causally_related(event, other) for other in taken):
                taken.append(event)
        best = len(taken)
        return best

    # ------------------------------------------------------------------
    # Consistency helpers
    # ------------------------------------------------------------------
    def is_linear_extension(self, order: Iterable[Event]) -> bool:
        """``True`` iff ``order`` lists every event once and respects ``→``."""
        ordered = list(order)
        if sorted(e.index for e in ordered) != list(range(len(self._events))):
            return False
        position = {event.index: pos for pos, event in enumerate(ordered)}
        for a, b in self.comparable_pairs():
            if position[a.index] > position[b.index]:
                return False
        return True

    def _check(self, event: Event) -> None:
        if event.index >= len(self._events) or self._events[event.index] is not event:
            # Allow equal (==) events from a rebuilt trace as well.
            if (
                event.index >= len(self._events)
                or self._events[event.index] != event
            ):
                raise ComputationError(
                    f"event {event} does not belong to this computation"
                )


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ``mask`` (ascending)."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1
