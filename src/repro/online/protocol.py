"""Online timestamping with a growing component set.

The paper's Section IV concentrates on how *large* the component set grows
under each online mechanism; this module supplies the piece a real system
also needs: actually issuing timestamps while the component set is still
growing.

:class:`SparseTimestamp` is a dictionary-backed vector clock value: slots
that a timestamp has never heard of are implicitly zero.  Because the
online setting only ever *adds* components (never removes or renames them),
comparing two sparse timestamps with missing-is-zero semantics is exactly
the comparison the dense vectors would have produced had the final
component set been known from the start.  The property test suite verifies
this equivalence (``s → t ⇔ s.v < t.v``) against the happened-before
oracle for all mechanisms.

:class:`OnlineClockProtocol` pairs an
:class:`~repro.online.base.OnlineMechanism` with per-thread / per-object
sparse clocks and applies the Section III-C update rule using whatever
components exist at the moment each event is revealed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

from repro.computation.event import Event, ObjectId, ThreadId
from repro.computation.trace import Computation
from repro.exceptions import ClockError
from repro.online.base import OnlineMechanism


class SparseTimestamp:
    """An immutable, dictionary-backed vector clock value.

    Only non-zero slots are stored; missing components compare as zero.
    Unlike :class:`~repro.core.clock.Timestamp`, two sparse timestamps are
    always comparable - the component universe is implicitly "everything
    either of them mentions", which is sound when components are only ever
    appended over time.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[Hashable, int]] = None) -> None:
        cleaned = {k: int(v) for k, v in (values or {}).items() if int(v) != 0}
        if any(v < 0 for v in cleaned.values()):
            raise ClockError("timestamp values must be non-negative")
        self._values: Dict[Hashable, int] = cleaned

    # -- accessors --------------------------------------------------------
    def value_of(self, component: Hashable) -> int:
        return self._values.get(component, 0)

    def as_dict(self) -> Dict[Hashable, int]:
        return dict(self._values)

    def components(self) -> frozenset:
        """The components this timestamp has non-zero knowledge of."""
        return frozenset(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Tuple[Hashable, int]]:
        return iter(self._values.items())

    # -- derivation --------------------------------------------------------
    def merged(self, other: "SparseTimestamp") -> "SparseTimestamp":
        """Component-wise maximum."""
        merged = dict(self._values)
        for component, value in other._values.items():
            if merged.get(component, 0) < value:
                merged[component] = value
        return SparseTimestamp(merged)

    def incremented(self, component: Hashable, amount: int = 1) -> "SparseTimestamp":
        if amount < 1:
            raise ClockError("increment amount must be positive")
        values = dict(self._values)
        values[component] = values.get(component, 0) + amount
        return SparseTimestamp(values)

    # -- order --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTimestamp):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __le__(self, other: "SparseTimestamp") -> bool:
        return all(other.value_of(c) >= v for c, v in self._values.items())

    def __lt__(self, other: "SparseTimestamp") -> bool:
        return self <= other and self._values != other._values

    def __ge__(self, other: "SparseTimestamp") -> bool:
        return other <= self

    def __gt__(self, other: "SparseTimestamp") -> bool:
        return other < self

    def concurrent_with(self, other: "SparseTimestamp") -> bool:
        return not (self <= other) and not (other <= self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}:{v}" for c, v in sorted(self._values.items(), key=str))
        return f"<{inner}>"


ZERO = SparseTimestamp()


class OnlineClockProtocol:
    """Timestamp an online event stream while a mechanism grows the clock.

    Parameters
    ----------
    mechanism:
        A fresh :class:`~repro.online.base.OnlineMechanism`; the protocol
        drives it (one ``observe`` per event) and therefore owns it - do
        not feed the same mechanism from elsewhere at the same time.
    """

    def __init__(self, mechanism: OnlineMechanism) -> None:
        if mechanism.events_seen:
            raise ClockError("mechanism has already observed events; use a fresh one")
        self._mechanism = mechanism
        self._thread_clocks: Dict[ThreadId, SparseTimestamp] = {}
        self._object_clocks: Dict[ObjectId, SparseTimestamp] = {}
        self._event_timestamps: Dict[Event, SparseTimestamp] = {}

    # ------------------------------------------------------------------
    @property
    def mechanism(self) -> OnlineMechanism:
        return self._mechanism

    @property
    def clock_size(self) -> int:
        """Current clock dimension (number of components added so far)."""
        return self._mechanism.clock_size

    def thread_clock(self, thread: ThreadId) -> SparseTimestamp:
        return self._thread_clocks.get(thread, ZERO)

    def object_clock(self, obj: ObjectId) -> SparseTimestamp:
        return self._object_clocks.get(obj, ZERO)

    # ------------------------------------------------------------------
    def observe(self, thread: ThreadId, obj: ObjectId) -> SparseTimestamp:
        """Reveal one operation: grow the clock if needed, then timestamp it."""
        self._mechanism.observe(thread, obj)
        stamped = self.thread_clock(thread).merged(self.object_clock(obj))
        if obj in self._mechanism.object_components:
            stamped = stamped.incremented(obj)
        if thread in self._mechanism.thread_components:
            stamped = stamped.incremented(thread)
        self._thread_clocks[thread] = stamped
        self._object_clocks[obj] = stamped
        return stamped

    def observe_event(self, event: Event) -> SparseTimestamp:
        """Reveal an already-minted event and remember its timestamp."""
        stamp = self.observe(event.thread, event.obj)
        self._event_timestamps[event] = stamp
        return stamp

    def timestamp_computation(self, computation: Computation) -> Dict[Event, SparseTimestamp]:
        """Reveal a whole computation in interleaving order; returns all timestamps."""
        if self._event_timestamps or self._mechanism.events_seen:
            raise ClockError("protocol has already observed events; use a fresh instance")
        for event in computation:
            self.observe_event(event)
        return dict(self._event_timestamps)

    def timestamp(self, event: Event) -> SparseTimestamp:
        try:
            return self._event_timestamps[event]
        except KeyError:
            raise ClockError(f"event {event} was not timestamped") from None

    # ------------------------------------------------------------------
    def happened_before(self, earlier: Event, later: Event) -> bool:
        return self.timestamp(earlier) < self.timestamp(later)

    def concurrent(self, a: Event, b: Event) -> bool:
        if a == b:
            return False
        return self.timestamp(a).concurrent_with(self.timestamp(b))
