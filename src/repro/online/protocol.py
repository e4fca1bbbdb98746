"""Online timestamping with a growing component set.

The paper's Section IV concentrates on how *large* the component set grows
under each online mechanism; this module supplies the piece a real system
also needs: actually issuing timestamps while the component set is still
growing.

:class:`OnlineClockProtocol` is a thin ``Event`` -> token view over
:class:`~repro.online.adaptive.LifecycleClockDriver`, which feeds the
mechanism and mirrors every component it adds onto an
:class:`~repro.core.timestamping.EpochClock` - so the stamps are the
kernel's :class:`~repro.core.clock.Timestamp`, minted by the Section
III-C update rule over whatever components exist when each event is
revealed.  An append-only mechanism never retires a component, so the
driver never rotates and every event stays live.  Every stamp the
protocol returns from :meth:`~OnlineClockProtocol.timestamp` is lifted
to the current component set: a component added after an event was
stamped reads zero in that event's stamp, the value it would have
carried had the final set been known from the start.  So any two stamps
compare, and ``s → t ⇔ s.v < t.v`` holds over the whole computation
(the property test suite checks it against the happened-before oracle
for every mechanism).
"""

from __future__ import annotations

from typing import Dict

from repro.computation.event import Event, ObjectId, ThreadId
from repro.computation.trace import Computation
from repro.core.clock import Timestamp
from repro.exceptions import ClockError
from repro.online.adaptive import LifecycleClockDriver
from repro.online.base import OnlineMechanism


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
        self._driver = LifecycleClockDriver(mechanism)
        self._tokens: Dict[Event, int] = {}

    # ------------------------------------------------------------------
    @property
    def mechanism(self) -> OnlineMechanism:
        return self._driver.mechanism

    @property
    def clock_size(self) -> int:
        """Current clock dimension (number of components added so far)."""
        return self._driver.clock_size

    def thread_clock(self, thread: ThreadId) -> Timestamp:
        return self._driver.clock.thread_clock(thread)

    def object_clock(self, obj: ObjectId) -> Timestamp:
        return self._driver.clock.object_clock(obj)

    # ------------------------------------------------------------------
    def observe(self, thread: ThreadId, obj: ObjectId) -> Timestamp:
        """Reveal one operation: grow the clock if needed, then timestamp it."""
        return self._driver.timestamp(self._driver.observe(thread, obj))

    def observe_event(self, event: Event) -> Timestamp:
        """Reveal an already-minted event and remember its timestamp."""
        token = self._tokens[event] = self._driver.observe(event.thread, event.obj)
        return self._driver.timestamp(token)

    def timestamp_computation(self, computation: Computation) -> Dict[Event, Timestamp]:
        """Reveal a whole computation in interleaving order; returns all timestamps."""
        if self._tokens or self.mechanism.events_seen:
            raise ClockError("protocol has already observed events; use a fresh instance")
        for event in computation:
            self.observe_event(event)
        return {event: self.timestamp(event) for event in self._tokens}

    def _token(self, event: Event) -> int:
        try:
            return self._tokens[event]
        except KeyError:
            raise ClockError(f"event {event} was not timestamped") from None

    def timestamp(self, event: Event) -> Timestamp:
        """``event``'s stamp over the current component set."""
        return self._driver.timestamp(self._token(event))

    # ------------------------------------------------------------------
    def happened_before(self, earlier: Event, later: Event) -> bool:
        return self._driver.happened_before(self._token(earlier), self._token(later))

    def concurrent(self, a: Event, b: Event) -> bool:
        return self._driver.concurrent(self._token(a), self._token(b))
