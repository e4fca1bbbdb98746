"""Chain clocks (Agarwal & Garg, PODC 2005) - the closest prior baseline.

The paper's related-work section singles out chain clocks as the most
closely related technique: instead of one component per process, a chain
clock uses one component per *chain* of an online chain decomposition of
the computation poset, guaranteeing no more than ``|P|`` chains for the
simple variant.

This module implements that simple variant for the thread-object model:

* events are revealed in an interleaving order (a linear extension);
* each new event is appended to an existing chain whose current last
  element happens-before it (we check the two immediate predecessors - the
  previous event of the same thread and the previous event on the same
  object - which is sufficient because any chain predecessor of the new
  event is causally before one of those two);
* if no such chain exists, a new chain is opened.

The number of chains is an upper bound on the clock size the chain-clock
approach needs; the extended evaluation compares it with the paper's mixed
clock (which is bounded by ``min(n, m)`` instead of ``n``).  Timestamps are
:class:`~repro.core.clock.Timestamp` values over one component per chain
opened so far; chains only ever append, so a stamp minted before a chain
opened reads zero there once widened to the current chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.computation.event import Event
from repro.computation.trace import Computation
from repro.core.clock import Timestamp
from repro.core.components import ClockComponents
from repro.exceptions import ClockError


@dataclass(frozen=True)
class ChainClockResult:
    """Outcome of running the chain clock over a computation."""

    num_chains: int
    chain_assignment: Dict[Event, int]
    timestamps: Dict[Event, Timestamp]

    @property
    def clock_size(self) -> int:
        """The chain clock's dimension (number of chains opened)."""
        return self.num_chains

    def happened_before(self, earlier: Event, later: Event) -> bool:
        return self.timestamps[earlier] < self.timestamps[later]

    def concurrent(self, a: Event, b: Event) -> bool:
        if a == b:
            return False
        return self.timestamps[a].concurrent_with(self.timestamps[b])


class ChainClock:
    """Online chain decomposition plus chain-indexed vector clocks."""

    def __init__(self) -> None:
        self._chain_last: List[Optional[Event]] = []
        self._chain_of_event: Dict[Event, int] = {}
        self._chains = ClockComponents()
        self._thread_clocks: Dict[object, Timestamp] = {}
        self._object_clocks: Dict[object, Timestamp] = {}
        self._timestamps: Dict[Event, Timestamp] = {}
        self._last_thread_event: Dict[object, Event] = {}
        self._last_object_event: Dict[object, Event] = {}

    # ------------------------------------------------------------------
    @property
    def num_chains(self) -> int:
        return len(self._chain_last)

    def chain_of(self, event: Event) -> int:
        try:
            return self._chain_of_event[event]
        except KeyError:
            raise ClockError(f"event {event} has not been observed") from None

    def timestamp(self, event: Event) -> Timestamp:
        """``event``'s stamp over every chain opened so far."""
        try:
            return self._widen(self._timestamps[event])
        except KeyError:
            raise ClockError(f"event {event} has not been observed") from None

    def _widen(self, stamp: Timestamp) -> Timestamp:
        """``stamp`` over the current chains (later chains read zero)."""
        missing = self._chains.size - len(stamp)
        if not missing:
            return stamp
        return Timestamp(self._chains, stamp.values + (0,) * missing)

    # ------------------------------------------------------------------
    def observe_event(self, event: Event) -> Timestamp:
        """Assign ``event`` to a chain and timestamp it."""
        chain = self._pick_chain(event)
        if chain is None:
            chain = len(self._chain_last)
            self._chain_last.append(None)
            self._chains = self._chains.extended((f"chain-{chain}",))
        self._chain_last[chain] = event
        self._chain_of_event[event] = chain

        zero = Timestamp.zero(self._chains)
        merged = self._widen(self._thread_clocks.get(event.thread, zero)).merged(
            self._widen(self._object_clocks.get(event.obj, zero))
        )
        stamped = merged.incremented(f"chain-{chain}")
        self._thread_clocks[event.thread] = stamped
        self._object_clocks[event.obj] = stamped
        self._timestamps[event] = stamped
        self._last_thread_event[event.thread] = event
        self._last_object_event[event.obj] = event
        return stamped

    def _pick_chain(self, event: Event) -> Optional[int]:
        """A chain whose last element is an immediate predecessor of ``event``."""
        candidates = []
        previous_thread_event = self._last_thread_event.get(event.thread)
        if previous_thread_event is not None:
            candidates.append(previous_thread_event)
        previous_object_event = self._last_object_event.get(event.obj)
        if previous_object_event is not None and previous_object_event not in candidates:
            candidates.append(previous_object_event)
        for predecessor in candidates:
            chain = self._chain_of_event[predecessor]
            if self._chain_last[chain] is predecessor:
                return chain
        return None

    # ------------------------------------------------------------------
    def run(self, computation: Computation) -> ChainClockResult:
        """Process a whole computation (must be a fresh instance)."""
        if self._timestamps:
            raise ClockError("chain clock has already observed events; use a fresh one")
        for event in computation:
            self.observe_event(event)
        return ChainClockResult(
            num_chains=self.num_chains,
            chain_assignment=dict(self._chain_of_event),
            timestamps={event: self.timestamp(event) for event in self._timestamps},
        )


def chain_clock_size(computation: Computation) -> int:
    """Number of chains the chain clock opens for ``computation``."""
    return ChainClock().run(computation).num_chains
