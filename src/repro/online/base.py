"""Base machinery for online mixed-vector-clock mechanisms (Section IV).

In the paper's online setting the computation is revealed one event at a
time and the existing clock components may never be removed or replaced -
only new components may be appended.  When an event ``(t, o)`` arrives
whose thread and object are both outside the current component set, the
mechanism *must* add one of the two endpoints (otherwise that event could
not be ordered); which endpoint it picks is the whole difference between
the mechanisms the paper compares:

* :class:`~repro.online.naive.NaiveMechanism` - always the thread (or
  always the object);
* :class:`~repro.online.random_choice.RandomMechanism` - a fair coin;
* :class:`~repro.online.popularity.PopularityMechanism` - whichever
  endpoint is more popular (``deg / |E|``) in the bipartite graph revealed
  so far;
* :class:`~repro.online.hybrid.HybridMechanism` - Popularity until density
  / size thresholds are crossed, then Naive (the practical recipe the paper
  suggests at the end of Section V).

The streaming extension relaxes the append-only constraint through a
*lifecycle protocol*: drivers now deliver three kinds of ticks,

* :meth:`OnlineMechanism.observe` - one revealed event (the paper's only
  hook);
* :meth:`OnlineMechanism.expire` - one previously revealed occurrence
  fell out of the monitoring window;
* :meth:`OnlineMechanism.end_epoch` - an epoch boundary, the only point
  at which a mechanism may *retire* (or wholesale rebuild) components.

The base class implements the bookkeeping for all three and defers to
hooks: :meth:`OnlineMechanism._choose` (the single policy decision, as
before) plus the no-op-by-default :meth:`OnlineMechanism._on_observe`,
:meth:`OnlineMechanism._on_expire` and :meth:`OnlineMechanism._on_end_epoch`.
Append-only mechanisms override nothing new and behave exactly as before
- expire and epoch ticks pass through the no-op shims - while the
window-aware mechanisms in :mod:`repro.online.adaptive` override the
hooks to bound their live clock to the live window.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.components import ClockComponents
from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import BipartiteGraph, Vertex

#: The two possible choices a mechanism can make for an uncovered event.
THREAD = "thread"
OBJECT = "object"


def popularity_choice(
    graph: BipartiteGraph, thread: Vertex, obj: Vertex, tie_break: str = THREAD
) -> str:
    """Definition 1's policy: pick the endpoint more popular in ``graph``.

    Shared by :class:`~repro.online.popularity.PopularityMechanism`,
    the pre-switch phase of :class:`~repro.online.hybrid.HybridMechanism`
    and the adaptive mechanisms (which apply it to their live graph).
    Both popularities share the denominator ``|E|``, so the comparison
    reduces to degrees; ties go to ``tie_break``.
    """
    thread_popularity = graph.popularity(thread)
    object_popularity = graph.popularity(obj)
    if thread_popularity > object_popularity:
        return THREAD
    if object_popularity > thread_popularity:
        return OBJECT
    return tie_break


@dataclass(frozen=True)
class Decision:
    """A log record of one component-addition decision.

    ``event_index`` is the position of the triggering event in the revealed
    stream, ``choice`` is ``"thread"`` or ``"object"`` and ``component`` is
    the vertex that was added.
    """

    event_index: int
    thread: Vertex
    obj: Vertex
    choice: str
    component: Vertex


@dataclass(frozen=True)
class Retirement:
    """A log record of one component-retirement decision.

    ``event_index`` is the number of events revealed when the component
    was retired, ``epoch`` the epoch count at that moment (epoch
    boundaries increment it *before* their retirements are logged),
    ``kind`` is ``"thread"`` or ``"object"`` and ``component`` the vertex
    whose slot was given back.
    """

    event_index: int
    epoch: int
    kind: str
    component: Vertex


class OnlineMechanism(abc.ABC):
    """Common state machine for all online mechanisms.

    Subclasses implement :meth:`_choose`, which is called exactly when a
    revealed event is not yet covered and must return ``THREAD`` or
    ``OBJECT``; lifecycle-aware subclasses additionally override the
    :meth:`_on_observe` / :meth:`_on_expire` / :meth:`_on_end_epoch`
    hooks (no-ops here, so append-only mechanisms run unchanged through
    lifecycle-delivering drivers).

    **Commutation contract.**  In a class that overrides neither
    :meth:`expire` nor :meth:`_on_expire`, ``expire`` only counts, and
    :meth:`_choose` / :meth:`_on_observe` must not read
    :attr:`expires_seen`.  Its expiries then commute with its observes,
    so a driver may deliver a run's expiries before the whole run
    (:meth:`~repro.online.simulator.StreamConsumer.insert_run` does), and
    may take a run of them as one :meth:`count_expires`.
    """

    #: Human-readable mechanism name, overridden by subclasses.
    name: str = "abstract"

    #: ``True`` for mechanisms that react to expire / epoch ticks by
    #: retiring components.  Purely informational (drivers deliver the
    #: full lifecycle to every mechanism; the shims ignore it).
    window_aware: bool = False

    def __init__(self) -> None:
        self._graph = BipartiteGraph()
        self._thread_components: Set[Vertex] = set()
        self._object_components: Set[Vertex] = set()
        self._component_order: List[Tuple[str, Vertex]] = []
        self._decisions: List[Decision] = []
        self._retirements: List[Retirement] = []
        self._events_seen = 0
        self._expires_seen = 0
        self._epoch = 0
        self._peak_size = 0

    def __getstate__(self) -> dict:
        # The component sets follow from the component order; a pickled
        # set lists its members in hash order, which varies with
        # PYTHONHASHSEED.
        state = self.__dict__.copy()
        del state["_thread_components"], state["_object_components"]
        return state

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names, as the default restore does.
        for name, value in state.items():
            setattr(self, name, value)
        order = self._component_order
        self._thread_components = {c for kind, c in order if kind == THREAD}
        self._object_components = {c for kind, c in order if kind == OBJECT}

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        """Pick ``THREAD`` or ``OBJECT`` for an uncovered event ``(thread, obj)``.

        Called after the event's edge has been added to the revealed graph,
        so popularity-style policies see the up-to-date degrees.
        """

    def _on_observe(self, thread: Vertex, obj: Vertex) -> None:
        """Lifecycle hook: one event was revealed (before the cover check)."""

    def _on_expire(self, thread: Vertex, obj: Vertex) -> None:
        """Lifecycle hook: one live occurrence of ``(thread, obj)`` expired."""

    def _on_end_epoch(self) -> Tuple[Vertex, ...]:
        """Lifecycle hook: an epoch boundary; returns retired components."""
        return ()

    # ------------------------------------------------------------------
    # Event stream (the lifecycle protocol)
    # ------------------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> Optional[Vertex]:
        """Reveal one event and return the component added (or ``None``).

        The revealed thread-object graph is updated first; if the event is
        already covered by an existing component the component set is left
        untouched, exactly as prescribed in Section IV.
        """
        self._graph.add_edge(thread, obj)
        event_index = self._events_seen
        self._events_seen += 1
        self._on_observe(thread, obj)

        if thread in self._thread_components or obj in self._object_components:
            return None
        return self._adopt(event_index, thread, obj)

    def _adopt(self, event_index: int, thread: Vertex, obj: Vertex) -> Vertex:
        """Add the endpoint :meth:`_choose` picks for an uncovered event.

        The one decision path of :meth:`observe` and :meth:`observe_batch`:
        adds the component, updates the peak and logs the
        :class:`Decision`; returns the component added.
        """
        choice = self._choose(thread, obj)
        if choice == THREAD:
            component = thread
            self._thread_components.add(thread)
        elif choice == OBJECT:
            component = obj
            self._object_components.add(obj)
        else:
            raise OnlineMechanismError(
                f"{type(self).__name__}._choose returned {choice!r}, "
                f"expected {THREAD!r} or {OBJECT!r}"
            )
        order = self._component_order
        order.append((choice, component))
        if len(order) > self._peak_size:
            self._peak_size = len(order)
        self._decisions.append(Decision(event_index, thread, obj, choice, component))
        return component

    def expire(self, thread: Vertex, obj: Vertex) -> None:
        """Retract one previously revealed occurrence of ``(thread, obj)``.

        Append-only mechanisms ignore expiry by design (their clocks never
        shrink - the premise of the paper's competitive analysis); the
        base class only counts the tick and defers to :meth:`_on_expire`.
        Drivers must respect the stream layer's multiset contract: never
        more expires than observes per pair.
        """
        self._expires_seen += 1
        self._on_expire(thread, obj)

    def count_expires(self, count: int) -> None:
        """Take ``count`` expire ticks at once.

        Only for a class under the commutation contract (no expire
        hook), where it equals ``count`` calls of :meth:`expire`.
        """
        self._expires_seen += count

    def end_epoch(self) -> Tuple[Vertex, ...]:
        """Close the current epoch; returns the components retired at it.

        Epoch boundaries are the only points at which a window-aware
        mechanism may restructure its component set (retire dead
        components, or rebuild the set from the live window); see
        :mod:`repro.online.adaptive`.  For append-only mechanisms this is
        a counted no-op.
        """
        self._epoch += 1
        return self._on_end_epoch()

    def _retire_component(self, component: Vertex) -> None:
        """Give back one component's slot (window-aware subclasses only)."""
        if component in self._thread_components:
            kind = THREAD
            self._thread_components.discard(component)
        elif component in self._object_components:
            kind = OBJECT
            self._object_components.discard(component)
        else:
            raise OnlineMechanismError(
                f"cannot retire {component!r}: not a current component"
            )
        self._component_order.remove((kind, component))
        self._retirements.append(
            Retirement(
                event_index=self._events_seen,
                epoch=self._epoch,
                kind=kind,
                component=component,
            )
        )

    def _add_component(self, kind: str, component: Vertex) -> None:
        """Adopt a component outside the per-event decision path.

        Used by epoch-rebuilding mechanisms; unlike :meth:`observe` it
        logs no :class:`Decision` (there is no triggering event).
        """
        if kind == THREAD:
            if component in self._thread_components:
                return
            self._thread_components.add(component)
        elif kind == OBJECT:
            if component in self._object_components:
                return
            self._object_components.add(component)
        else:
            raise OnlineMechanismError(
                f"component kind must be {THREAD!r} or {OBJECT!r}, got {kind!r}"
            )
        self._component_order.append((kind, component))
        if len(self._component_order) > self._peak_size:
            self._peak_size = len(self._component_order)

    def observe_batch(self, pairs) -> List[int]:
        """Reveal a chunk of ``(thread, object)`` pairs; clock size after each.

        The batched counterpart of :meth:`observe`, and the unit the
        chunked execution pipeline feeds: one call per run of consecutive
        inserts, with expire / epoch ticks delivered between calls so the
        lifecycle semantics are untouched.  **Contract:** bit-identical
        to calling :meth:`observe` once per pair, in order - same
        decisions, same component order, same revealed graph, same
        counters (the property-test suite asserts this for every
        registered mechanism, including the stochastic ones).

        Every mechanism runs this one loop: :meth:`observe` inlined, with
        :meth:`_on_observe` called only when the class overrides it and
        :meth:`_adopt` only for uncovered events.
        ``_events_seen`` is written back before either hook runs, because
        hooks read it (the hybrid switch point, the cost policy's tick).
        A subclass that overrides :meth:`observe` itself gets a plain
        loop over it instead.
        """
        cls = type(self)
        order = self._component_order
        sizes: List[int] = []
        if cls.observe is not OnlineMechanism.observe:
            for thread, obj in pairs:
                self.observe(thread, obj)
                sizes.append(len(order))
            return sizes
        hooked = cls._on_observe is not OnlineMechanism._on_observe
        add_edge = self._graph.add_edge
        thread_components = self._thread_components
        object_components = self._object_components
        for thread, obj in pairs:
            add_edge(thread, obj)
            event_index = self._events_seen
            self._events_seen = event_index + 1
            if hooked:
                self._on_observe(thread, obj)
            if thread not in thread_components and obj not in object_components:
                self._adopt(event_index, thread, obj)
            sizes.append(len(order))
        return sizes

    def observe_all(self, pairs) -> "OnlineMechanism":
        """Reveal a whole sequence of ``(thread, object)`` pairs; returns ``self``."""
        for thread, obj in pairs:
            self.observe(thread, obj)
        return self

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def revealed_graph(self) -> BipartiteGraph:
        """The thread-object bipartite graph revealed so far."""
        return self._graph

    @property
    def clock_size(self) -> int:
        """Current number of components (the metric the paper plots)."""
        return len(self._component_order)

    @property
    def events_seen(self) -> int:
        return self._events_seen

    @property
    def expires_seen(self) -> int:
        """How many expire ticks the mechanism has been delivered."""
        return self._expires_seen

    @property
    def epoch(self) -> int:
        """How many epoch boundaries have passed."""
        return self._epoch

    @property
    def peak_size(self) -> int:
        """Largest clock size ever held (>= clock_size once retirements start)."""
        return self._peak_size

    @property
    def retired_total(self) -> int:
        """Total components retired over the mechanism's lifetime."""
        return len(self._retirements)

    @property
    def thread_components(self) -> frozenset:
        return frozenset(self._thread_components)

    @property
    def object_components(self) -> frozenset:
        return frozenset(self._object_components)

    @property
    def decisions(self) -> Tuple[Decision, ...]:
        """The full decision log, in the order components were added."""
        return tuple(self._decisions)

    @property
    def decision_count(self) -> int:
        """Number of component-addition decisions so far (O(1)).

        The :attr:`decisions` property copies the whole log; batch
        drivers that only need "did this chunk add components, and
        which" snapshot this counter and read the suffix via
        :meth:`decisions_since`.
        """
        return len(self._decisions)

    def decisions_since(self, start: int) -> Tuple[Decision, ...]:
        """The decisions logged at index ``start`` onwards (O(suffix))."""
        return tuple(self._decisions[start:])

    @property
    def retirements(self) -> Tuple[Retirement, ...]:
        """The full retirement log, in the order components were retired."""
        return tuple(self._retirements)

    def retirements_since(self, start: int) -> Tuple[Retirement, ...]:
        """The retirements logged at index ``start`` onwards (O(suffix)).

        The retirement counterpart of :meth:`decisions_since`: a driver
        snapshots :attr:`retired_total` before a tick and reads what
        the tick retired.
        """
        return tuple(self._retirements[start:])

    def components(self) -> ClockComponents:
        """The current component set as an immutable :class:`ClockComponents`."""
        return ClockComponents(
            thread_components=[c for kind, c in self._component_order if kind == THREAD],
            object_components=[c for kind, c in self._component_order if kind == OBJECT],
        )

    def covers(self, thread: Vertex, obj: Vertex) -> bool:
        """``True`` iff an event of ``thread`` on ``obj`` is already covered."""
        return thread in self._thread_components or obj in self._object_components

    def summary(self) -> dict:
        """Flat dict for the experiment harness."""
        return {
            "mechanism": self.name,
            "clock_size": self.clock_size,
            "peak_size": self._peak_size,
            "thread_components": len(self._thread_components),
            "object_components": len(self._object_components),
            "events_seen": self._events_seen,
            "expires_seen": self._expires_seen,
            "epoch": self._epoch,
            "retired_components": len(self._retirements),
            "revealed_edges": self._graph.num_edges,
            "revealed_density": self._graph.density(),
        }
