"""The vector clock protocol: timestamping events of a computation.

:class:`VectorClockProtocol` implements the update rules of Section II and
Section III-C of the paper for an arbitrary component set:

* every thread ``p`` and every object ``q`` keeps a current clock vector
  (initially all zeros);
* when thread ``p`` performs an operation ``e`` on object ``q``::

      e.v = max(p.v, q.v)
      if q is a component:  e.v[q] += 1
      if p is a component:  e.v[p] += 1
      p.v = q.v = e.v

The thread-based and object-based clocks of Section II are the special
cases where the component set is all threads or all objects respectively;
the mixed clock uses a vertex cover of the thread-object bipartite graph.

The protocol object is *incremental*: the runtime and the online simulator
feed it one operation at a time via :meth:`VectorClockProtocol.observe`,
and the offline pipeline feeds it a whole computation via
:meth:`VectorClockProtocol.timestamp_computation`.  The result of the
latter is a :class:`TimestampedComputation`, which bundles the computation
with the per-event timestamps and answers causality queries purely from the
timestamps (that is what Theorem 2 promises is possible).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.computation.event import Event, ObjectId, ThreadId
from repro.computation.trace import Computation
from repro.core.clock import Timestamp, ordering
from repro.core.components import ClockComponents
from repro.core.kernel import ClockKernel
from repro.exceptions import (
    AmbiguousTimestampError,
    ClockError,
    RetimestampingError,
)
from repro.graph.bipartite import Vertex

# Telemetry write handle (same pattern as the kernel: fetch once per
# rotation, guard on ``is not None`` - never a per-event cost).
from repro.obs.registry import active as _metrics_active


class VectorClockProtocol:
    """Stateful executor of the (mixed) vector clock update rules.

    Parameters
    ----------
    components:
        The clock's component set.  Any event whose thread *and* object are
        both outside this set raises :class:`ComponentError` when observed
        (with ``strict=True``, the default), because such an event could
        never be ordered by the resulting timestamps.
    strict:
        When ``False``, uncovered events are still timestamped (with a bare
        merge and no increment).  This is only useful for demonstrating in
        tests and examples *why* coverage is required; production callers
        should leave it on.
    """

    def __init__(self, components: ClockComponents, strict: bool = True) -> None:
        self._components = components
        self._kernel = ClockKernel(components, strict=strict)
        self._events_observed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def components(self) -> ClockComponents:
        return self._components

    @property
    def size(self) -> int:
        """The clock dimension (number of components)."""
        return self._components.size

    @property
    def events_observed(self) -> int:
        return self._events_observed

    def thread_clock(self, thread: ThreadId) -> Timestamp:
        """Current clock of ``thread`` (zero if it has not acted yet)."""
        return self._kernel.thread_stamp(thread)

    def object_clock(self, obj: ObjectId) -> Timestamp:
        """Current clock of ``obj`` (zero if it has not been accessed yet)."""
        return self._kernel.object_stamp(obj)

    # ------------------------------------------------------------------
    # The update rule
    # ------------------------------------------------------------------
    def observe(self, thread: ThreadId, obj: ObjectId) -> Timestamp:
        """Apply the update rule for one operation and return its timestamp."""
        stamped = self._kernel.observe(thread, obj)
        self._events_observed += 1
        return stamped

    def observe_event(self, event: Event) -> Timestamp:
        """Apply the update rule for an already-minted :class:`Event`."""
        return self.observe(event.thread, event.obj)

    def timestamp_batch(
        self, pairs: Sequence[Tuple[ThreadId, ObjectId]]
    ) -> List[Timestamp]:
        """Apply the update rule to a chunk of operations, in order.

        The incremental batch entry point: unlike
        :meth:`timestamp_computation` it may be called repeatedly, so a
        streaming consumer can feed the protocol chunk by chunk.  The
        returned timestamps are bit-identical to per-event
        :meth:`observe` calls - the loop is just the kernel's batch loop.

        Under the numpy backend the returned objects may be *lazy*
        stamps: full :class:`~repro.core.clock.Timestamp`
        instances whose value tuple is materialised from the array they
        were minted over on first use (``.values``, hashing, or a
        comparison with a stamp that holds no array).  Digest-only
        consumers and verdict reads between lazy stamps therefore never
        pay tuple construction.  The
        laziness is unobservable by contract: values, ordering,
        identity sharing between a returned stamp and the stored
        endpoint clocks, and pickle output (plain eager timestamps,
        loadable without numpy) all match the python backend exactly.
        """
        pairs = list(pairs)
        # Count before running, like timestamp_computation: a coverage
        # error mid-batch leaves the kernel dirty, and the fresh-instance
        # guards must keep refusing reuse (reset() is the recovery path).
        self._events_observed += len(pairs)
        return self._kernel.timestamp_batch(pairs)

    # ------------------------------------------------------------------
    # Whole computations
    # ------------------------------------------------------------------
    def timestamp_computation(self, computation: Computation) -> "TimestampedComputation":
        """Timestamp every event of ``computation`` in interleaving order.

        The protocol instance must be fresh (no events observed yet);
        reusing one across computations would leak causality between them.

        This is the batch hot path: it drives the
        :class:`~repro.core.kernel.ClockKernel` directly, avoiding the
        per-event method dispatch and bookkeeping of :meth:`observe`.
        """
        if self._events_observed:
            raise ClockError(
                "protocol has already observed events; use a fresh instance"
            )
        # Mark the protocol used *before* iterating: a ComponentError on an
        # uncovered event mid-computation leaves the kernel dirty, and the
        # fresh-instance guard above must keep refusing reuse (reset() is
        # the recovery path).
        self._events_observed = len(computation)
        events = list(computation)
        stamps = self._kernel.timestamp_batch(
            [(event.thread, event.obj) for event in events]
        )
        timestamps: Dict[Event, Timestamp] = dict(zip(events, stamps))
        return TimestampedComputation(computation, self._components, timestamps)

    def reset(self) -> None:
        """Forget all state so the protocol can be reused from scratch."""
        self._kernel.reset()
        self._events_observed = 0


class TimestampedComputation:
    """A computation together with one timestamp per event.

    Provides the timestamp-only causality queries that applications
    (debuggers, race detectors, recovery protocols) actually use: given two
    events, compare their vectors - no access to the original partial order
    is needed.
    """

    def __init__(
        self,
        computation: Computation,
        components: ClockComponents,
        timestamps: Mapping[Event, Timestamp],
    ) -> None:
        missing = [e for e in computation if e not in timestamps]
        if missing:
            raise ClockError(f"{len(missing)} events have no timestamp")
        self._computation = computation
        self._components = components
        self._timestamps = dict(timestamps)

    # -- accessors --------------------------------------------------------
    @property
    def computation(self) -> Computation:
        return self._computation

    @property
    def components(self) -> ClockComponents:
        return self._components

    @property
    def clock_size(self) -> int:
        return self._components.size

    def timestamp(self, event: Event) -> Timestamp:
        try:
            return self._timestamps[event]
        except KeyError:
            raise ClockError(f"event {event} was not timestamped") from None

    def __getitem__(self, event: Event) -> Timestamp:
        return self.timestamp(event)

    def __iter__(self) -> Iterator[Tuple[Event, Timestamp]]:
        for event in self._computation:
            yield event, self._timestamps[event]

    def __len__(self) -> int:
        return len(self._computation)

    # -- causality from timestamps ----------------------------------------
    def _distinguishable_stamps(
        self, a: Event, b: Event
    ) -> Tuple[Timestamp, Timestamp]:
        """The two timestamps, raising unless they can be compared.

        Two *distinct* events carrying *identical* timestamps cannot be
        ordered: a valid (covering) protocol increments at least one slot
        per event, so this only happens when the protocol ran with
        ``strict=False`` and left some events uncovered.  Answering
        ``"equal"`` for different events would silently corrupt causality
        queries, so every query path surfaces the condition as
        :class:`AmbiguousTimestampError` instead.
        """
        stamp_a = self.timestamp(a)
        stamp_b = self.timestamp(b)
        if stamp_a == stamp_b and a != b:
            raise AmbiguousTimestampError(
                f"events {a} and {b} carry identical timestamps "
                f"{stamp_a!r}; they were not covered by the clock "
                f"components (protocol ran with strict=False), so their "
                f"causal order cannot be recovered from timestamps"
            )
        return stamp_a, stamp_b

    def happened_before(self, earlier: Event, later: Event) -> bool:
        """``True`` iff the timestamps say ``earlier → later``.

        Raises :class:`AmbiguousTimestampError` if the two events are
        distinct but carry identical (uncovered) timestamps.
        """
        stamp_earlier, stamp_later = self._distinguishable_stamps(earlier, later)
        return stamp_earlier < stamp_later

    def concurrent(self, a: Event, b: Event) -> bool:
        """``True`` iff the timestamps say ``a ∥ b``.

        Raises :class:`AmbiguousTimestampError` if the two events are
        distinct but carry identical (uncovered) timestamps.
        """
        if a == b:
            return False
        stamp_a, stamp_b = self._distinguishable_stamps(a, b)
        return stamp_a.concurrent_with(stamp_b)

    def relation(self, a: Event, b: Event) -> str:
        """One of ``"before"``, ``"after"``, ``"concurrent"``, ``"equal"``.

        ``"equal"`` is only ever answered for the *same* event passed
        twice; distinct events with identical timestamps raise
        :class:`AmbiguousTimestampError` (see :meth:`happened_before`).
        """
        return ordering(*self._distinguishable_stamps(a, b))

    # -- reporting ----------------------------------------------------------
    def storage_cost(self) -> int:
        """Total number of integers stored across all event timestamps."""
        return self.clock_size * len(self._computation)

    def format_table(self, limit: Optional[int] = None) -> str:
        """A small human-readable table of events and their timestamps."""
        lines = [f"clock components ({self.clock_size}): {list(self._components.ordered)}"]
        for position, (event, stamp) in enumerate(self):
            if limit is not None and position >= limit:
                lines.append(f"... ({len(self) - limit} more events)")
                break
            lines.append(f"  {event.describe():60s} {stamp!r}")
        return "\n".join(lines)


def timestamp_with_components(
    computation: Computation, components: ClockComponents
) -> TimestampedComputation:
    """Convenience one-shot helper: timestamp ``computation`` with ``components``."""
    return VectorClockProtocol(components).timestamp_computation(computation)


# ---------------------------------------------------------------------------
# Lifecycle-aware timestamping (sliding-window monitoring)
# ---------------------------------------------------------------------------
def verify_retimestamping(
    before: Sequence[Timestamp],
    after: Sequence[Timestamp],
    components: ClockComponents,
) -> None:
    """The re-timestamping invariant check of an epoch rotation.

    ``before``/``after`` are the live events' timestamps in the same
    (stream) order, pre- and post-rotation.  The check proves, event by
    event and pair by pair:

    * every new timestamp is expressed over the new epoch's component
      set - i.e. no timestamp issued in the live epoch references a
      retired component;
    * the pairwise causal verdict (``before`` / ``after`` /
      ``concurrent``) of every pair of live events is unchanged.

    The second property is what makes rotation *correct* rather than
    merely compact: the replay only sees the live window, but with a
    FIFO window every happened-before chain between two live events runs
    entirely through live events (any intermediate is newer than the
    older endpoint), so full-history verdicts are recoverable from the
    replay - and this check asserts they were.  Quadratic in the window
    length; enable it in tests and audits, not per-rotation hot paths.
    """
    if len(before) != len(after):
        raise RetimestampingError(
            f"rotation replayed {len(after)} events but {len(before)} were live"
        )
    for stamp in after:
        if stamp.components is not components:
            raise RetimestampingError(
                "a replayed timestamp references a component set other than "
                "the live epoch's (retired components must not leak)"
            )
    for i in range(len(before)):
        for j in range(i + 1, len(before)):
            old_verdict = ordering(before[i], before[j])
            new_verdict = ordering(after[i], after[j])
            if old_verdict != new_verdict:
                raise RetimestampingError(
                    f"rotation changed the verdict of live events {i} and "
                    f"{j}: {old_verdict!r} -> {new_verdict!r}"
                )


# -- rotation strategies ----------------------------------------------------
#: Rotation strategy names (see :meth:`EpochClock.rotate`).
DELTA_ROTATION = "delta"
REPLAY_ROTATION = "replay"

#: Strategies :class:`EpochClock` accepts.  The choice only moves work
#: at the rotation boundary - causal verdicts, tokens and retired counts
#: are identical by contract, and the property tests assert it.  Replay
#: is the reference the delta path is tested against.
ROTATION_STRATEGIES = (DELTA_ROTATION, REPLAY_ROTATION)


class EpochClock:
    """Lifecycle-aware timestamping: ``observe`` / ``expire`` / ``rotate``.

    The windowed counterpart of :class:`VectorClockProtocol`.  Where the
    batch protocol timestamps a fixed computation over a fixed component
    set, this clock serves a monitoring loop in which events *expire*
    (fall out of the sliding window) and the component set changes over
    time - growing between epochs (:meth:`extend`, the online
    append-only step) and shrinking or being wholesale rebuilt at epoch
    boundaries (:meth:`rotate`).

    Every observed event receives a monotonically increasing integer
    *token*; causality queries (:meth:`relation`,
    :meth:`happened_before`, :meth:`concurrent`) are answered for any
    pair of **live** tokens, in the current epoch's basis.  A rotation
    re-stamps the live window over the new component set - by slot
    *retirement* when the rotation is a pure retirement, by full replay
    otherwise (see :meth:`rotate`); with ``check_invariant=True`` every
    rotation replays and runs :func:`verify_retimestamping` before
    committing.

    ``rotation`` selects the strategy per clock (``"delta"``, the
    default, or ``"replay"``).  Every observed event must be covered by
    a component: the clock is always strict.
    """

    def __init__(
        self,
        components: Optional[ClockComponents] = None,
        *,
        check_invariant: bool = False,
        rotation: str = DELTA_ROTATION,
    ) -> None:
        self._kernel = ClockKernel(
            components if components is not None else ClockComponents()
        )
        self._check_invariant = check_invariant
        if rotation not in ROTATION_STRATEGIES:
            raise ClockError(
                f"unknown rotation strategy {rotation!r}; available "
                f"strategies: {', '.join(ROTATION_STRATEGIES)}"
            )
        self._rotation = rotation
        # token -> (thread, obj); dicts preserve insertion (= stream) order
        # under deletion, which is what rotation's replay relies on.
        self._live_pairs: Dict[int, Tuple[Vertex, Vertex]] = {}
        self._live_stamps: Dict[int, Timestamp] = {}
        self._tokens_by_pair: Dict[Tuple[Vertex, Vertex], Deque[int]] = {}
        self._next_token = 0
        # Live events per endpoint, and the endpoints left with none since
        # the last rotation: the clocks a delta rotation may drop.
        self._live_threads: Dict[Vertex, int] = {}
        self._live_objects: Dict[Vertex, int] = {}
        self._idle_threads: Set[Vertex] = set()
        self._idle_objects: Set[Vertex] = set()

    # -- introspection ------------------------------------------------------
    @property
    def components(self) -> ClockComponents:
        return self._kernel.components

    @property
    def size(self) -> int:
        """The current clock dimension (number of live components)."""
        return self._kernel.size

    @property
    def epoch(self) -> int:
        return self._kernel.epoch

    @property
    def retired_total(self) -> int:
        return self._kernel.retired_total

    @property
    def live_count(self) -> int:
        return len(self._live_pairs)

    def live_tokens(self) -> Tuple[int, ...]:
        """Tokens of the live events, oldest first."""
        return tuple(self._live_pairs)

    def thread_clock(self, thread: Vertex) -> Timestamp:
        """Current clock of ``thread`` (zero if it has not acted yet)."""
        return self._kernel.thread_stamp(thread)

    def object_clock(self, obj: Vertex) -> Timestamp:
        """Current clock of ``obj`` (zero if it has not been accessed yet)."""
        return self._kernel.object_stamp(obj)

    def timestamp(self, token: int) -> Timestamp:
        """The (current-epoch) timestamp of a live event.

        A stamp minted before a component extension or a delta rotation
        is stored as minted and read over the current component set
        here, by :meth:`ClockKernel.lift
        <repro.core.kernel.ClockKernel.lift>`: slots that joined since
        read zero, retired ones drop out.  The lifted stamp is written
        back so repeated queries pay it once.
        """
        try:
            stamp = self._live_stamps[token]
        except KeyError:
            raise ClockError(f"event token {token} is not live") from None
        lifted = self._kernel.lift(stamp)
        if lifted is not stamp:
            self._live_stamps[token] = lifted
        return lifted

    # -- the lifecycle ------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> int:
        """Timestamp one operation; returns its (stable) event token."""
        stamp = self._kernel.observe(thread, obj)
        token = self._next_token
        self._next_token += 1
        self._live_pairs[token] = (thread, obj)
        self._live_stamps[token] = stamp
        self._tokens_by_pair.setdefault((thread, obj), deque()).append(token)
        self._enter(thread, obj)
        return token

    def _enter(self, thread: Vertex, obj: Vertex) -> None:
        """Count one more live event on each endpoint."""
        self._live_threads[thread] = self._live_threads.get(thread, 0) + 1
        self._live_objects[obj] = self._live_objects.get(obj, 0) + 1

    def observe_batch(self, pairs: Sequence[Tuple[Vertex, Vertex]]) -> List[int]:
        """Timestamp a chunk of operations; returns their event tokens.

        Equivalent to calling :meth:`observe` per pair (same stamps, same
        tokens), with the kernel's batch loop doing the per-event work.
        Lifecycle ticks (:meth:`expire`, :meth:`rotate`) cannot occur
        *inside* a batch by construction - callers chunk their streams at
        lifecycle boundaries, as the sharded engine does.  The stored
        live stamps may be the numpy backend's lazy stamps (see
        :meth:`VectorClockProtocol.timestamp_batch`); causality queries
        materialise them transparently on first use.
        """
        pairs = list(pairs)
        stamps = self._kernel.timestamp_batch(pairs)
        tokens: List[int] = []
        token = self._next_token
        for pair, stamp in zip(pairs, stamps):
            self._live_pairs[token] = pair
            self._live_stamps[token] = stamp
            self._tokens_by_pair.setdefault(pair, deque()).append(token)
            self._enter(*pair)
            tokens.append(token)
            token += 1
        self._next_token = token
        return tokens

    def expire(self, thread: Vertex, obj: Vertex) -> int:
        """Expire the *oldest* live occurrence of ``(thread, obj)``.

        Mirrors the multiset contract of the stream layer (never more
        expires than inserts per pair); returns the expired token.
        """
        queue = self._tokens_by_pair.get((thread, obj))
        if not queue:
            raise ClockError(
                f"no live occurrence of ({thread!r}, {obj!r}) to expire"
            )
        token = queue.popleft()
        if not queue:
            del self._tokens_by_pair[(thread, obj)]
        del self._live_pairs[token]
        del self._live_stamps[token]
        for live, idle, vertex in (
            (self._live_threads, self._idle_threads, thread),
            (self._live_objects, self._idle_objects, obj),
        ):
            if live[vertex] == 1:
                del live[vertex]
                idle.add(vertex)
            else:
                live[vertex] -= 1
        return token

    def extend(
        self,
        thread_components: Tuple[Vertex, ...] = (),
        object_components: Tuple[Vertex, ...] = (),
    ) -> None:
        """Append components (no epoch change); live stamps read them as zero.

        New components are zero in every existing timestamp - the value
        they would have carried had they been present from the start -
        so no verdict among recorded events can change; only the basis
        widens.  Each new component is one kernel slot appended
        (:meth:`ClockKernel.extend_components
        <repro.core.kernel.ClockKernel.extend_components>`): neither the
        live ledger nor the kernel's clocks are rewritten, so growth
        costs ``O(1)`` per component and nothing per live event.
        """
        self._kernel.extend_components(thread_components, object_components)

    def rotate(
        self,
        new_components: Optional[ClockComponents] = None,
        retired: Iterable[Vertex] = (),
    ) -> int:
        """Enter a new epoch: retire/rebuild components, re-stamp the window.

        The change is given either as the whole ``new_components`` set
        (a rebuild may add and remove; diffing it costs ``O(k)``) or as
        the ``retired`` components alone (a pure retirement, ``O(#retired)``
        - what :class:`~repro.online.adaptive.LifecycleClockDriver`
        passes on an expire tick).  Two strategies, chosen per clock by
        its ``rotation`` argument:

        * ``"replay"`` - the kernel discards all clock state and the
          live events are replayed in stream order, which both
          re-timestamps them over the new set (a fresh slot space:
          retired slots are gone) and rebuilds the per-thread /
          per-object clocks future events merge from.  ``O(window)``
          update-rule applications per rotation, a latency spike at
          every epoch boundary that sets a monitor's tail tick latency.
        * ``"delta"`` (the default) - when the rotation is a **pure
          retirement** (no component joins *and* no retired component
          is an endpoint of a live event - checked against per-endpoint
          live counts, ``O(#retired)``), the kernel only marks the
          retired slots dead (:meth:`ClockKernel.rotate_epoch_delta
          <repro.core.kernel.ClockKernel.rotate_epoch_delta>`) and drops
          the clocks of retired components and of endpoints that lost
          their last live event since the last rotation and own no
          surviving component.  Nothing is rewritten: each stamp drops
          the dead slots from its public view when next read.  Any
          rotation outside that case silently falls back to replay; the
          ``clock.rotation.delta`` / ``clock.rotation.replay`` counters
          record which path ran.

        Retirement preserves every causal verdict among live and future
        events: the gate guarantees each live event keeps the component
        whose slot its stamping incremented (its mint-time *marker*),
        marker values are untouched and monotone under future merges,
        dead slots never enter a verdict, and the dropped clocks hold
        only history older than every live event.  Kept stamp *values*
        are however not the replayed values (replay renormalises to the
        live window; retirement keeps pre-rotation magnitudes), so the
        strategies are verdict- and token-identical but not
        value-identical - which is why ``check_invariant=True`` always
        forces replay: :func:`verify_retimestamping` is the oracle the
        property tests compare the delta path against.

        Returns the number of retired components.  With
        ``check_invariant=True`` the re-timestamping invariant is
        verified before the new stamps are visible; on violation the
        clock is unusable and the caller should treat the mechanism
        driving it as buggy.
        """
        kernel = self._kernel
        grows = False
        if new_components is not None:
            old = kernel.components
            grows = not (
                new_components.thread_components <= old.thread_components
                and new_components.object_components <= old.object_components
            )
            retired = [c for c in old.ordered if c not in new_components]
        retired = list(retired)
        registry = _metrics_active()
        # Endpoints that lost their last live event since the last
        # rotation: a delta rotation drops their clocks unless they own a
        # surviving component, a replay rebuilds every clock anyway.
        idle = (
            [v for v in self._idle_threads if v not in self._live_threads],
            [v for v in self._idle_objects if v not in self._live_objects],
        )
        self._idle_threads.clear()
        self._idle_objects.clear()
        if (
            self._rotation == DELTA_ROTATION
            and not self._check_invariant
            and not grows
            and not any(
                c in self._live_threads or c in self._live_objects for c in retired
            )
        ):
            # A surviving component keeps its clock even with no live
            # event: its slot keeps its pre-rotation magnitude in other
            # live clocks, so restarting it from zero would reissue values.
            count = kernel.rotate_epoch_delta(retired, *idle)
            if registry is not None:
                registry.add("clock.rotation.delta")
            return count
        if new_components is None:
            old = kernel.components
            gone = set(retired)
            threads = len(old.thread_components)
            new_components = ClockComponents(
                [c for c in old.ordered[:threads] if c not in gone],
                [c for c in old.ordered[threads:] if c not in gone],
            )
        old_stamps: List[Timestamp] = (
            [self.timestamp(token) for token in self._live_pairs]
            if self._check_invariant
            else []
        )
        count = kernel.rotate_epoch(new_components)
        new_stamps: Dict[int, Timestamp] = {}
        for token, (thread, obj) in self._live_pairs.items():
            new_stamps[token] = kernel.observe(thread, obj)
        if self._check_invariant:
            verify_retimestamping(
                old_stamps, list(new_stamps.values()), new_components
            )
        self._live_stamps = new_stamps
        if registry is not None:
            registry.add("clock.rotation.replay")
        return count

    # -- causality queries on live events -----------------------------------
    def relation(self, token_a: int, token_b: int) -> str:
        """``"before"`` / ``"after"`` / ``"concurrent"`` / ``"equal"``."""
        return ordering(self.timestamp(token_a), self.timestamp(token_b))

    def happened_before(self, token_a: int, token_b: int) -> bool:
        return self.timestamp(token_a) < self.timestamp(token_b)

    def concurrent(self, token_a: int, token_b: int) -> bool:
        if token_a == token_b:
            return False
        return self.timestamp(token_a).concurrent_with(self.timestamp(token_b))
