"""Streaming workloads: lazy event streams with churn and optional expiry.

The trace generators in :mod:`repro.computation.workloads` materialise a
fixed computation up front - the right shape for the paper's
figure-reproduction experiments, the wrong shape for the monitoring
setting the streaming engine targets, where events arrive indefinitely
and old events stop mattering.  This module provides that second shape:

* :class:`StreamEvent` - one revealed ``(thread, object)`` pair, tagged
  ``insert`` (the pair was just observed), ``expire`` (a previously
  observed occurrence of the pair fell out of relevance) or ``epoch``
  (a boundary marker carrying no pair at all: lifecycle-aware consumers
  deliver ``end_epoch`` to their mechanisms, everything else skips it).
  It is a named tuple: consumers unpack ``thread, obj, kind`` once per
  event and gather consecutive inserts, or consecutive expires, into
  runs (a departing thread's expiries arrive back to back);
* :func:`sliding_window` - an adapter that turns any insert-only stream
  into a windowed one by emitting an expire event for each insert that
  leaves the window of the most recent ``window`` events (epoch markers
  pass through untouched - they occupy no window slot);
* :func:`with_epochs` - an adapter that injects an epoch marker after
  every ``every`` inserts of any stream, for scenarios that do not emit
  their own;
* churn-capable generators, registered as ``stream`` scenarios:
  :func:`thread_churn_stream` (threads arrive and depart, departures
  expire their live edges), :func:`hot_object_drift_stream` (the popular
  object set drifts over time) and :func:`phase_change_stream` (the
  workload alternates between locality regimes, emitting an epoch marker
  at every phase boundary - the natural rotation point for the adaptive
  mechanisms).

Every generator is a true generator function: events are produced one at
a time and nothing proportional to ``num_events`` is ever materialised,
so the online simulator and the ratio sweeps can run mechanisms and the
dynamic offline optimum in a single pass over arbitrarily long streams.
Expiry bookkeeping is multiset-consistent by construction: a generator
never emits more expires for an edge than it has emitted inserts, which
is the contract :class:`~repro.graph.incremental.DynamicMatching`
enforces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.computation.registry import STREAM, register_scenario
from repro.exceptions import ComputationError
from repro.graph.bipartite import Vertex
from repro.graph.generators import SeedLike, _rng, object_names, thread_names

#: Event kinds.
INSERT = "insert"
EXPIRE = "expire"
EPOCH = "epoch"


class StreamEvent(NamedTuple):
    """One event of a streaming workload.

    ``insert`` events reveal one occurrence of the edge
    ``(thread, obj)``; ``expire`` events retract one previously revealed
    occurrence; ``epoch`` events mark a boundary at which window-aware
    mechanisms may restructure their component set (they carry no pair -
    build them with :func:`epoch_marker`).  Append-only online mechanisms
    only consume inserts (their clocks never shrink); the dynamic offline
    optimum consumes inserts and expires; lifecycle-aware drivers deliver
    all three.

    A named tuple, so immutable and cheap to build and unpack: stream
    cores read ``thread, obj, kind = event`` once per event.
    """

    thread: Optional[Vertex]
    obj: Optional[Vertex]
    kind: str = INSERT

    @property
    def is_insert(self) -> bool:
        return self.kind == INSERT

    @property
    def is_expire(self) -> bool:
        return self.kind == EXPIRE

    @property
    def is_epoch(self) -> bool:
        return self.kind == EPOCH

    @property
    def pair(self) -> Tuple[Vertex, Vertex]:
        if self.kind == EPOCH:
            raise ComputationError("epoch markers carry no (thread, object) pair")
        return (self.thread, self.obj)


#: The single epoch-boundary marker value (markers carry no payload).
_EPOCH_MARKER = StreamEvent(None, None, EPOCH)


def epoch_marker() -> StreamEvent:
    """The epoch-boundary marker event."""
    return _EPOCH_MARKER


#: What stream consumers accept: explicit events or bare insert pairs.
EventLike = Union[StreamEvent, Tuple[Vertex, Vertex]]


def as_stream_event(item: EventLike) -> StreamEvent:
    """Coerce a bare ``(thread, object)`` pair to an insert event."""
    if isinstance(item, StreamEvent):
        return item
    thread, obj = item
    return StreamEvent(thread, obj)


def insert_events(pairs: Iterable[Tuple[Vertex, Vertex]]) -> Iterator[StreamEvent]:
    """Wrap a lazy pair iterable as an insert-only event stream."""
    for thread, obj in pairs:
        yield StreamEvent(thread, obj)


def sliding_window(events: Iterable[EventLike], window: int) -> Iterator[StreamEvent]:
    """Impose a sliding window of the most recent ``window`` inserts.

    Before each insert that would make the window overflow, the oldest
    windowed insert is re-emitted as an expire event (so consumers see
    ``expire`` strictly before the insert that displaced it, matching
    :func:`~repro.graph.incremental.sliding_window_optimum_trajectory`).

    The input must be insert-only: a stream that already manages its own
    expiry (``expires=True`` scenarios) cannot also be windowed, because
    the two expiry sources would retract the same occurrence twice.
    """
    if window < 1:
        raise ComputationError(f"window must be >= 1, got {window}")
    recent: Deque[StreamEvent] = deque()
    for item in events:
        event = as_stream_event(item)
        if event.is_epoch:
            # Boundaries occupy no window slot; they just pass through.
            yield event
            continue
        if event.is_expire:
            raise ComputationError(
                "sliding_window expects an insert-only stream; streams with "
                "explicit expiry manage their own window"
            )
        if len(recent) == window:
            oldest = recent.popleft()
            yield StreamEvent(oldest.thread, oldest.obj, EXPIRE)
        recent.append(event)
        yield event


def with_epochs(events: Iterable[EventLike], every: int) -> Iterator[StreamEvent]:
    """Inject an epoch marker after every ``every`` inserts.

    The adapter for scenarios that do not emit their own boundaries
    (``epochs=False`` in the registry): expire events and pre-existing
    markers pass through and do not advance the insert counter, so an
    epoch always closes a fixed amount of *revealed* work regardless of
    how much churn rode along.
    """
    if every < 1:
        raise ComputationError(f"every must be >= 1, got {every}")
    inserts = 0
    for item in events:
        event = as_stream_event(item)
        yield event
        if event.is_insert:
            inserts += 1
            if inserts % every == 0:
                yield epoch_marker()


#: Upper bound on one insert run handed to ``observe_batch`` /
#: ``advance_batch`` by a stream consumer (bounds working memory;
#: flushing early never changes results, so it is not part of a run's
#: identity).
MAX_BATCH_EVENTS = 4096


def _candidate_objects(
    rng, objects: List[str], density: float
) -> Tuple[str, ...]:
    """A per-thread accessible-object subset sized by the density knob.

    Density plays the role it plays for the graph families: the expected
    fraction of the object side a single thread can reach.  At least one
    object is always reachable.
    """
    count = max(1, min(len(objects), int(round(density * len(objects)))))
    return tuple(rng.sample(objects, count))


# ---------------------------------------------------------------------------
# Registered stream scenarios
# ---------------------------------------------------------------------------
@register_scenario(
    "thread-churn",
    kind=STREAM,
    description="threads arrive and depart; a departure expires the thread's live edges",
    expires=True,
)
def thread_churn_stream(
    num_threads: int,
    num_objects: int,
    density: float,
    num_events: int,
    seed: SeedLike = None,
    churn_probability: float = 0.08,
) -> Iterator[StreamEvent]:
    """Thread arrival/departure churn with explicit edge expiry.

    Half the thread population starts active.  Before each insert, with
    probability ``churn_probability / 2`` an inactive thread (re)joins,
    and with the same probability an active thread departs - emitting one
    expire event per live occurrence of each of its edges, the way a
    monitoring agent drops state for a thread that exited.  Inserts pick
    a uniformly random active thread and one of the objects it can reach
    (a density-sized subset sampled at first activation).

    ``num_events`` counts *insert* events; expire events ride along as
    churn happens, so the stream's total length varies with the seed.
    """
    if num_events < 0:
        raise ComputationError("num_events must be non-negative")
    rng = _rng(seed)
    random, randrange, choice = rng.random, rng.randrange, rng.choice
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    active = list(threads[: max(1, num_threads // 2)])
    inactive = list(threads[len(active):])
    reachable: Dict[str, Tuple[str, ...]] = {}
    live: Dict[str, Dict[str, int]] = {}
    arrival = churn_probability / 2
    emitted = 0
    while emitted < num_events:
        # The roll ranges are disjoint so the two rates stay independent:
        # an arrival roll with an empty inactive pool is a no-op rather
        # than falling through to (and doubling) the departure branch.
        roll = random()
        if roll < arrival:
            if inactive:
                active.append(inactive.pop(randrange(len(inactive))))
        elif roll < churn_probability and len(active) > 1:
            departing = active.pop(randrange(len(active)))
            for obj, count in sorted(live.pop(departing, {}).items()):
                expire = StreamEvent(departing, obj, EXPIRE)
                for _ in range(count):
                    yield expire
            inactive.append(departing)
        thread = choice(active)
        candidates = reachable.get(thread)
        if candidates is None:
            candidates = reachable[thread] = _candidate_objects(rng, objects, density)
        obj = choice(candidates)
        counts = live.get(thread)
        if counts is None:
            counts = live[thread] = {}
        counts[obj] = counts.get(obj, 0) + 1
        emitted += 1
        yield StreamEvent(thread, obj)


@register_scenario(
    "hot-object-drift",
    kind=STREAM,
    description="a popular object set attracts most accesses and drifts over time",
)
def hot_object_drift_stream(
    num_threads: int,
    num_objects: int,
    density: float,
    num_events: int,
    seed: SeedLike = None,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.6,
    drift_every: int = 0,
) -> Iterator[StreamEvent]:
    """Popularity skew whose hot set rotates through the object space.

    With probability ``hot_probability`` an insert touches the current
    hot set (a ``hot_fraction`` slice of the objects); otherwise the
    thread touches its private density-sized subset.  Every
    ``drift_every`` inserts (default: an eighth of the stream) the hot
    set rotates forward, modelling load shifting between shards.  A
    sliding window over this stream lets the optimum *shrink* after each
    drift - the regime where append-only trajectories mislead.
    """
    if num_events < 0:
        raise ComputationError("num_events must be non-negative")
    rng = _rng(seed)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    hot_count = max(1, min(num_objects, int(round(hot_fraction * num_objects))))
    step = drift_every if drift_every > 0 else max(1, num_events // 8)
    reachable: Dict[str, Tuple[str, ...]] = {}
    random, randrange, choice = rng.random, rng.randrange, rng.choice
    offset = 0
    for index in range(num_events):
        if index and index % step == 0:
            offset = (offset + hot_count) % num_objects
        thread = choice(threads)
        if random() < hot_probability:
            obj = objects[(offset + randrange(hot_count)) % num_objects]
        else:
            candidates = reachable.get(thread)
            if candidates is None:
                candidates = reachable[thread] = _candidate_objects(
                    rng, objects, density
                )
            obj = choice(candidates)
        yield StreamEvent(thread, obj)


@register_scenario(
    "phase-change",
    kind=STREAM,
    description="the workload alternates between private-locality and shared-hotspot phases "
    "(an epoch marker at every phase boundary)",
    epochs=True,
)
def phase_change_stream(
    num_threads: int,
    num_objects: int,
    density: float,
    num_events: int,
    seed: SeedLike = None,
    phases: int = 4,
) -> Iterator[StreamEvent]:
    """Alternating locality regimes (phase changes).

    Even phases are *local*: each thread touches its private
    density-sized object subset, producing a sparse graph where
    thread-side components win.  Odd phases are *shared*: every thread
    hammers one common hot subset, the regime where object-side
    components win.  Mechanisms that commit early during one phase pay
    for it in the next - exactly the burn-in vs steady-state contrast the
    ratio sweeps measure.  Every phase boundary emits an epoch marker
    (the scenario registers with ``epochs=True``): the moment the regime
    flips is exactly when a window-aware mechanism should rebuild.
    """
    if num_events < 0:
        raise ComputationError("num_events must be non-negative")
    if phases < 1:
        raise ComputationError("phases must be >= 1")
    rng = _rng(seed)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    shared = tuple(objects[: max(1, min(num_objects, int(round(density * num_objects))))])
    phase_length = max(1, num_events // phases)
    reachable: Dict[str, Tuple[str, ...]] = {}
    choice = rng.choice
    for index in range(num_events):
        if index and index % phase_length == 0:
            yield _EPOCH_MARKER
        thread = choice(threads)
        if (index // phase_length) % 2 == 0:
            candidates = reachable.get(thread)
            if candidates is None:
                candidates = reachable[thread] = _candidate_objects(
                    rng, objects, density
                )
            obj = choice(candidates)
        else:
            obj = choice(shared)
        yield StreamEvent(thread, obj)
