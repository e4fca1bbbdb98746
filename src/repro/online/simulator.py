"""Online simulation driver: stream events past mechanisms and the optimum.

The evaluation in Section V feeds random bipartite graphs to the online
mechanisms "as we reveal the edge of the graph one by one".  This module
generalises that driver to the streaming model: the unit of input is a
lazy stream of :class:`~repro.computation.streams.StreamEvent` (inserts
*and* expires), consumed exactly once, with every mechanism and the
dynamic offline optimum advancing in lock-step.  Inserts between two
lifecycle ticks reach the mechanisms as one run through
:meth:`~repro.online.base.OnlineMechanism.observe_batch` - the same
insert-run consumption the sharded engine uses - which records exactly
the samples one call per event would.  Nothing
proportional to the stream length is materialised beyond the recorded
trajectories themselves, so unbounded monitoring streams and windowed
workloads run in one pass.

* :func:`reveal_order` turns a bipartite graph into a random edge-reveal
  order (each edge is one event, matching the paper's setup where repeated
  operations on the same pair change nothing).  Before shuffling, edges
  are canonicalised by a ``(type name, repr)`` sort key computed *once per
  vertex*, so graphs mixing vertex types (e.g. the int ``1`` and the str
  ``"1"``) still reveal deterministically for a given seed;
* :func:`run_mechanism` feeds a pair sequence to a mechanism and records
  the clock-size trajectory;
* :func:`compare_mechanisms_on_stream` is the streaming core: it runs
  several mechanisms plus a
  :class:`~repro.graph.incremental.DynamicMatching` engine over one lazy
  event stream (optionally imposing a sliding window), recording one
  clock-size sample per *insert* so all trajectories stay aligned.
  The full lifecycle is delivered to every mechanism: expire events
  reach :meth:`~repro.online.base.OnlineMechanism.expire` (a no-op shim
  for the paper's append-only mechanisms, a retirement opportunity for
  the adaptive ones) and epoch boundaries - explicit markers in the
  stream, or counter-based ticks via the ``epoch`` parameter - reach
  :meth:`~repro.online.base.OnlineMechanism.end_epoch`.  The offline
  optimum consumes inserts and expires, so with a window its trajectory
  can dip back down - and so, now, can a window-aware mechanism's.
* :func:`compare_mechanisms` keeps the classic graph-input surface of
  Figs. 4-7 and now simply routes a reveal order through the stream core.
  The ``"offline"`` entry is a true per-event optimum trajectory: the
  minimum-vertex-cover size of every revealed (non-expired) prefix.
  Dividing an online trajectory by it pointwise gives the
  competitive-ratio-over-time series (:func:`competitive_ratio_trajectory`
  in :mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.computation.streams import (
    EPOCH,
    MAX_BATCH_EVENTS,
    EventLike,
    iter_event_batches,
    sliding_window,
)
from repro.exceptions import ComputationError
from repro.computation.trace import Computation
from repro.graph.bipartite import BipartiteGraph, Vertex, vertex_sort_key
from repro.graph.generators import SeedLike, _rng
from repro.graph.incremental import DynamicMatching, incremental_optimum_trajectory
from repro.online.base import OnlineMechanism
from repro.seeds import derive_seed

Pair = Tuple[Vertex, Vertex]
MechanismFactory = Callable[[], OnlineMechanism]

#: Key under which the offline optimum series is reported.
OFFLINE_LABEL = "offline"


def seed_mechanism_factories(
    seeded: Dict[str, Callable[[int], OnlineMechanism]], root_seed: int
) -> Dict[str, MechanismFactory]:
    """Bind per-label seeds derived from one root to seed-taking factories.

    The historical pattern - calling every mechanism factory with the same
    ``seed + 1`` - handed identical randomness to every stochastic
    mechanism of a trial.  This helper derives one independent child seed
    per label (:func:`repro.seeds.derive_seed`, keyed by the label, so the
    assignment is order- and process-independent) and returns the
    zero-argument factories :func:`compare_mechanisms_on_stream` consumes.
    The ratio sweep and the sharded engine both route their mechanism
    seeding through this one function, which is what keeps their outputs
    identical for a given root seed no matter where the mechanisms run.
    """
    return {
        label: (lambda f=factory, s=derive_seed(root_seed, label): f(s))
        for label, factory in seeded.items()
    }


@dataclass(frozen=True)
class OnlineRunResult:
    """Outcome of running one mechanism over one reveal order / stream.

    ``size_trajectory[i]`` is the clock size after the ``i``-th revealed
    *insert* event (so the final clock size is ``size_trajectory[-1]``,
    also exposed as :attr:`final_size`).  Expire events and epoch
    boundaries do not add samples - their effect (a window-aware
    mechanism retiring components, the optimum shrinking) shows up in
    the next insert's sample - but they are counted in
    :attr:`expires_seen` / :attr:`epochs`, and :attr:`retired_components`
    totals the mechanism's retirements over the run (0 for the
    append-only mechanisms, by construction).
    """

    mechanism_name: str
    final_size: int
    size_trajectory: Tuple[int, ...]
    thread_components: int
    object_components: int
    events_revealed: int
    expires_seen: int = 0
    epochs: int = 0
    retired_components: int = 0
    peak_size: int = 0

    @property
    def sizes(self) -> Tuple[int, ...]:
        return self.size_trajectory


def reveal_order(graph: BipartiteGraph, seed: SeedLike = None) -> List[Pair]:
    """A random order in which to reveal the edges of ``graph``.

    Each edge appears exactly once; the shuffle models the unpredictability
    of the online setting while keeping the final revealed graph equal to
    ``graph``.  The edges are canonically sorted by
    :func:`~repro.graph.bipartite.vertex_sort_key` before shuffling, so
    ``1`` and ``"1"`` stay apart and, for vertices with discriminating
    reprs, the order depends only on ``seed`` and the edge set.
    Same-type vertices with *identical* reprs (e.g. instances of a class
    with a static ``__repr__``) still tie; their pre-shuffle order falls
    back to the stable sort's input order, so give such classes a
    discriminating ``__repr__`` if exact cross-run reproducibility
    matters.

    The per-vertex ``(type name, repr)`` key is computed once per vertex
    and cached for the sort, not re-derived per comparison: a vertex of
    degree ``d`` participates in ``O(d log E)`` comparisons, and ``repr``
    on user-defined vertex types is arbitrarily expensive.
    """
    rng = _rng(seed)
    keys: Dict[Vertex, Tuple[str, str]] = {}
    for vertex in graph.threads:
        keys[vertex] = vertex_sort_key(vertex)
    for vertex in graph.objects:
        keys[vertex] = vertex_sort_key(vertex)
    edges = sorted(graph.edges(), key=lambda edge: (keys[edge[0]], keys[edge[1]]))
    rng.shuffle(edges)
    return edges


def run_mechanism(
    mechanism: OnlineMechanism, pairs: Iterable[Pair]
) -> OnlineRunResult:
    """Feed ``pairs`` to ``mechanism`` and record its clock-size trajectory."""
    trajectory: List[int] = []
    for thread, obj in pairs:
        mechanism.observe(thread, obj)
        trajectory.append(mechanism.clock_size)
    return OnlineRunResult(
        mechanism_name=mechanism.name,
        final_size=mechanism.clock_size,
        size_trajectory=tuple(trajectory),
        thread_components=len(mechanism.thread_components),
        object_components=len(mechanism.object_components),
        events_revealed=mechanism.events_seen,
    )


def run_mechanism_on_graph(
    mechanism: OnlineMechanism, graph: BipartiteGraph, seed: SeedLike = None
) -> OnlineRunResult:
    """Reveal ``graph``'s edges in a random order to ``mechanism``."""
    return run_mechanism(mechanism, reveal_order(graph, seed=seed))


def run_mechanism_on_computation(
    mechanism: OnlineMechanism, computation: Computation
) -> OnlineRunResult:
    """Reveal a computation's operations (in interleaving order) to ``mechanism``."""
    return run_mechanism(mechanism, computation.to_pairs())


def compare_mechanisms_on_stream(
    events: Iterable[EventLike],
    factories: Dict[str, MechanismFactory],
    include_offline: bool = True,
    window: Optional[int] = None,
    epoch: Optional[int] = None,
) -> Dict[str, OnlineRunResult]:
    """Run several mechanisms and the dynamic optimum over one event stream.

    The stream is consumed exactly once; bare ``(thread, object)`` pairs
    are accepted and treated as inserts.  Runs of consecutive inserts
    (cut at lifecycle ticks, counter-epoch boundaries and
    :data:`~repro.computation.streams.MAX_BATCH_EVENTS`) go through each
    mechanism's :meth:`~repro.online.base.OnlineMechanism.observe_batch`,
    and every consumer records one trajectory sample per insert; on each
    expire every mechanism's
    :meth:`~repro.online.base.OnlineMechanism.expire` fires (the no-op
    shim for append-only mechanisms) and the
    :class:`~repro.graph.incremental.DynamicMatching` engine retracts the
    edge.  Epoch boundaries - explicit markers in the stream, plus a tick
    after every ``epoch`` inserts when the parameter is set - deliver
    :meth:`~repro.online.base.OnlineMechanism.end_epoch` to every
    mechanism.  With ``window`` set, the insert-only input is wrapped in
    :func:`~repro.computation.streams.sliding_window` first; streams that
    emit their own expire events must pass ``window=None``.

    Returns one :class:`OnlineRunResult` per factory label, plus an
    ``"offline"`` entry when ``include_offline`` is true whose trajectory
    is the per-insert minimum-vertex-cover size of the *live* (windowed /
    non-expired) graph.
    """
    if epoch is not None and epoch < 1:
        raise ComputationError(f"epoch must be >= 1, got {epoch}")
    if window is not None:
        events = sliding_window(events, window)
    mechanisms = {label: factory() for label, factory in factories.items()}
    trajectories: Dict[str, List[int]] = {label: [] for label in mechanisms}
    # The engine keeps no mutation history of its own (the per-insert
    # samples below are the record), so its footprint tracks the live
    # graph rather than the total stream length.
    engine = DynamicMatching(record_trajectory=False) if include_offline else None
    offline_sizes: List[int] = []
    inserts = 0
    expires = 0
    epochs = 0

    def deliver_epoch() -> None:
        nonlocal epochs
        epochs += 1
        for mechanism in mechanisms.values():
            mechanism.end_epoch()

    def feed(segment: List[Tuple[Vertex, Vertex]]) -> None:
        nonlocal inserts
        for label, mechanism in mechanisms.items():
            trajectories[label].extend(mechanism.observe_batch(segment))
        if engine is not None:
            add_edge = engine.add_edge
            append = offline_sizes.append
            for thread, obj in segment:
                add_edge(thread, obj)
                append(engine.size)
        inserts += len(segment)

    for item in iter_event_batches(events, MAX_BATCH_EVENTS):
        if isinstance(item, list):
            run = [(event.thread, event.obj) for event in item]
            if epoch is None:
                feed(run)
                continue
            # Sub-split at counter-epoch boundaries, so each tick lands
            # right after the insert that completes the epoch.
            start = 0
            while start < len(run):
                segment = run[start:start + epoch - inserts % epoch]
                feed(segment)
                start += len(segment)
                if inserts % epoch == 0:
                    deliver_epoch()
        elif item.kind == EPOCH:
            deliver_epoch()
        else:
            expires += 1
            for mechanism in mechanisms.values():
                mechanism.expire(item.thread, item.obj)
            if engine is not None:
                engine.remove_edge(item.thread, item.obj)
    results: Dict[str, OnlineRunResult] = {}
    for label, mechanism in mechanisms.items():
        results[label] = OnlineRunResult(
            mechanism_name=mechanism.name,
            final_size=mechanism.clock_size,
            size_trajectory=tuple(trajectories[label]),
            thread_components=len(mechanism.thread_components),
            object_components=len(mechanism.object_components),
            events_revealed=mechanism.events_seen,
            expires_seen=mechanism.expires_seen,
            epochs=mechanism.epoch,
            retired_components=mechanism.retired_total,
            peak_size=mechanism.peak_size,
        )
    if engine is not None:
        results[OFFLINE_LABEL] = OnlineRunResult(
            mechanism_name="offline-optimal",
            final_size=offline_sizes[-1] if offline_sizes else 0,
            size_trajectory=tuple(offline_sizes),
            thread_components=-1,
            object_components=-1,
            events_revealed=inserts,
            expires_seen=expires,
            epochs=epochs,
        )
    return results


def compare_mechanisms(
    graph: BipartiteGraph,
    factories: Dict[str, MechanismFactory],
    seed: SeedLike = None,
    include_offline: bool = False,
) -> Dict[str, OnlineRunResult]:
    """Run several mechanisms on the *same* reveal order of ``graph``.

    A thin wrapper over :func:`compare_mechanisms_on_stream`: the graph's
    reveal order is the (append-only) event stream, consumed in a single
    pass shared by all mechanisms.

    Parameters
    ----------
    factories:
        Mapping from a label to a zero-argument callable producing a fresh
        mechanism (mechanisms are single-use).
    include_offline:
        When ``True``, an entry ``"offline"`` is added whose trajectory is
        the *per-event offline optimum*: ``size_trajectory[i]`` is the
        minimum vertex cover size of the graph revealed by the first
        ``i + 1`` events, computed incrementally in one pass.  Its final
        value equals ``optimal_clock_size(graph)``, the constant the
        original Figs. 6-7 plot; the full trajectory additionally supports
        competitive-ratio-over-time analysis.
    """
    order = reveal_order(graph, seed=seed)
    return compare_mechanisms_on_stream(
        order, factories, include_offline=include_offline
    )


def offline_optimum_result(order: Sequence[Pair]) -> OnlineRunResult:
    """The per-event offline-optimum trajectory of one reveal order.

    Packaged as an :class:`OnlineRunResult` so it plots alongside the
    online mechanisms.  Thread/object component counts are reported as
    ``-1``: the optimum is a matching *size*; which side each cover vertex
    lives on is only fixed once the final cover is constructed.
    """
    trajectory = incremental_optimum_trajectory(order)
    return OnlineRunResult(
        mechanism_name="offline-optimal",
        final_size=trajectory[-1] if trajectory else 0,
        size_trajectory=trajectory,
        thread_components=-1,
        object_components=-1,
        events_revealed=len(order),
    )
