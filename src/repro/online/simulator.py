"""Online simulation driver: stream events past mechanisms and the optimum.

The evaluation in Section V feeds random bipartite graphs to the online
mechanisms "as we reveal the edge of the graph one by one".  This module
generalises that driver to the streaming model: the unit of input is a
lazy stream of :class:`~repro.computation.streams.StreamEvent` (inserts
*and* expires), consumed exactly once, with every mechanism and the
dynamic offline optimum advancing in lock-step.  Nothing proportional to
the stream length is materialised beyond the recorded trajectories
themselves, so unbounded monitoring streams and windowed workloads run
in one pass.

* :class:`StreamConsumer` is the one lifecycle consumer of a stream
  pass, shared with the sharded engine (:mod:`repro.engine.runner`
  runs one per shard): inserts between two lifecycle ticks reach every
  mechanism as one run through
  :meth:`~repro.online.base.OnlineMechanism.observe_batch` (which
  records exactly the samples one call per event would) and the
  :class:`~repro.graph.incremental.DynamicMatching` optimum; runs of
  consecutive expire events reach
  :meth:`~repro.online.base.OnlineMechanism.expire` pair by pair where
  a mechanism hooks it (a retirement opportunity for the adaptive
  ones), one :meth:`~repro.online.base.OnlineMechanism.count_expires`
  where it only counts (the paper's append-only mechanisms), and
  retract each edge from the optimum; epoch boundaries - explicit
  markers in the stream, or counter-based ticks - reach
  :meth:`~repro.online.base.OnlineMechanism.end_epoch`.  It also
  imposes a sliding window on an insert-only stream.
* :func:`reveal_order` turns a bipartite graph into a random edge-reveal
  order (each edge is one event, matching the paper's setup where repeated
  operations on the same pair change nothing).  Before shuffling, edges
  are canonicalised by a ``(type name, repr)`` sort key computed *once per
  vertex*, so graphs mixing vertex types (e.g. the int ``1`` and the str
  ``"1"``) still reveal deterministically for a given seed;
* :func:`run_mechanism` feeds a pair sequence to a mechanism and records
  the clock-size trajectory;
* :func:`compare_mechanisms_on_stream` routes a whole stream to one
  :class:`StreamConsumer` through the engine's router and records one
  clock-size sample per *insert*, so all trajectories stay aligned.  The
  offline optimum consumes inserts and expires, so with a window its
  trajectory can dip back down - and so can a window-aware mechanism's.
* :func:`compare_mechanisms` keeps the classic graph-input surface of
  Figs. 4-7 and simply routes a reveal order through the stream core.
  The ``"offline"`` entry is a true per-event optimum trajectory: the
  minimum-vertex-cover size of every revealed (non-expired) prefix.
  Dividing an online trajectory by it pointwise gives the
  competitive-ratio-over-time series (:func:`competitive_ratio_trajectory`
  in :mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.computation.streams import MAX_BATCH_EVENTS, EventLike
from repro.exceptions import ComputationError
from repro.computation.trace import Computation
from repro.graph.bipartite import BipartiteGraph, Vertex, vertex_sort_key
from repro.graph.generators import SeedLike, _rng
from repro.graph.incremental import DynamicMatching
from repro.obs.registry import active as _metrics_active
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
    return compare_mechanisms_on_stream(
        pairs, {"mechanism": lambda: mechanism}, include_offline=False
    )["mechanism"]


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


def _expire_hooked(mechanism: OnlineMechanism) -> bool:
    """Whether ``mechanism``'s expiry does more than count (see the base class)."""
    cls = type(mechanism)
    return (
        cls.expire is not OnlineMechanism.expire
        or cls._on_expire is not OnlineMechanism._on_expire
    )


class StreamConsumer:
    """The lifecycle half of one stream pass: mechanisms, optimum, window.

    ``window`` imposes a sliding window of the most recent inserts on an
    insert-only stream, delivered as
    :func:`~repro.computation.streams.sliding_window` would; ``epoch``
    adds an epoch boundary right after every ``epoch``-th insert.

    Input arrives as runs cut by
    :meth:`~repro.engine.sharding.StreamSharder.split_runs_group` (over
    one shard for :func:`compare_mechanisms_on_stream`, over each for the
    engine, which pickles the consumer whole at chunk boundaries):
    :meth:`insert_run` for consecutive inserts,
    :meth:`expire_run` for consecutive expires (a departing thread's
    live edges), :meth:`end_epoch` for a marker.  A run's length never
    changes a result; only the per-mechanism order of calls does.
    """

    def __init__(
        self,
        mechanisms: Dict[str, OnlineMechanism],
        include_offline: bool = True,
        window: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        if window is not None and window < 1:
            raise ComputationError(f"window must be >= 1, got {window}")
        if epoch is not None and epoch < 1:
            raise ComputationError(f"epoch must be >= 1, got {epoch}")
        self.mechanisms = mechanisms
        self.optimum = DynamicMatching() if include_offline else None
        self.window = window
        self.live_window: Optional[Deque[Pair]] = deque() if window is not None else None
        self.epoch = epoch
        self.inserts = 0
        self.expires = 0
        self.epochs = 0

    def run_cap(self, limit: int) -> int:
        """Largest insert run :meth:`insert_run` may take next, at most ``limit``.

        A run never overshoots an epoch boundary.  An imposed window does
        not cut runs: :meth:`insert_run` delivers the run's expiries.
        """
        if self.epoch is not None:
            limit = min(limit, self.epoch - self.inserts % self.epoch)
        return limit

    def insert_run(
        self, run: List[Pair]
    ) -> Tuple[Dict[str, List[int]], Optional[List[int]]]:
        """One :meth:`run_cap`-bounded insert run through every consumer.

        Returns each mechanism's clock size and the optimum's size
        (``None`` without one) after every insert, as one insert at a
        time would.  Under an imposed window with ``room`` pairs free,
        insert ``i`` first expires the oldest live pair iff
        ``i >= room``.  A mechanism without an expire hook takes its
        (counted-only) expiries, then the whole run; a hooked one takes
        them between the inserts.  An epoch the run completes is
        delivered after it.
        """
        expired: List[Pair] = []
        live_window = self.live_window
        if live_window is not None:
            live_window.extend(run)
            popleft = live_window.popleft
            expired = [popleft() for _ in range(len(live_window) - self.window)]
        room = len(run) - len(expired)
        head = run[:room] if expired else run
        offline_sizes: Optional[List[int]] = None
        optimum = self.optimum
        if optimum is not None:
            offline_sizes = []
            add_edge = optimum.add_edge
            remove_edge = optimum.remove_edge
            append = offline_sizes.append
            for thread, obj in head:
                add_edge(thread, obj)
                append(optimum.size)
            for (gone_thread, gone_obj), (thread, obj) in zip(expired, run[room:]):
                remove_edge(gone_thread, gone_obj)
                add_edge(thread, obj)
                append(optimum.size)
        sizes: Dict[str, List[int]] = {}
        for label, mechanism in self.mechanisms.items():
            if expired and _expire_hooked(mechanism):
                label_sizes = mechanism.observe_batch(head)
                for gone, pair in zip(expired, run[room:]):
                    mechanism.expire(*gone)
                    label_sizes += mechanism.observe_batch((pair,))
            else:
                mechanism.count_expires(len(expired))
                label_sizes = mechanism.observe_batch(run)
            sizes[label] = label_sizes
        self.expires += len(expired)
        self.inserts += len(run)
        if self.epoch is not None and self.inserts % self.epoch == 0:
            self.end_epoch()
        return sizes, offline_sizes

    def expire_run(self, run: Sequence[Pair]) -> None:
        """A run of the stream's consecutive expire events, in order.

        A mechanism with an expire hook gets :meth:`expire` once per
        pair, in order; any other takes the run as one count (the
        commutation contract of
        :class:`~repro.online.base.OnlineMechanism`).  The optimum
        removes each pair in order.  None may arrive under an imposed
        window.
        """
        if self.live_window is not None:
            raise ComputationError(
                "an imposed window expects an insert-only stream; streams "
                "with explicit expiry manage their own window"
            )
        for mechanism in self.mechanisms.values():
            if _expire_hooked(mechanism):
                expire = mechanism.expire
                for thread, obj in run:
                    expire(thread, obj)
            else:
                mechanism.count_expires(len(run))
        if self.optimum is not None:
            remove_edge = self.optimum.remove_edge
            for thread, obj in run:
                remove_edge(thread, obj)
        self.expires += len(run)

    def end_epoch(self) -> None:
        """One epoch boundary: every mechanism may restructure its clock."""
        self.epochs += 1
        registry = _metrics_active()
        for mechanism in self.mechanisms.values():
            if registry is None:
                mechanism.end_epoch()
            else:
                began = perf_counter()
                mechanism.end_epoch()
                registry.observe("engine.epoch_rotation_s", perf_counter() - began)


def compare_mechanisms_on_stream(
    events: Iterable[EventLike],
    factories: Dict[str, MechanismFactory],
    include_offline: bool = True,
    window: Optional[int] = None,
    epoch: Optional[int] = None,
) -> Dict[str, OnlineRunResult]:
    """Run several mechanisms and the dynamic optimum over one event stream.

    The stream is consumed exactly once by a :class:`StreamConsumer`
    (see it for ``window`` and ``epoch``), in the runs a one-shard
    :meth:`~repro.engine.sharding.StreamSharder.split_runs_group` cuts
    at ``MAX_BATCH_EVENTS``; bare ``(thread, object)`` pairs are
    inserts.  Streams that emit their own expire events must
    pass ``window=None``.

    Returns one :class:`OnlineRunResult` per factory label, plus an
    ``"offline"`` entry when ``include_offline`` is true whose trajectory
    is the per-insert minimum-vertex-cover size of the *live* (windowed /
    non-expired) graph.
    """
    # Deferred import: the engine's runner imports this module.
    from repro.engine.sharding import ExpireRun, StreamSharder

    consumer = StreamConsumer(
        {label: factory() for label, factory in factories.items()},
        include_offline, window, epoch,
    )
    trajectories: Dict[str, List[int]] = {label: [] for label in factories}
    offline_sizes: List[int] = []
    cap = MAX_BATCH_EVENTS  # read per call, for both run kinds
    for _, _, item in StreamSharder(1).split_runs_group(
        events, (0,), {0: lambda: consumer.run_cap(cap)}, expire_cap=cap
    ):
        if type(item) is list:
            sizes, offline = consumer.insert_run(item)
            for label, run_sizes in sizes.items():
                trajectories[label].extend(run_sizes)
            if offline is not None:
                offline_sizes.extend(offline)
        elif type(item) is ExpireRun:
            consumer.expire_run(item)
        elif item is not None:
            consumer.end_epoch()
    results: Dict[str, OnlineRunResult] = {}
    for label, mechanism in consumer.mechanisms.items():
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
    if include_offline:
        results[OFFLINE_LABEL] = OnlineRunResult(
            mechanism_name="offline-optimal",
            final_size=offline_sizes[-1] if offline_sizes else 0,
            size_trajectory=tuple(offline_sizes),
            thread_components=-1,
            object_components=-1,
            events_revealed=consumer.inserts,
            expires_seen=consumer.expires,
            epochs=consumer.epochs,
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
