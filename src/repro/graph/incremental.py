"""Dynamic maximum bipartite matching: augment on insert, repair on delete.

The streaming evaluation reveals a thread-object graph one event at a time
and wants to know, after *every* event, how the online clock sizes compare
with the offline optimum of the graph currently live.  Two regimes matter:

* **append-only** (the paper's Section V setting): edges are only ever
  inserted, the optimum only grows;
* **sliding-window** (live-system monitoring): an event stops mattering
  once it falls out of the monitoring window, so edges also *expire* and
  the optimum can shrink again.

Recomputing Hopcroft-Karp from scratch per event costs
``O(E^2 * sqrt(V))`` over a run; :class:`DynamicMatching` instead
maintains a maximum matching across both edge insertions and deletions.

Insertion rests on one classical fact: if a matching is maximum and a
single edge ``(t, o)`` is inserted, the maximum matching size grows by at
most one, and any augmenting path that now exists must traverse the new
edge.  Each insert therefore needs at most one (iterative, stack-based)
alternating-path search anchored at the new edge:

* both endpoints unmatched - match them directly, ``O(1)``;
* ``t`` unmatched - any augmenting path must *start* at ``t``, so one
  thread-side search from ``t`` suffices;
* ``o`` unmatched - the mirror image: one object-side search from ``o``;
* both matched - an augmenting path must look like
  ``s ~~> o_t -> t -> o -> t_o ~~> e`` (entering ``t`` through its matched
  edge and leaving ``o`` through its matched edge), so the engine first
  re-matches ``o_t`` away from ``t`` (object-side search), then, with
  ``t`` freed, runs a plain thread-side search from ``t``.  If either
  phase fails no augmenting path exists and the matching is already
  maximum again; the first phase's re-matching is harmless because it
  preserves both size and validity.

Deletion is the mirror argument.  Removing a *non-matched* edge never
invalidates maximality (the matching is untouched and the edge set only
shrank).  Removing a *matched* edge ``(t, o)`` frees exactly ``t`` and
``o``; any augmenting path of the shrunken graph must start at ``t`` or
end at ``o`` (a path avoiding both would have been augmenting before the
deletion, contradicting maximality), so one thread-side search from ``t``
and - only if that fails - one object-side search from ``o`` restore
maximality with at most one re-augmentation.  If both fail the optimum
has genuinely shrunk by one.

Every search phase is a single ``O(V + E)`` sweep, against
``O(E * sqrt(V))`` for a from-scratch Hopcroft-Karp per event.  Because
streamed reveals may repeat a live pair, the engine counts per-edge
multiplicity: an edge leaves the graph only when *every* live event that
revealed it has expired.  The minimum-vertex-cover *size* is maintained
lazily for free (it always equals the matching size, by König-Egerváry /
Theorem 3 of the paper); the cover's concrete vertex set is derived from
*incrementally repaired* alternating-reachability sets (see
:meth:`DynamicMatching.vertex_cover`) and cached until the next
structural change, so an epoch boundary that queries the cover after a
quiet interval pays ``O(V)`` assembly, not an ``O(V + E)`` sweep.

:func:`incremental_optimum_trajectory` packages the append-only regime
and :func:`sliding_window_optimum_trajectory` the windowed one, for the
online simulator and the ratio sweeps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph, Edge, Vertex
from repro.graph.matching import Matching, augment_from_unmatched_thread
from repro.graph.vertex_cover import alternating_reachable

# Telemetry write handle (write-only in result paths per C206): counts
# how often the König cover could be assembled from repaired
# reachability sets vs rebuilt by a full alternating-forest sweep.
from repro.obs.registry import active as _metrics_active


class DynamicMatching:
    """A maximum matching maintained across edge insertions *and* deletions.

    The matching is maximum after every :meth:`add_edge` and
    :meth:`remove_edge` call; the invariant is what lets each mutation get
    away with at most two anchored augmenting-path searches (see the
    module docstring).  Repeated inserts of a live edge are counted, so a
    sliding window that expires events one by one only removes the edge
    from the graph when its last live occurrence leaves.
    """

    def __init__(
        self, edges: Iterable[Edge] = (), record_trajectory: bool = True
    ) -> None:
        self._graph = BipartiteGraph()
        self._thread_to_object: Dict[Vertex, Vertex] = {}
        self._object_to_thread: Dict[Vertex, Vertex] = {}
        self._multiplicity: Dict[Edge, int] = {}
        # The per-mutation size history is opt-out: drivers that stream
        # unbounded workloads and keep their own per-insert samples (the
        # online simulator, the windowed trajectory helper) disable it so
        # the engine's memory stays proportional to the *live* graph, not
        # to the total number of events ever processed.
        self._trajectory: Optional[List[int]] = [] if record_trajectory else None
        self._cover_cache: Optional[FrozenSet[Vertex]] = None
        # Alternating-reachability sets (König's Z: vertices reachable
        # from free threads along alternating paths), maintained
        # incrementally across mutations.  ``_reach_threads is None``
        # means dirty - the next cover query rebuilds both sets with one
        # full sweep.  Exact for the empty graph, so start clean.
        self._reach_threads: Optional[Set[Vertex]] = set()
        self._reach_objects: Set[Vertex] = set()
        for thread, obj in edges:
            self.add_edge(thread, obj)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The graph currently live (revealed and not expired)."""
        return self._graph

    @property
    def size(self) -> int:
        """Current maximum matching size = optimal clock size (Theorem 3)."""
        return len(self._thread_to_object)

    @property
    def cover_size(self) -> int:
        """Current minimum vertex cover size.

        Lazily maintained in the strongest possible sense: by
        König-Egerváry it always equals the matching size, so no cover is
        ever constructed to answer this query.
        """
        return len(self._thread_to_object)

    def __len__(self) -> int:
        return len(self._thread_to_object)

    def matching(self) -> Matching:
        """The current maximum matching as an immutable :class:`Matching`."""
        return Matching(self._thread_to_object.items())

    def vertex_cover(self) -> FrozenSet[Vertex]:
        """A minimum vertex cover of the live graph (König construction).

        Assembled on demand as ``(threads - Z_threads) | Z_objects`` from
        the *incrementally repaired* alternating-reachability sets and
        cached until the next structural change (an edge actually
        entering or leaving the graph).  Mutations that provably leave
        the alternating forest intact - multiplicity bumps, inserts that
        the matching absorbed without moving (a monotone closure adds any
        newly reachable suffix), non-matched deletions whose thread was
        unreachable, prunes of isolated vertices - keep the sets exact;
        anything that moves a matched edge marks them dirty, and the next
        query rebuilds them with one :func:`alternating_reachable` sweep.
        The ``matching.cover.repairs`` / ``matching.cover.rebuilds``
        counters record which path served each (cache-missing) query; the
        property tests assert the repaired cover equals the from-scratch
        König cover under random interleaved churn.
        """
        if self._cover_cache is None:
            graph = self._graph
            registry = _metrics_active()
            if self._reach_threads is None:
                reachable = alternating_reachable(graph, self.matching())
                self._reach_threads = set(graph.threads & reachable)
                self._reach_objects = set(graph.objects & reachable)
                if registry is not None:
                    registry.add("matching.cover.rebuilds")
            elif registry is not None:
                registry.add("matching.cover.repairs")
            self._cover_cache = frozenset(
                (graph.threads - self._reach_threads) | self._reach_objects
            )
        return self._cover_cache

    def multiplicity(self, thread: Vertex, obj: Vertex) -> int:
        """How many live events currently reveal the edge ``(thread, obj)``."""
        return self._multiplicity.get((thread, obj), 0)

    def optimal_size_trajectory(self) -> Tuple[int, ...]:
        """Maximum matching size after each mutating call so far.

        One entry per :meth:`add_edge` / :meth:`remove_edge` call (repeat
        edges included), so feeding a reveal order through the engine
        yields the per-event offline-optimum trajectory the
        competitive-ratio plots need.  Raises :class:`GraphError` if the
        engine was built with ``record_trajectory=False``.
        """
        if self._trajectory is None:
            raise GraphError(
                "this engine was built with record_trajectory=False; "
                "sample .size per event instead"
            )
        return tuple(self._trajectory)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add_edge(self, thread: Vertex, obj: Vertex) -> bool:
        """Insert one edge occurrence and restore maximality.

        Returns ``True`` iff the maximum matching grew.  Inserting an
        already-live edge only bumps its multiplicity (size unchanged).
        """
        grew = False
        key = (thread, obj)
        if key in self._multiplicity:
            self._multiplicity[key] += 1
        else:
            thread_known = self._graph.has_thread(thread)
            self._graph.add_edge(thread, obj)
            self._multiplicity[key] = 1
            self._cover_cache = None
            thread_matched = thread in self._thread_to_object
            object_matched = obj in self._object_to_thread
            # An augmenting path runs from a free thread to a free object,
            # so a search can only succeed while both sides have free
            # vertices.  Checking first is what keeps the saturated regime
            # (matching size pinned at min(n, m), common in dense reveals)
            # at O(1) per insert instead of one doomed O(V + E) sweep each.
            matched = len(self._thread_to_object)
            free_threads = self._graph.num_threads - matched
            free_objects = self._graph.num_objects - matched
            if not thread_matched and not object_matched:
                self._thread_to_object[thread] = obj
                self._object_to_thread[obj] = thread
                grew = True
                # A pre-existing free thread was a root of the alternating
                # forest; matching it away is non-monotone.  A brand-new
                # thread never was a root, and a pre-existing free object
                # cannot have been reachable (that would have been an
                # augmenting path), so reachability is untouched.
                if thread_known:
                    self._reach_threads = None
            elif not thread_matched:
                if free_objects:
                    grew = self._augment_from_thread(thread)
                if grew:
                    self._reach_threads = None
                else:
                    self._absorb_reachable(thread, obj)
            elif not object_matched:
                if free_threads:
                    grew = self._augment_from_object(obj)
                if grew:
                    self._reach_threads = None
                else:
                    self._absorb_reachable(thread, obj)
            else:
                if free_threads and free_objects:
                    grew = self._augment_through_matched_edge(thread, obj)
                if grew or thread not in self._thread_to_object:
                    # Success flipped the path; a phase-1 exchange (the
                    # returned-False case that left ``thread`` free) also
                    # moved matched edges.  Either way the forest moved.
                    self._reach_threads = None
                else:
                    self._absorb_reachable(thread, obj)
        if self._trajectory is not None:
            self._trajectory.append(len(self._thread_to_object))
        return grew

    def add_edges(self, pairs: Iterable[Edge]) -> "DynamicMatching":
        """Insert a whole sequence of edges; returns ``self``."""
        for thread, obj in pairs:
            self.add_edge(thread, obj)
        return self

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def remove_edge(self, thread: Vertex, obj: Vertex) -> bool:
        """Expire one edge occurrence and restore maximality.

        Returns ``True`` iff the maximum matching shrank.  While other
        live occurrences of the edge remain, only the multiplicity drops.
        Raises :class:`~repro.exceptions.GraphError` if the edge is not
        live (more expiries than reveals is always a driver bug).
        """
        key = (thread, obj)
        count = self._multiplicity.get(key, 0)
        if count == 0:
            raise GraphError(f"edge ({thread!r}, {obj!r}) is not live")
        shrank = False
        if count > 1:
            self._multiplicity[key] = count - 1
        else:
            del self._multiplicity[key]
            self._graph.remove_edge(thread, obj)
            self._cover_cache = None
            if self._thread_to_object.get(thread) == obj:
                # The deleted edge carried the matching: free both
                # endpoints, then try the only two path families that can
                # exist (start at the freed thread / end at the freed
                # object - see the module docstring).  Freed endpoints
                # and repair flips both move the alternating forest.
                self._reach_threads = None
                del self._thread_to_object[thread]
                del self._object_to_thread[obj]
                if not self._augment_from_thread(thread):
                    shrank = not self._augment_from_object(obj)
            elif (
                self._reach_threads is not None
                and thread in self._reach_threads
            ):
                # The removed non-matched edge may have been the only
                # alternating step into some reachable suffix; deletion
                # is non-monotone, so recompute on the next cover query.
                # A thread outside Z contributed nothing through this
                # edge (non-matched edges are walked thread-to-object),
                # so Z is untouched in that case.
                self._reach_threads = None
            # Prune endpoints the removal isolated: a degree-0 vertex is
            # necessarily unmatched (a matched pair is always an edge) and
            # can never join an augmenting path, and on unbounded streams
            # with fresh vertex ids the dead vertices would otherwise
            # accumulate without bound.
            if self._graph.degree(thread) == 0:
                self._graph.remove_isolated_vertex(thread)
                if self._reach_threads is not None:
                    self._reach_threads.discard(thread)
            if self._graph.degree(obj) == 0:
                self._graph.remove_isolated_vertex(obj)
                if self._reach_threads is not None:
                    self._reach_objects.discard(obj)
        if self._trajectory is not None:
            self._trajectory.append(len(self._thread_to_object))
        return shrank

    def remove_edges(self, pairs: Iterable[Edge]) -> "DynamicMatching":
        """Expire a whole sequence of edges; returns ``self``."""
        for thread, obj in pairs:
            self.remove_edge(thread, obj)
        return self

    # ------------------------------------------------------------------
    # Incremental alternating reachability (König's Z)
    # ------------------------------------------------------------------
    def _absorb_reachable(self, thread: Vertex, obj: Vertex) -> None:
        """Close the reachability sets over an insert that moved no matching.

        Called after a structural insert of ``(thread, obj)`` that left
        every matched edge in place.  Z (the alternating-reachability
        set) is the least fixed point of monotone rules - free threads
        are roots, non-matched edges walk thread-to-object, matched
        edges walk object-to-thread - and both possible additions (a new
        free-thread root, a new thread-to-object step) only *add* rules,
        so seeding the old Z with the new entry points and closing is
        exact, not approximate.  No-op when the sets are already dirty.
        """
        reach_threads = self._reach_threads
        if reach_threads is None:
            return
        reach_objects = self._reach_objects
        thread_to_object = self._thread_to_object
        object_to_thread = self._object_to_thread
        graph = self._graph
        # Threads newly absorbed into Z whose edges still need scanning.
        pending: List[Vertex] = []
        if thread not in thread_to_object and thread not in reach_threads:
            reach_threads.add(thread)
            pending.append(thread)
        elif (
            thread in reach_threads
            and obj not in reach_objects
            and thread_to_object.get(thread) != obj
        ):
            # Only the new edge can have opened anything: ``thread`` was
            # already closed over its other edges when it joined Z.
            reach_objects.add(obj)
            partner = object_to_thread.get(obj)
            if partner is not None and partner not in reach_threads:
                reach_threads.add(partner)
                pending.append(partner)
        while pending:
            current = pending.pop()
            matched = thread_to_object.get(current)
            for neighbor in graph.thread_neighbors(current):
                if neighbor == matched or neighbor in reach_objects:
                    continue
                reach_objects.add(neighbor)
                partner = object_to_thread.get(neighbor)
                if partner is not None and partner not in reach_threads:
                    reach_threads.add(partner)
                    pending.append(partner)

    # ------------------------------------------------------------------
    # Anchored augmenting-path searches (iterative)
    # ------------------------------------------------------------------
    def _augment_from_thread(self, root: Vertex) -> bool:
        """Hungarian-style search from an unmatched thread; flips on success."""
        return augment_from_unmatched_thread(
            self._graph, self._thread_to_object, self._object_to_thread, root
        )

    def _augment_from_object(
        self,
        root: Vertex,
        banned_thread: Optional[Vertex] = None,
        banned_object: Optional[Vertex] = None,
    ) -> bool:
        """Mirror-image search giving ``root`` (an object) a new partner.

        Walks unmatched edges from objects to threads and matched edges
        from threads to their objects, looking for an unmatched thread.
        ``root``'s own matched edge (if any) is never taken, so on success
        the flip re-matches ``root`` away from its current partner (or
        simply matches it, if ``root`` was free - the decremental repair
        case).

        The both-endpoints-matched insert case passes the new edge's
        endpoints as ``banned_thread``/``banned_object``: the prefix of a
        simple augmenting path cannot revisit them.
        """
        graph = self._graph
        thread_to_object = self._thread_to_object
        object_to_thread = self._object_to_thread
        visited_threads: Set[Vertex] = set()
        if banned_thread is not None:
            visited_threads.add(banned_thread)
        visited_objects: Set[Vertex] = {root}
        if banned_object is not None:
            visited_objects.add(banned_object)
        # Frame: [object, neighbor-iterator, contested-thread].
        stack = [[root, iter(graph.object_neighbors(root)), None]]
        while stack:
            frame = stack[-1]
            obj = frame[0]
            partner = object_to_thread.get(obj)
            pushed = False
            for thread in frame[1]:
                if thread == partner or thread in visited_threads:
                    continue
                visited_threads.add(thread)
                frame[2] = thread
                current = thread_to_object.get(thread)
                if current is None:
                    for frame_obj, _, frame_thread in stack:
                        thread_to_object[frame_thread] = frame_obj
                        object_to_thread[frame_obj] = frame_thread
                    return True
                if current in visited_objects:
                    continue
                visited_objects.add(current)
                stack.append(
                    [current, iter(graph.object_neighbors(current)), None]
                )
                pushed = True
                break
            if not pushed:
                stack.pop()
        return False

    def _augment_through_matched_edge(self, thread: Vertex, obj: Vertex) -> bool:
        """Both endpoints matched: free ``thread``, then search from it.

        Phase 1 re-matches ``thread``'s partner object away from it (the
        ``s ~~> o_t`` prefix of the required path shape); ``obj`` is banned
        because the prefix of a simple augmenting path cannot revisit it.
        Phase 2 is then the plain unmatched-thread case.  If phase 1
        succeeds but phase 2 fails, the matching has merely been exchanged
        for another of the same (still maximum) size: any augmenting path
        would have to start at the only freed thread, and phase 2 just
        proved there is none.
        """
        partner = self._thread_to_object[thread]
        del self._thread_to_object[thread]
        del self._object_to_thread[partner]
        # Re-match the freed partner object without using ``thread``/``obj``.
        if not self._augment_from_object(partner, banned_thread=thread, banned_object=obj):
            # No alternating prefix exists: restore and report no growth.
            self._thread_to_object[thread] = partner
            self._object_to_thread[partner] = thread
            return False
        return self._augment_from_thread(thread)


def incremental_optimum_trajectory(pairs: Iterable[Edge]) -> Tuple[int, ...]:
    """Maximum-matching size after each pair of ``pairs`` is revealed.

    Convenience wrapper over :class:`DynamicMatching` for callers that
    only want the append-only trajectory (the online simulator and the
    competitive-ratio analysis); with no deletions it is monotone.
    """
    return DynamicMatching(pairs).optimal_size_trajectory()


def sliding_window_optimum_trajectory(
    events: Iterable[Edge], window: int
) -> Tuple[int, ...]:
    """Per-event offline optimum of a sliding window over an event stream.

    ``events`` is a (lazy) iterable of revealed ``(thread, object)``
    pairs; only the most recent ``window`` events are live at any point.
    Before the ``i``-th event is inserted, the event that fell out of the
    window (if any) is expired, so ``result[i]`` is the minimum
    vertex-cover size of the graph formed by events
    ``i - window + 1 ... i`` - exactly what a monitoring agent that only
    answers causality queries about recent history needs to provision.

    The stream is consumed one event at a time (never materialised), and
    repeated pairs inside the window are handled by the engine's
    multiplicity counts.
    """
    if window < 1:
        raise GraphError(f"window must be >= 1, got {window}")
    engine = DynamicMatching(record_trajectory=False)
    live: Deque[Edge] = deque()
    sizes: List[int] = []
    for thread, obj in events:
        if len(live) == window:
            old_thread, old_obj = live.popleft()
            engine.remove_edge(old_thread, old_obj)
        live.append((thread, obj))
        engine.add_edge(thread, obj)
        sizes.append(engine.size)
    return tuple(sizes)
