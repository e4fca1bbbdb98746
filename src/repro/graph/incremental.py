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

Both directions rest on the Dulmage-Mendelsohn (Gallai-Edmonds) split
of a bipartite graph under a maximum matching.  Let ``Z`` be the vertices
reachable from free threads along alternating paths (non-matched edges
walked thread-to-object, matched edges object-to-thread) - König's ``Z``,
the set behind the paper's Theorem 3 cover - and ``Z_O`` its mirror, the
vertices reachable from free objects (non-matched edges object-to-thread,
matched edges thread-to-object).  Inserting ``(t, o)`` grows the maximum
matching **iff** ``t in Z`` and ``o in Z_O``.  *Proof sketch:* any new
augmenting path must use the new edge, so it reads ``s ~~> t -> o ~~> f``
with ``s`` a free thread and ``f`` a free object; the prefix is an
alternating path of the old graph witnessing ``t in Z`` and the suffix
one witnessing ``o in Z_O``.  Conversely two such witnesses join into an
augmenting path, because ``Z`` and ``Z_O`` are disjoint under a maximum
matching (a shared vertex would splice a free thread to a free object
through an augmenting path of the old graph), so the halves cannot
collide.  :class:`DynamicMatching` keeps both sets, each clean or dirty,
and asks them *before* searching:

* both endpoints unmatched - match them directly, ``O(1)``;
* ``t`` unmatched - ``t in Z`` holds, so one thread-side search from
  ``t`` runs only when ``o in Z_O``, and is then certain to succeed;
* ``o`` unmatched - the mirror image: one object-side search from ``o``;
* both matched - the path must enter ``t`` through its matched edge, so
  when ``o in Z_O`` the engine first re-matches ``t``'s partner away from
  ``t`` (object-side search, the test ``t in Z``) and, if that succeeds,
  runs the then certain thread-side search from the freed ``t``.

So an insert that does not grow the optimum never moves the matching:
``Z`` and ``Z_O`` only gain an entry point and are closed monotonically.

Deletion is the mirror argument.  Removing a *non-matched* edge never
invalidates maximality (the matching is untouched and the edge set only
shrank).  Removing a *matched* edge ``(t, o)`` frees exactly ``t`` and
``o``; any augmenting path of the shrunken graph must start at ``t`` or
end at ``o`` (a path avoiding both would have been augmenting before the
deletion).  A path from ``t`` to a free object other than ``o`` is an
alternating path of the old graph, so it exists iff ``t`` was in
``Z_O``.  With ``Z_O`` clean before the delete, ``t in Z_O`` therefore
makes the thread-side search from ``t`` certain, and otherwise one
object-side search from ``o`` is the whole repair: it also finds a path
from ``o`` back to ``t`` (an alternating cycle through the deleted edge,
which no reachability set sees), and if it fails the optimum has
genuinely shrunk by one.  With ``Z_O`` dirty the engine does not rebuild
it for a delete (a window that churns threads would rebuild it on
nearly every expiry) and tries the thread side, then the object side.

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
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
        # The mirror set Z_O (vertices reachable from free objects), kept
        # the same way; ``_zo_objects is None`` means dirty, and the next
        # insert that needs it rebuilds it with one sweep.  The sweep's
        # roots come from a superset of the free objects: an object only
        # becomes free by arriving or by losing a matched edge to a
        # delete, and the rebuild drops the ones matched since.
        self._zo_objects: Optional[Set[Vertex]] = set()
        self._zo_threads: Set[Vertex] = set()
        self._free_candidates: Set[Vertex] = set()
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

    def __getstate__(self) -> dict:
        # Z_O is derived state: leave it out of checkpoints.
        state = self.__dict__.copy()
        del state["_zo_objects"], state["_zo_threads"], state["_free_candidates"]
        return state

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names, as the default restore does, so the
        # engines of one checkpoint share them when pickled again.
        for name, value in state.items():
            setattr(self, name, value)
        self._zo_objects = None
        self._zo_threads = set()
        self._free_candidates = set(self._graph.objects)

    def matching(self) -> Matching:
        """The current maximum matching as an immutable :class:`Matching`."""
        return Matching(self._thread_to_object.items())

    def vertex_cover(self) -> FrozenSet[Vertex]:
        """A minimum vertex cover of the live graph (König construction).

        Assembled on demand as ``(threads - Z_threads) | Z_objects`` from
        König's Z, one of the two *incrementally repaired* reachability
        sets the engine keeps (the other, Z_O, is reached from free
        objects and only decides inserts and deletes, see the module
        docstring), and cached until the next structural change (an edge
        actually entering or leaving the graph).  Mutations that provably
        leave the alternating forests intact - multiplicity bumps, inserts
        that did not grow the optimum (they never move the matching; a
        monotone closure adds any newly reachable suffix), matched
        deletions that shrank it (the freed endpoints become roots),
        non-matched deletions whose thread was unreachable, prunes of
        isolated vertices - keep Z exact; anything that moves a matched
        edge marks it dirty, and the next query rebuilds it with one
        :func:`alternating_reachable` sweep.
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
            object_known = self._graph.has_object(obj)
            if not object_known:
                self._free_candidates.add(obj)
            self._graph.add_edge(thread, obj)
            self._multiplicity[key] = 1
            self._cover_cache = None
            thread_matched = thread in self._thread_to_object
            object_matched = obj in self._object_to_thread
            # An augmenting path runs from a free thread to a free object,
            # so a search can only succeed while both sides have free
            # vertices.  Checking first is what keeps the saturated regime
            # (matching size pinned at min(n, m), common in dense reveals)
            # at O(1) per insert, without even a Z_O rebuild.
            matched = len(self._thread_to_object)
            free_threads = self._graph.num_threads - matched
            free_objects = self._graph.num_objects - matched
            if not thread_matched and not object_matched:
                self._thread_to_object[thread] = obj
                self._object_to_thread[obj] = thread
                grew = True
                # A pre-existing free thread was a root of Z; matching it
                # away is non-monotone.  A brand-new thread never was a
                # root, and a pre-existing free object cannot have been in
                # Z (that would have been an augmenting path), so Z is
                # untouched.  The same holds for Z_O with the roles swapped.
                if thread_known:
                    self._reach_threads = None
                if object_known:
                    self._zo_objects = None
            else:
                if not thread_matched:
                    # ``thread`` is a free root of Z, so growth is exactly
                    # ``obj in Z_O``, and then the search cannot fail.
                    if free_objects and obj in self._object_reach():
                        grew = self._augment_from_thread(thread)
                elif not object_matched:
                    if free_threads:
                        grew = self._augment_from_object(obj)
                elif free_threads and free_objects and obj in self._object_reach():
                    grew = self._augment_through_matched_edge(thread, obj)
                if grew:
                    self._reach_threads = None
                    self._zo_objects = None
                else:
                    # A doomed insert moved no matched edge.
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
                # object - see the module docstring).  The first exists
                # iff ``thread`` was in Z_O, so a clean Z_O can skip that
                # search; a dirty one is not rebuilt for it.
                thread_side = self._zo_objects is None or thread in self._zo_threads
                del self._thread_to_object[thread]
                del self._object_to_thread[obj]
                self._free_candidates.add(obj)
                if not (thread_side and self._augment_from_thread(thread)):
                    shrank = not self._augment_from_object(obj)
                if shrank:
                    # No repair: the only lost step (``obj`` to ``thread``
                    # in Z, ``thread`` to ``obj`` in Z_O) never fired, or
                    # the repair would have succeeded, and the freed
                    # endpoints are new roots.  Both sets grow monotonically.
                    self._absorb_reachable(thread, obj)
                else:
                    self._reach_threads = None
                    self._zo_objects = None
            else:
                # The removed non-matched edge may have been the only
                # alternating step into some reachable suffix; deletion
                # is non-monotone, so recompute on the next query.  Z
                # walks non-matched edges thread-to-object and Z_O
                # object-to-thread, so a thread outside Z (an object
                # outside Z_O) contributed nothing through this edge.
                if self._reach_threads is not None and thread in self._reach_threads:
                    self._reach_threads = None
                if self._zo_objects is not None and obj in self._zo_objects:
                    self._zo_objects = None
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
                self._free_candidates.discard(obj)
                if self._zo_objects is not None:
                    self._zo_objects.discard(obj)
        if self._trajectory is not None:
            self._trajectory.append(len(self._thread_to_object))
        return shrank

    def remove_edges(self, pairs: Iterable[Edge]) -> "DynamicMatching":
        """Expire a whole sequence of edges; returns ``self``."""
        for thread, obj in pairs:
            self.remove_edge(thread, obj)
        return self

    # ------------------------------------------------------------------
    # Incremental alternating reachability (König's Z and its mirror Z_O)
    # ------------------------------------------------------------------
    def _absorb_reachable(self, thread: Vertex, obj: Vertex) -> None:
        """Close Z and Z_O over a mutation that moved no matched edge.

        Called after a structural insert of ``(thread, obj)`` that left
        every matched edge in place, and after a matched delete that
        found no repair.  Each set is the least fixed point of monotone
        rules - free vertices of its side are roots, non-matched edges
        walk away from that side, matched edges walk back - and both
        possible additions (a new free root, a new non-matched step)
        only *add* rules, so seeding the old set with the new entry
        points and closing is exact, not approximate.  A dirty set is
        left dirty.
        """
        graph = self._graph
        if self._reach_threads is not None:
            _absorb(
                thread, obj, self._thread_to_object, self._object_to_thread,
                self._reach_threads, self._reach_objects, graph.thread_neighbors,
            )
        if self._zo_objects is not None:
            _absorb(
                obj, thread, self._object_to_thread, self._thread_to_object,
                self._zo_objects, self._zo_threads, graph.object_neighbors,
            )

    def _object_reach(self) -> Set[Vertex]:
        """The objects of Z_O, rebuilt by one sweep from the free objects if dirty."""
        if self._zo_objects is None:
            object_to_thread = self._object_to_thread
            free = {obj for obj in self._free_candidates if obj not in object_to_thread}
            self._free_candidates = set(free)
            self._zo_objects = free
            self._zo_threads = set()
            _close(
                set(free), self._object_to_thread, self._thread_to_object,
                self._zo_objects, self._zo_threads, self._graph.object_neighbors,
            )
        return self._zo_objects

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
        Phase 2 is then the plain unmatched-thread case.  The caller runs
        this only when ``obj`` is in Z_O, so phase 1 succeeds exactly when
        ``thread`` is in Z, and then phase 2 cannot fail: the phase-1 flip
        stays inside Z, which is disjoint from the alternating path that
        puts ``obj`` in Z_O.
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


def _absorb(
    root: Vertex,
    other: Vertex,
    root_match: Dict[Vertex, Vertex],
    other_match: Dict[Vertex, Vertex],
    root_reach: Set[Vertex],
    other_reach: Set[Vertex],
    neighbors: Callable[[Vertex], Iterable[Vertex]],
) -> None:
    """Absorb a free ``root`` or a new non-matched edge ``(root, other)``.

    Works on one clean reachability set, rooted at the free vertices of
    ``root``'s side: Z with a thread as ``root``, Z_O with an object.
    """
    pending: Set[Vertex] = set()
    if root not in root_match and root not in root_reach:
        root_reach.add(root)
        pending.add(root)
    elif root in root_reach and other not in other_reach:
        # Only the new edge can have opened anything: ``root`` was
        # already closed over its other edges when it joined the set.
        other_reach.add(other)
        partner = other_match.get(other)
        if partner is not None and partner not in root_reach:
            root_reach.add(partner)
            pending.add(partner)
    _close(pending, root_match, other_match, root_reach, other_reach, neighbors)


def _close(
    pending: Set[Vertex],
    root_match: Dict[Vertex, Vertex],
    other_match: Dict[Vertex, Vertex],
    root_reach: Set[Vertex],
    other_reach: Set[Vertex],
    neighbors: Callable[[Vertex], Iterable[Vertex]],
) -> None:
    """Close a reachability set over the newly added ``pending`` vertices.

    From a vertex of the root side, step along every non-matched edge to
    the other side, and from there along its matched edge back.
    """
    while pending:
        current = pending.pop()
        matched = root_match.get(current)
        for neighbor in neighbors(current):
            if neighbor == matched or neighbor in other_reach:
                continue
            other_reach.add(neighbor)
            partner = other_match.get(neighbor)
            if partner is not None and partner not in root_reach:
                root_reach.add(partner)
                pending.add(partner)


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
