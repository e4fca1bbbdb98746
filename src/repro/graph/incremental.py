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
collide.

**Forests.**  Each set is kept as the alternating forest its closure
walked: every reached vertex of the far side (objects for ``Z``, threads
for ``Z_O``) records the vertex that reached it over a non-matched edge,
and a reached vertex of the roots' side hangs off its matched partner,
or is a root when it is free.  So the witness of ``t in Z`` is the
parent chain from ``t`` up to its root ``s``, and an insert that grows
the optimum flips ``s ~~> t -> o ~~> f`` read from the two forests, in
``O(path length)`` and with no search.  Both endpoints free, the halves
are empty; ``t`` free, only ``o in Z_O`` is asked; ``o`` free, only
``t in Z``.  An insert that does not grow the optimum never moves the
matching: both sets only gain an entry point and are closed
monotonically.

**Local repair.**  After a flip from free thread ``s`` to free object
``f``, only ``s``'s ``Z`` tree and ``f``'s ``Z_O`` tree can lose
members.  *Proof sketch:* the prefix of the flipped path lies in ``s``'s
``Z`` tree and the suffix in ``f``'s ``Z_O`` tree, and the sets are
disjoint; so the tree path of a ``Z`` vertex rooted elsewhere uses no
flipped edge, and its root is still free - it still witnesses
membership.  Nothing joins either: a thread free in some maximum
matching of the new graph is free in one of the old one (take the new
edge out of a matching that must use it, or keep one that avoids a
deleted edge), and every object of ``Z`` neighbours a thread of ``Z``.
So the engine drops those two trees and re-closes from the surviving
members next to them: a dropped far-side vertex rejoins iff a surviving
vertex reaches it over a non-matched edge, and the closure takes it
from there.  The result is exact, not an approximation.

Deletion is the mirror argument.  Removing a *non-matched* edge never
invalidates maximality (the matching is untouched and the edge set only
shrank), and each set is the least fixed point of rules that only lost
one, so it can only shrink - and a forest that does not use the edge
still witnesses every member.  A non-tree-edge delete therefore changes
neither set; a tree-edge delete drops the subtree below the edge and
re-closes.  Removing a *matched* edge ``(t, o)`` frees exactly ``t``
and ``o``; any augmenting path of the shrunken graph must start at
``t`` or end at ``o`` (a path avoiding both would have been augmenting
before the deletion).  A path from ``t`` to a free object other than
``o`` is an alternating path of the old graph, so it exists iff ``t``
was in ``Z_O``, and the ``Z_O`` forest holds it.  Otherwise ``t`` is a
new root of ``Z``, and ``Z`` grown from it reaches ``o`` iff a path
ends at ``o`` (through ``o``'s old ``Z`` parent, or around an
alternating cycle through the deleted edge back to ``t``); the engine
flips the path the forest holds, or the optimum has shrunk by one and
``o`` becomes a new root of ``Z_O``.  In each case the other set keeps
every member, by the disjointness above.

A set may also be *dirty*: a checkpoint carries neither the forests nor
the matching, so a restored engine runs Hopcroft-Karp once and rebuilds
each forest with one ``O(V + E)`` sweep when a mutation or cover query
first needs it; a dirty one is not maintained.  Streamed reveals may
repeat a live pair, so the engine counts per-edge multiplicity: an edge
leaves the graph only when *every* live event that revealed it has
expired.  The minimum vertex cover's size is the matching size
(König-Egerváry / Theorem 3 of the paper); its vertex set is read off
``Z`` (see :meth:`DynamicMatching.vertex_cover`), so a query pays
``O(V)``, not ``O(V + E)``.

:func:`incremental_optimum_trajectory` packages the append-only regime
and :func:`sliding_window_optimum_trajectory` the windowed one, for the
online simulator and the ratio sweeps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph, Edge, Vertex
from repro.graph.matching import Matching, hopcroft_karp_matching

# Telemetry write handle (write-only in result paths per C206): counts
# how often the König cover could be assembled from the maintained Z
# vs rebuilt by a full sweep.
from repro.obs.registry import active as _metrics_active


class DynamicMatching:
    """A maximum matching maintained across edge insertions *and* deletions.

    The matching is maximum after every :meth:`add_edge` and
    :meth:`remove_edge` call; the invariant is what lets each mutation
    read its augmenting path, if any, off the two alternating forests
    instead of searching for it (see the module docstring).  Repeated
    inserts of a live edge are counted, so a sliding window that expires
    events one by one only removes the edge from the graph when its last
    live occurrence leaves.
    """

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._graph = BipartiteGraph()
        self._thread_to_object: Dict[Vertex, Vertex] = {}
        self._object_to_thread: Dict[Vertex, Vertex] = {}
        self._multiplicity: Dict[Edge, int] = {}
        # König's Z and its mirror Z_O as alternating forests; None means
        # dirty (rebuilt by the first mutation or query that needs it).
        # Exact for the empty graph, so start clean.
        self._z: Optional[_Forest] = None
        self._zo: Optional[_Forest] = None
        self._thread_forest()
        self._object_forest()
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

    def __len__(self) -> int:
        return len(self._thread_to_object)

    def __getstate__(self) -> tuple:
        # Only the graph and the multiplicities: the rest is derived, and
        # which maximum matching is held follows set iteration order, so
        # it would tie a checkpoint's bytes to PYTHONHASHSEED.
        return self._graph, self._multiplicity

    def __setstate__(self, state: tuple) -> None:
        self._graph, self._multiplicity = state
        matching = hopcroft_karp_matching(self._graph)
        self._thread_to_object = dict(matching)
        self._object_to_thread = {obj: thread for thread, obj in matching}
        self._z = None
        self._zo = None

    def matching(self) -> Matching:
        """The current maximum matching as an immutable :class:`Matching`."""
        return Matching(self._thread_to_object.items())

    def vertex_cover(self) -> FrozenSet[Vertex]:
        """A minimum vertex cover of the live graph (König construction).

        Assembled on each call as ``(threads - Z_threads) | Z_objects``
        from König's Z, the alternating forest rooted at the free threads
        that every mutation repairs locally (see the module docstring).
        By Dulmage-Mendelsohn the cover does not depend on which maximum
        matching is held: Z's threads are those left free by *some*
        maximum matching, and its objects their neighbours.  Only a restored engine starts with Z dirty;
        its first query rebuilds it with one ``O(V + E)`` sweep.
        The ``matching.cover.repairs`` / ``matching.cover.rebuilds``
        counters record which path served each query; the property tests
        assert the maintained cover equals the from-scratch König cover
        under random interleaved churn.
        """
        registry = _metrics_active()
        if registry is not None:
            registry.add(
                "matching.cover.rebuilds" if self._z is None else "matching.cover.repairs"
            )
        forest = self._thread_forest()
        return frozenset(self._graph.threads.difference(forest.near).union(forest.far))

    def multiplicity(self, thread: Vertex, obj: Vertex) -> int:
        """How many live events currently reveal the edge ``(thread, obj)``."""
        return self._multiplicity.get((thread, obj), 0)

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
            graph = self._graph
            graph.add_edge(thread, obj)
            self._multiplicity[key] = 1
            # A free endpoint is a root of its side's forest, and a side
            # without free vertices has an empty forest, so a matched
            # endpoint's forest is only consulted while its side has a
            # free vertex: that keeps the saturated regime (matching size
            # pinned at min(n, m), common in dense reveals) at O(1) per
            # insert, without even rebuilding a dirty forest.
            matched = len(self._thread_to_object)
            object_ok = obj not in self._object_to_thread
            if not object_ok and graph.num_objects > matched:
                object_ok = obj in self._object_forest().near
            thread_ok = thread not in self._thread_to_object
            if object_ok and not thread_ok and graph.num_threads > matched:
                thread_ok = thread in self._thread_forest().near
            if thread_ok and object_ok:
                self._augment(thread, obj)
                grew = True
            else:
                # A doomed insert moved no matched edge.
                if self._z is not None:
                    self._z.absorb(thread, obj)
                if self._zo is not None:
                    self._zo.absorb(obj, thread)
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
            graph = self._graph
            graph.remove_edge(thread, obj)
            if self._thread_to_object.get(thread) == obj:
                shrank = self._remove_matched(thread, obj)
            else:
                # Only a tree edge can have carried a member (Z walks
                # non-matched edges thread-to-object, Z_O the reverse).
                z, zo = self._z, self._zo
                if z is not None and z.far.get(obj) == thread:
                    z.cut(obj)
                if zo is not None and zo.far.get(thread) == obj:
                    zo.cut(thread)
            # Prune endpoints the removal isolated: a degree-0 vertex is
            # necessarily unmatched (a matched pair is always an edge) and
            # can never join an augmenting path, and on unbounded streams
            # with fresh vertex ids the dead vertices would otherwise
            # accumulate without bound.  In a forest it can only be a
            # lone root.
            if graph.degree(thread) == 0:
                graph.remove_isolated_vertex(thread)
                if self._z is not None:
                    self._z.near.pop(thread, None)
            if graph.degree(obj) == 0:
                graph.remove_isolated_vertex(obj)
                if self._zo is not None:
                    self._zo.near.pop(obj, None)
        return shrank

    def remove_edges(self, pairs: Iterable[Edge]) -> "DynamicMatching":
        """Expire a whole sequence of edges; returns ``self``."""
        for thread, obj in pairs:
            self.remove_edge(thread, obj)
        return self

    def _remove_matched(self, thread: Vertex, obj: Vertex) -> bool:
        """Repair after matched edge ``(thread, obj)`` left the graph; True iff it shrank.

        A dirty Z_O is rebuilt while the pair is still matched, so it is
        the old graph's (and empty when no object is free).  Freeing the
        pair re-roots the subtrees below it: ``obj``'s in Z_O and
        ``thread``'s in Z.
        """
        zo = None
        if self._graph.num_objects > len(self._thread_to_object):
            zo = self._object_forest()
        del self._thread_to_object[thread]
        del self._object_to_thread[obj]
        if zo is not None and thread in zo.far:
            self._augment(thread, zo.far[thread])
            return False
        z = self._thread_forest()
        if thread not in z.near:
            # A new root; if it reaches ``obj``, the flip drops its tree.
            z.near[thread] = []
            z.grow(deque((thread,)), until=obj)
        if obj in z.far:
            self._augment(z.far[obj], obj)
            return False
        if self._zo is not None:
            self._zo.absorb(obj, thread)
        return True

    # ------------------------------------------------------------------
    # The two forests and the flip
    # ------------------------------------------------------------------
    def _thread_forest(self) -> "_Forest":
        """König's Z, rebuilt by one sweep from the free threads if dirty."""
        # The forests read the graph's adjacency sets in place; the
        # public neighbour accessors copy them on every call.
        if self._z is None:
            self._z = _Forest(
                self._thread_to_object, self._object_to_thread,
                self._graph._thread_adj, self._graph._object_adj,
            )
        return self._z

    def _object_forest(self) -> "_Forest":
        """Z_O, rebuilt by one sweep from the free objects if dirty."""
        if self._zo is None:
            self._zo = _Forest(
                self._object_to_thread, self._thread_to_object,
                self._graph._object_adj, self._graph._thread_adj,
            )
        return self._zo

    def _augment(self, thread: Vertex, obj: Vertex) -> None:
        """Match ``thread`` to ``obj`` and flip the forest paths above them.

        ``thread`` is free or in Z, ``obj`` free or in Z_O (each forest
        is consulted only for a matched endpoint).  Then drops the Z tree
        of the path's free thread and the Z_O tree of its free object and
        re-closes both from their surviving members (module docstring).
        """
        thread_to_object = self._thread_to_object
        object_to_thread = self._object_to_thread
        z, zo = self._z, self._zo
        source, prefix = _path_to_root(thread, thread_to_object, z)
        sink, suffix = _path_to_root(obj, object_to_thread, zo)
        # Trees are walked through the matching, so drop before flipping.
        dropped_z = z.drop_tree(source) if z is not None else []
        dropped_zo = zo.drop_tree(sink) if zo is not None else []
        for near, far in prefix:
            thread_to_object[near] = far
            object_to_thread[far] = near
        for near, far in suffix:
            object_to_thread[near] = far
            thread_to_object[far] = near
        thread_to_object[thread] = obj
        object_to_thread[obj] = thread
        if z is not None:
            z.regrow(dropped_z)
        if zo is not None:
            zo.regrow(dropped_zo)


def _path_to_root(
    start: Vertex, match: Dict[Vertex, Vertex], forest: Optional["_Forest"]
) -> Tuple[Vertex, List[Edge]]:
    """The root above ``start`` and the pairs a flip of that path matches.

    ``start`` is on ``forest``'s roots' side; its parent is its matched
    partner, whose parent is the vertex that reached it.  A free
    ``start`` is its own root and needs no forest.
    """
    pairs: List[Edge] = []
    vertex = start
    mate = match.get(vertex)
    while mate is not None:
        vertex = forest.far[mate]
        pairs.append((vertex, mate))
        mate = match.get(vertex)
    return vertex, pairs


class _Forest:
    """One alternating forest: König's Z, or with the sides swapped Z_O.

    ``near`` maps each reached vertex of the roots' side (threads for Z)
    to the far-side vertices it reached over non-matched edges, its
    children; ``far`` maps each reached far-side vertex to that parent.
    A near vertex's parent is its matched partner, or none when it is
    free (a root), so the forest stays consistent with the matching
    without storing it twice.  Built by one breadth-first sweep from
    every free near vertex, which keeps the trees small.
    """

    __slots__ = ("near", "far", "near_match", "far_match", "near_adj", "far_adj")

    def __init__(
        self,
        near_match: Dict[Vertex, Vertex],
        far_match: Dict[Vertex, Vertex],
        near_adj: Dict[Vertex, Set[Vertex]],
        far_adj: Dict[Vertex, Set[Vertex]],
    ) -> None:
        self.near_match = near_match
        self.far_match = far_match
        self.near_adj = near_adj
        self.far_adj = far_adj
        self.near: Dict[Vertex, List[Vertex]] = {
            vertex: [] for vertex in near_adj if vertex not in near_match
        }
        self.far: Dict[Vertex, Vertex] = {}
        self.grow(deque(self.near))

    def grow(self, frontier: Deque[Vertex], until: Optional[Vertex] = None) -> None:
        """Close the forest over the near vertices queued in ``frontier``.

        From a near vertex, step along every non-matched edge to the far
        side, and from there along its matched edge back.  Stops as soon
        as far vertex ``until`` is reached, leaving that tree part-grown
        for a caller that flips the path to it and drops the tree; each
        near vertex is checked for an edge to ``until`` as it is queued,
        which on a dense graph ends the walk a whole level earlier.
        """
        near, far = self.near, self.far
        near_match, far_match, near_adj = self.near_match, self.far_match, self.near_adj
        while frontier:
            current = frontier.popleft()
            matched = near_match.get(current)
            children = near[current]
            for neighbor in near_adj[current]:
                if neighbor == matched or neighbor in far:
                    continue
                far[neighbor] = current
                children.append(neighbor)
                if neighbor == until:
                    return
                partner = far_match.get(neighbor)
                if partner is not None and partner not in near:
                    near[partner] = []
                    frontier.append(partner)
                    if until is not None and until in near_adj[partner]:
                        far[until] = partner
                        near[partner].append(until)
                        return

    def absorb(self, root: Vertex, other: Vertex) -> None:
        """Take in a free ``root`` or a new non-matched edge ``(root, other)``.

        Both only *add* a rule to the least fixed point, so closing from
        the new entry point is exact.  A reached ``root`` was already
        closed over its other edges, so only the new one can open
        anything.
        """
        near = self.near
        if root not in near:
            if root in self.near_match:
                return
            near[root] = []
            self.grow(deque((root,)))
        elif other not in self.far:
            self.far[other] = root
            near[root].append(other)
            partner = self.far_match.get(other)
            if partner is not None and partner not in near:
                near[partner] = []
                self.grow(deque((partner,)))

    def drop_tree(self, root: Vertex) -> List[Vertex]:
        """Remove ``root``'s whole tree; returns its far-side vertices."""
        if root not in self.near:
            return []
        return self._detach([root], [])

    def cut(self, vertex: Vertex) -> None:
        """Remove the subtree below far vertex ``vertex`` and re-close."""
        self.near[self.far.pop(vertex)].remove(vertex)
        partner = self.far_match.get(vertex)
        self.regrow(self._detach([] if partner is None else [partner], [vertex]))

    def _detach(self, stack: List[Vertex], dropped: List[Vertex]) -> List[Vertex]:
        """Remove the near vertices on ``stack`` and all below them; the
        far ones removed are appended to ``dropped``."""
        near, far, far_match = self.near, self.far, self.far_match
        while stack:
            for child in near.pop(stack.pop()):
                del far[child]
                dropped.append(child)
                partner = far_match.get(child)
                if partner is not None:
                    stack.append(partner)
        return dropped

    def regrow(self, dropped: List[Vertex]) -> None:
        """Re-close from the surviving near vertices next to ``dropped``.

        A dropped far vertex rejoins iff a surviving near vertex reaches
        it over a non-matched edge; the closure then re-reaches whatever
        hangs below it, including dropped vertices checked before.
        """
        near, far = self.near, self.far
        near_match, far_match, far_adj = self.near_match, self.far_match, self.far_adj
        frontier: Deque[Vertex] = deque()
        for vertex in dropped:
            for neighbor in far_adj[vertex]:
                if neighbor in near and near_match.get(neighbor) != vertex:
                    far[vertex] = neighbor
                    near[neighbor].append(vertex)
                    partner = far_match.get(vertex)
                    if partner is not None and partner not in near:
                        near[partner] = []
                        frontier.append(partner)
                    break
        self.grow(frontier)


def incremental_optimum_trajectory(pairs: Iterable[Edge]) -> Tuple[int, ...]:
    """Maximum-matching size after each pair of ``pairs`` is revealed.

    ``result[i]`` is the optimal mixed clock size (minimum vertex cover =
    maximum matching, Theorem 3) of the graph formed by ``pairs[:i + 1]``,
    computed in one pass of :class:`DynamicMatching` instead of one
    from-scratch matching per prefix; with no deletions it is monotone.
    """
    engine = DynamicMatching()
    sizes: List[int] = []
    for thread, obj in pairs:
        engine.add_edge(thread, obj)
        sizes.append(engine.size)
    return tuple(sizes)


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
    engine = DynamicMatching()
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
