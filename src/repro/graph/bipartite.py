"""Thread-object bipartite graphs.

The central combinatorial object of the paper is the *thread-object
bipartite graph* of a computation (Section III-A): the left vertex set is
the set of threads, the right vertex set is the set of objects, and an edge
``(t, o)`` exists iff thread ``t`` performed at least one operation on
object ``o``.

:class:`BipartiteGraph` is a small, dependency-free adjacency-set
representation tuned for the two access patterns the algorithms need:

* offline: iterate all edges / neighbours (Hopcroft-Karp, König cover);
* online: incrementally add vertices and edges as events are revealed and
  query degrees and density (the Popularity mechanism).

Vertices may be any hashable value.  Thread and object vertices live in two
disjoint namespaces; the same value may *not* appear on both sides (this
mirrors the paper's model where threads and objects are distinct entities,
and keeps vertex covers unambiguous).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Set, Tuple

from repro.exceptions import DuplicateVertexError, GraphError, UnknownVertexError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def vertex_sort_key(vertex: Vertex) -> Tuple[str, str]:
    """Canonical sort key for vertices of arbitrary (mixed) types.

    ``(type name, repr)`` totally orders any hashable vertices without
    relying on ``hash()`` or cross-type ``<`` support - the same
    canonicalisation :func:`repro.seeds.canonical_bytes` uses, so every
    layer that needs "some deterministic vertex order" agrees on one.
    """
    return (type(vertex).__name__, repr(vertex))


class BipartiteGraph:
    """An undirected bipartite graph with *thread* (left) and *object* (right) sides.

    The class is deliberately small: adjacency sets per vertex, plus edge
    and degree bookkeeping.  All mutating operations are idempotent where
    that is meaningful (adding an existing vertex or edge is a no-op), which
    matches how the online algorithms use the graph: every revealed event
    ``(t, o)`` is simply ``add_edge(t, o)``-ed.

    Parameters
    ----------
    threads:
        Optional iterable of initial thread (left) vertices.
    objects:
        Optional iterable of initial object (right) vertices.
    edges:
        Optional iterable of ``(thread, object)`` pairs.  Endpoints are
        added automatically.
    """

    __slots__ = ("_thread_adj", "_object_adj", "_edge_count")

    def __init__(
        self,
        threads: Iterable[Vertex] = (),
        objects: Iterable[Vertex] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._thread_adj: Dict[Vertex, Set[Vertex]] = {}
        self._object_adj: Dict[Vertex, Set[Vertex]] = {}
        self._edge_count = 0
        for t in threads:
            self.add_thread(t)
        for o in objects:
            self.add_object(o)
        for t, o in edges:
            self.add_edge(t, o)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_thread(self, thread: Vertex) -> None:
        """Add a thread (left) vertex; a no-op if it already exists."""
        if thread in self._object_adj:
            raise DuplicateVertexError(
                f"vertex {thread!r} already exists as an object vertex"
            )
        self._thread_adj.setdefault(thread, set())

    def add_object(self, obj: Vertex) -> None:
        """Add an object (right) vertex; a no-op if it already exists."""
        if obj in self._thread_adj:
            raise DuplicateVertexError(
                f"vertex {obj!r} already exists as a thread vertex"
            )
        self._object_adj.setdefault(obj, set())

    def add_edge(self, thread: Vertex, obj: Vertex) -> bool:
        """Add the edge ``(thread, obj)``, creating endpoints as needed.

        Returns
        -------
        bool
            ``True`` if the edge was new, ``False`` if it already existed.
            The online mechanisms use this to detect whether a revealed
            event changes the bipartite graph at all.
        """
        objects = self._thread_adj.get(thread)
        if objects is None:
            self.add_thread(thread)
            objects = self._thread_adj[thread]
        elif obj in objects:
            return False
        threads = self._object_adj.get(obj)
        if threads is None:
            self.add_object(obj)
            threads = self._object_adj[obj]
        objects.add(obj)
        threads.add(thread)
        self._edge_count += 1
        return True

    def remove_edge(self, thread: Vertex, obj: Vertex) -> None:
        """Remove the edge ``(thread, obj)``.

        Raises :class:`GraphError` if the edge does not exist.  Edge
        removal is the substrate of the decremental matching engine
        (sliding-window monitoring); the endpoints stay in the graph even
        when the removal isolates them - callers that must not accumulate
        dead vertices (unbounded streams) follow up with
        :meth:`remove_isolated_vertex`.
        """
        if not self.has_edge(thread, obj):
            raise GraphError(f"edge ({thread!r}, {obj!r}) does not exist")
        self._thread_adj[thread].discard(obj)
        self._object_adj[obj].discard(thread)
        self._edge_count -= 1

    def remove_isolated_vertex(self, vertex: Vertex) -> None:
        """Remove a vertex that has no incident edge (either side).

        Raises :class:`GraphError` if the vertex still has edges (removing
        them implicitly would hide bookkeeping bugs in callers) and
        :class:`UnknownVertexError` if it is not in the graph.
        """
        if self.degree(vertex) != 0:
            raise GraphError(f"vertex {vertex!r} still has incident edges")
        self._thread_adj.pop(vertex, None)
        self._object_adj.pop(vertex, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def threads(self) -> FrozenSet[Vertex]:
        """The thread (left) vertex set."""
        return frozenset(self._thread_adj)

    @property
    def objects(self) -> FrozenSet[Vertex]:
        """The object (right) vertex set."""
        return frozenset(self._object_adj)

    @property
    def num_threads(self) -> int:
        return len(self._thread_adj)

    @property
    def num_objects(self) -> int:
        return len(self._object_adj)

    @property
    def num_vertices(self) -> int:
        return len(self._thread_adj) + len(self._object_adj)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def has_thread(self, thread: Vertex) -> bool:
        return thread in self._thread_adj

    def has_object(self, obj: Vertex) -> bool:
        return obj in self._object_adj

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._thread_adj or vertex in self._object_adj

    def has_edge(self, thread: Vertex, obj: Vertex) -> bool:
        return thread in self._thread_adj and obj in self._thread_adj[thread]

    def thread_neighbors(self, thread: Vertex) -> FrozenSet[Vertex]:
        """Objects adjacent to ``thread``."""
        try:
            return frozenset(self._thread_adj[thread])
        except KeyError:
            raise UnknownVertexError(thread) from None

    def object_neighbors(self, obj: Vertex) -> FrozenSet[Vertex]:
        """Threads adjacent to ``obj``."""
        try:
            return frozenset(self._object_adj[obj])
        except KeyError:
            raise UnknownVertexError(obj) from None

    def neighbors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """Neighbours of ``vertex``, whichever side it lives on."""
        if vertex in self._thread_adj:
            return frozenset(self._thread_adj[vertex])
        if vertex in self._object_adj:
            return frozenset(self._object_adj[vertex])
        raise UnknownVertexError(vertex)

    def degree(self, vertex: Vertex) -> int:
        """Degree of ``vertex`` (number of incident edges)."""
        if vertex in self._thread_adj:
            return len(self._thread_adj[vertex])
        if vertex in self._object_adj:
            return len(self._object_adj[vertex])
        raise UnknownVertexError(vertex)

    def popularity(self, vertex: Vertex) -> float:
        """Popularity of ``vertex`` as defined by the paper (Definition 1).

        ``pop(v) = deg(v) / |E|``.  Returns ``0.0`` on an empty graph so the
        online mechanisms can evaluate popularity before the first edge.
        """
        if self._edge_count == 0:
            # Still validate that the vertex exists.
            self.degree(vertex)
            return 0.0
        return self.degree(vertex) / self._edge_count

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(thread, object)`` pairs."""
        for thread, adj in self._thread_adj.items():
            for obj in adj:
                yield (thread, obj)

    def density(self) -> float:
        """Edge density ``|E| / (|T| * |O|)``.

        This is the quantity the paper sweeps in Figs. 4 and 6.  Returns
        ``0.0`` when either side is empty.
        """
        denominator = len(self._thread_adj) * len(self._object_adj)
        if denominator == 0:
            return 0.0
        return self._edge_count / denominator

    def isolated_vertices(self) -> FrozenSet[Vertex]:
        """Vertices with no incident edge (on either side)."""
        isolated = {v for v, adj in self._thread_adj.items() if not adj}
        isolated.update(v for v, adj in self._object_adj.items() if not adj)
        return frozenset(isolated)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        """Return an independent deep copy of the graph."""
        clone = BipartiteGraph()
        clone._thread_adj = {t: set(adj) for t, adj in self._thread_adj.items()}
        clone._object_adj = {o: set(adj) for o, adj in self._object_adj.items()}
        clone._edge_count = self._edge_count
        return clone

    def subgraph(
        self, threads: Iterable[Vertex], objects: Iterable[Vertex]
    ) -> "BipartiteGraph":
        """Return the subgraph induced by the given thread and object subsets."""
        # Sorted canonically so the subgraph's internal insertion order
        # (which downstream edge iteration inherits) is independent of
        # PYTHONHASHSEED even when callers pass sets.
        thread_list = sorted(set(threads), key=vertex_sort_key)
        object_list = sorted(set(objects), key=vertex_sort_key)
        object_set = set(object_list)
        unknown = (set(thread_list) - self.threads) | (object_set - self.objects)
        if unknown:
            raise UnknownVertexError(min(unknown, key=vertex_sort_key))
        sub = BipartiteGraph(threads=thread_list, objects=object_list)
        for t in thread_list:
            for o in sorted(self._thread_adj[t] & object_set, key=vertex_sort_key):
                sub.add_edge(t, o)
        return sub

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        # Each edge once, in canonical order: a pickled set lists its
        # members in hash order, which varies with PYTHONHASHSEED.  The
        # object side's sets are rebuilt from the thread side on load.
        key = {o: vertex_sort_key(o) for o in self._object_adj}.__getitem__
        return (
            {t: sorted(adj, key=key) for t, adj in self._thread_adj.items()},
            list(self._object_adj),
        )

    def __setstate__(self, state: tuple) -> None:
        thread_adj, objects = state
        self._thread_adj = {t: set(adj) for t, adj in thread_adj.items()}
        self._object_adj = object_adj = {o: set() for o in objects}
        for thread, adj in thread_adj.items():
            for obj in adj:
                object_adj[obj].add(thread)
        self._edge_count = sum(map(len, thread_adj.values()))

    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.threads == other.threads
            and self.objects == other.objects
            and set(self.edges()) == set(other.edges())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(threads={self.num_threads}, "
            f"objects={self.num_objects}, edges={self.num_edges})"
        )
