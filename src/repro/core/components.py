"""Component sets for vector clocks.

A vector clock is defined by its *components*: the entities that own one
slot of the vector each.  In the paper a component is either a thread or an
object:

* the classical thread-based clock uses all threads (size ``n``);
* the classical object-based clock uses all objects (size ``m``);
* the mixed clock of the paper uses any *vertex cover* of the thread-object
  bipartite graph, and the optimal mixed clock uses a minimum vertex cover.

:class:`ClockComponents` is the immutable description of such a choice.  It
records which components are threads and which are objects (threads and
objects live in disjoint namespaces, enforced by
:class:`~repro.graph.bipartite.BipartiteGraph`), assigns each component a
fixed slot index, and can verify that it covers a computation or graph -
the property that makes the resulting clock valid (Theorem 2).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

from repro.exceptions import ComponentError
from repro.graph.bipartite import BipartiteGraph, Vertex


class ClockComponents:
    """An ordered, immutable set of vector clock components.

    Parameters
    ----------
    thread_components:
        Components that are threads.
    object_components:
        Components that are objects.

    The slot order is: thread components first (in the given iteration
    order), then object components.  Order only affects the printed form of
    timestamps, never comparisons.
    """

    __slots__ = ("_threads", "_objects", "_order", "_index")

    def __init__(
        self,
        thread_components: Iterable[Vertex] = (),
        object_components: Iterable[Vertex] = (),
    ) -> None:
        threads = tuple(dict.fromkeys(thread_components))
        objects = tuple(dict.fromkeys(object_components))
        overlap = set(threads) & set(objects)
        if overlap:
            raise ComponentError(
                f"components cannot be both thread and object: {sorted(map(repr, overlap))}"
            )
        self._threads: FrozenSet[Vertex] = frozenset(threads)
        self._objects: FrozenSet[Vertex] = frozenset(objects)
        self._order: Tuple[Vertex, ...] = threads + objects
        self._index: Dict[Vertex, int] = dict(
            zip(self._order, range(len(self._order)))
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def all_threads(cls, threads: Iterable[Vertex]) -> "ClockComponents":
        """The classical thread-based (process-based) clock components."""
        return cls(thread_components=threads)

    @classmethod
    def all_objects(cls, objects: Iterable[Vertex]) -> "ClockComponents":
        """The classical object-based clock components."""
        return cls(object_components=objects)

    @classmethod
    def from_cover(
        cls, graph: BipartiteGraph, cover: Iterable[Vertex]
    ) -> "ClockComponents":
        """Components from a vertex cover of a thread-object bipartite graph.

        Each cover vertex is classified as a thread or an object component
        according to which side of ``graph`` it lives on.
        """
        thread_components = []
        object_components = []
        for vertex in cover:
            if graph.has_thread(vertex):
                thread_components.append(vertex)
            elif graph.has_object(vertex):
                object_components.append(vertex)
            else:
                raise ComponentError(
                    f"cover vertex {vertex!r} is not a vertex of the graph"
                )
        return cls(thread_components, object_components)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def thread_components(self) -> FrozenSet[Vertex]:
        return self._threads

    @property
    def object_components(self) -> FrozenSet[Vertex]:
        return self._objects

    @property
    def ordered(self) -> Tuple[Vertex, ...]:
        """All components in slot order."""
        return self._order

    @property
    def size(self) -> int:
        """Number of components, i.e. the vector clock's dimension."""
        return len(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def __contains__(self, component: object) -> bool:
        return component in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClockComponents):
            return NotImplemented
        return self._threads == other._threads and self._objects == other._objects

    def __hash__(self) -> int:
        return hash((self._threads, self._objects))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockComponents(threads={sorted(map(str, self._threads))}, "
            f"objects={sorted(map(str, self._objects))})"
        )

    def index_of(self, component: Vertex) -> int:
        """Slot index of ``component``; raises :class:`ComponentError` if absent."""
        try:
            return self._index[component]
        except KeyError:
            raise ComponentError(f"{component!r} is not a clock component") from None

    def is_thread_component(self, component: Vertex) -> bool:
        return component in self._threads

    def is_object_component(self, component: Vertex) -> bool:
        return component in self._objects

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def covers_pair(self, thread: Vertex, obj: Vertex) -> bool:
        """``True`` iff an event of ``thread`` on ``obj`` owns at least one component."""
        return thread in self._threads or obj in self._objects

    def covers_graph(self, graph: BipartiteGraph) -> bool:
        """``True`` iff these components form a vertex cover of ``graph``."""
        return all(self.covers_pair(t, o) for t, o in graph.edges())

    def validate_covers_graph(self, graph: BipartiteGraph) -> None:
        """Raise :class:`ComponentError` unless the components cover ``graph``.

        A component set that is not a vertex cover cannot yield a valid
        vector clock: an event on an uncovered edge would never advance any
        slot and could not be ordered against its concurrent peers.
        """
        for thread, obj in graph.edges():
            if not self.covers_pair(thread, obj):
                raise ComponentError(
                    f"components do not cover the access ({thread!r}, {obj!r})"
                )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def extended(
        self,
        thread_components: Iterable[Vertex] = (),
        object_components: Iterable[Vertex] = (),
    ) -> "ClockComponents":
        """A new component set with extra components appended.

        The online mechanisms grow their component set one entity at a
        time; existing components keep their slots (they are never
        removed), new ones are appended, mirroring the online constraint
        stated in Section IV.
        """
        threads = len(self._threads)
        return ClockComponents(
            self._order[:threads]
            + tuple(c for c in thread_components if c not in self._threads),
            self._order[threads:]
            + tuple(c for c in object_components if c not in self._objects),
        )

    def summary(self) -> Mapping[str, int]:
        """Small dict used in reports: total / thread / object component counts."""
        return {
            "size": self.size,
            "thread_components": len(self._threads),
            "object_components": len(self._objects),
        }
