"""Maximum bipartite matching algorithms.

The paper's offline algorithm (Section III-B) needs a maximum matching of
the thread-object bipartite graph so that the König-Egerváry theorem can
turn it into a minimum vertex cover.  The paper cites the Hopcroft-Karp
algorithm, which this module implements from scratch, along with two
simpler matchers used as independent cross-checks:

* :func:`hopcroft_karp_matching` - phase-based shortest augmenting paths,
  ``O(E * sqrt(V))``; the only matcher the program calls.
* :func:`augmenting_path_matching` - classic Hungarian-style single
  augmenting-path search, ``O(V * E)``; simple enough to trust by
  inspection, used to validate Hopcroft-Karp in tests and as a baseline in
  the matching-scaling benchmark.
* :func:`brute_force_matching` - exponential enumeration for very small
  graphs; the ground-truth oracle in property tests.

All three return a :class:`Matching` object mapping threads to objects.
The last two are reference matchers: tests and benchmarks compare
Hopcroft-Karp against them.

Hopcroft-Karp and the augmenting-path matcher walk their augmenting paths
with *explicit stacks* rather than recursion: an augmenting path visits
one stack frame per hop, so the recursive formulation blows Python's
recursion limit on chain-like graphs of around a thousand threads (paths
of length ``O(V)`` are routine there).  The iterative forms handle
10k+-vertex chains in the matching-scaling benchmark; see
:mod:`repro.graph.incremental` for the edge-by-edge incremental variant
used by the online evaluation.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.exceptions import MatchingError
from repro.graph.bipartite import BipartiteGraph, Edge, Vertex, vertex_sort_key

_INFINITY = float("inf")


class Matching:
    """A matching in a thread-object bipartite graph.

    Internally stored as two mutually-consistent dictionaries, thread to
    object and object to thread.  Instances are immutable from the outside;
    the matcher functions build them via the private constructor argument.
    """

    __slots__ = ("_thread_to_object", "_object_to_thread")

    def __init__(self, pairs: Iterable[Edge] = ()) -> None:
        self._thread_to_object: Dict[Vertex, Vertex] = {}
        self._object_to_thread: Dict[Vertex, Vertex] = {}
        for thread, obj in pairs:
            if thread in self._thread_to_object:
                raise MatchingError(f"thread {thread!r} matched twice")
            if obj in self._object_to_thread:
                raise MatchingError(f"object {obj!r} matched twice")
            self._thread_to_object[thread] = obj
            self._object_to_thread[obj] = thread

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._thread_to_object)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._thread_to_object.items())

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, tuple) or len(edge) != 2:
            return False
        thread, obj = edge
        return self._thread_to_object.get(thread) == obj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._thread_to_object == other._thread_to_object

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matching(size={len(self)})"

    @property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset(self._thread_to_object.items())

    def thread_partner(self, thread: Vertex) -> Optional[Vertex]:
        """The object matched to ``thread``, or ``None`` if unmatched."""
        return self._thread_to_object.get(thread)

    def object_partner(self, obj: Vertex) -> Optional[Vertex]:
        """The thread matched to ``obj``, or ``None`` if unmatched."""
        return self._object_to_thread.get(obj)

    def is_thread_matched(self, thread: Vertex) -> bool:
        return thread in self._thread_to_object

    def is_object_matched(self, obj: Vertex) -> bool:
        return obj in self._object_to_thread

    def matched_threads(self) -> FrozenSet[Vertex]:
        return frozenset(self._thread_to_object)

    def matched_objects(self) -> FrozenSet[Vertex]:
        return frozenset(self._object_to_thread)

    def unmatched_threads(self, graph: BipartiteGraph) -> FrozenSet[Vertex]:
        """Threads of ``graph`` not covered by this matching (the set ``S``
        in Algorithm 1)."""
        return graph.threads - self.matched_threads()

    def unmatched_objects(self, graph: BipartiteGraph) -> FrozenSet[Vertex]:
        return graph.objects - self.matched_objects()

    def as_mapping(self) -> Mapping[Vertex, Vertex]:
        """Read-only view of the thread-to-object mapping."""
        return dict(self._thread_to_object)


def validate_matching(graph: BipartiteGraph, matching: Matching) -> None:
    """Raise :class:`MatchingError` unless ``matching`` is valid for ``graph``.

    Validity means every matched pair is an edge of the graph; the
    one-partner-per-vertex invariant is enforced by :class:`Matching`
    itself at construction time.
    """
    for thread, obj in matching:
        if not graph.has_edge(thread, obj):
            raise MatchingError(
                f"matched pair ({thread!r}, {obj!r}) is not an edge of the graph"
            )


def is_maximum_matching(graph: BipartiteGraph, matching: Matching) -> bool:
    """Check maximality by searching for an augmenting path.

    By Berge's theorem a matching is maximum iff the graph contains no
    augmenting path with respect to it.  This runs a single BFS/DFS sweep
    and is used in tests to certify matcher output without trusting any
    particular matcher.
    """
    validate_matching(graph, matching)
    return _find_augmenting_path(graph, matching) is None


# ---------------------------------------------------------------------------
# Simple augmenting-path matcher (Hungarian-style)
# ---------------------------------------------------------------------------
def augment_from_unmatched_thread(
    graph: BipartiteGraph,
    thread_to_object: Dict[Vertex, Vertex],
    object_to_thread: Dict[Vertex, Vertex],
    root: Vertex,
) -> bool:
    """One Hungarian augmenting-path search from an unmatched thread.

    Flips the path into the two matching dicts and returns ``True`` on
    success.  Runs on an explicit stack: one frame per thread on the
    alternating path, with the contested object recorded in the frame so
    a successful path can be flipped by a single unwind.  Augmenting
    paths are ``O(V)`` long on chain-like graphs, which used to blow
    Python's recursion limit at around a thousand threads.

    The per-thread search of :func:`augmenting_path_matching`.
    """
    visited: Set[Vertex] = set()
    # Each frame is [thread, neighbor-iterator, contested-object]: the
    # object this frame has tentatively claimed, pending the displaced
    # thread (the frame above) finding a new partner.
    stack = [[root, iter(graph.thread_neighbors(root)), None]]
    while stack:
        frame = stack[-1]
        pushed = False
        for obj in frame[1]:
            if obj in visited:
                continue
            visited.add(obj)
            frame[2] = obj
            current = object_to_thread.get(obj)
            if current is None:
                # Free object found: flip every (thread, object) pair
                # on the stack to apply the augmenting path.
                for frame_thread, _, frame_obj in stack:
                    thread_to_object[frame_thread] = frame_obj
                    object_to_thread[frame_obj] = frame_thread
                return True
            stack.append(
                [current, iter(graph.thread_neighbors(current)), None]
            )
            pushed = True
            break
        if not pushed:
            stack.pop()
    return False


def augmenting_path_matching(graph: BipartiteGraph) -> Matching:
    """Maximum matching via repeated single augmenting-path search.

    ``O(V * E)`` worst case.  Deterministic given the insertion order of
    vertices in ``graph``.  The per-thread search is
    :func:`augment_from_unmatched_thread` (iterative, explicit stack).
    """
    thread_to_object: Dict[Vertex, Vertex] = {}
    object_to_thread: Dict[Vertex, Vertex] = {}
    for thread in graph.threads:
        if thread not in thread_to_object:
            augment_from_unmatched_thread(
                graph, thread_to_object, object_to_thread, thread
            )
    return Matching(thread_to_object.items())


def _find_augmenting_path(
    graph: BipartiteGraph, matching: Matching
) -> Optional[Tuple[Vertex, ...]]:
    """Return one augmenting path as a vertex tuple, or ``None``.

    The path alternates unmatched/matched edges, starts at an unmatched
    thread and ends at an unmatched object.
    """
    for start in matching.unmatched_threads(graph):
        # BFS over alternating paths.
        parents: Dict[Vertex, Optional[Vertex]] = {start: None}
        queue = deque([start])
        while queue:
            thread = queue.popleft()
            for obj in graph.thread_neighbors(thread):
                if obj in parents:
                    continue
                parents[obj] = thread
                partner = matching.object_partner(obj)
                if partner is None:
                    # Reconstruct path.
                    path = [obj]
                    node: Optional[Vertex] = thread
                    while node is not None:
                        path.append(node)
                        node = parents[node]
                    return tuple(reversed(path))
                parents[partner] = obj
                queue.append(partner)
    return None


# ---------------------------------------------------------------------------
# Hopcroft-Karp
# ---------------------------------------------------------------------------
def hopcroft_karp_matching(graph: BipartiteGraph) -> Matching:
    """Maximum matching via the Hopcroft-Karp algorithm.

    Each phase runs a BFS that layers the graph by shortest alternating
    distance from unmatched threads, then a DFS that extracts a maximal set
    of vertex-disjoint shortest augmenting paths and flips them all at
    once.  The number of phases is ``O(sqrt(V))``, giving the overall
    ``O(E * sqrt(V))`` bound cited by the paper.
    """
    thread_to_object: Dict[Vertex, Optional[Vertex]] = {
        t: None for t in graph.threads
    }
    object_to_thread: Dict[Vertex, Optional[Vertex]] = {
        o: None for o in graph.objects
    }
    distance: Dict[Optional[Vertex], float] = {}

    def bfs() -> bool:
        """Layer threads by alternating-path distance; return True if some
        augmenting path exists."""
        queue: deque = deque()
        for thread, partner in thread_to_object.items():
            if partner is None:
                distance[thread] = 0
                queue.append(thread)
            else:
                distance[thread] = _INFINITY
        distance[None] = _INFINITY
        while queue:
            thread = queue.popleft()
            if distance[thread] < distance[None]:
                for obj in graph.thread_neighbors(thread):
                    next_thread = object_to_thread[obj]
                    if distance[next_thread] == _INFINITY:
                        distance[next_thread] = distance[thread] + 1
                        if next_thread is not None:
                            queue.append(next_thread)
        return distance[None] != _INFINITY

    def dfs(root: Vertex) -> bool:
        """Extend an augmenting path from ``root`` along the BFS layers.

        Runs on an explicit stack (one frame per thread on the path) since
        shortest augmenting paths grow to ``O(V)`` hops in late phases on
        chain-like graphs, far past Python's recursion limit.
        """
        stack = [[root, iter(graph.thread_neighbors(root)), None]]
        while stack:
            frame = stack[-1]
            thread, neighbors = frame[0], frame[1]
            next_distance = distance[thread] + 1
            pushed = False
            for obj in neighbors:
                next_thread = object_to_thread[obj]
                if distance[next_thread] != next_distance:
                    continue
                frame[2] = obj
                if next_thread is None:
                    # Unmatched object reached: flip the path on the stack.
                    for frame_thread, _, frame_obj in stack:
                        thread_to_object[frame_thread] = frame_obj
                        object_to_thread[frame_obj] = frame_thread
                    return True
                stack.append(
                    [next_thread, iter(graph.thread_neighbors(next_thread)), None]
                )
                pushed = True
                break
            if not pushed:
                distance[thread] = _INFINITY
                stack.pop()
        return False

    while bfs():
        for thread, partner in list(thread_to_object.items()):
            if partner is None:
                dfs(thread)

    pairs = [
        (thread, obj) for thread, obj in thread_to_object.items() if obj is not None
    ]
    return Matching(pairs)


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------
def brute_force_matching(graph: BipartiteGraph, max_edges: int = 20) -> Matching:
    """Exhaustively find a maximum matching; only for tiny graphs.

    Enumerates subsets of the edge set in decreasing size order and returns
    the first subset that is a valid matching.  Raises
    :class:`MatchingError` if the graph has more than ``max_edges`` edges,
    as a guard against accidental exponential blow-ups in tests.
    """
    # Canonically sorted so which maximum matching the enumeration finds
    # first (among equally sized ones) is stable across processes.
    edges = sorted(
        graph.edges(), key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1]))
    )
    if len(edges) > max_edges:
        raise MatchingError(
            f"brute_force_matching limited to {max_edges} edges, "
            f"graph has {len(edges)}"
        )
    upper_bound = min(graph.num_threads, graph.num_objects, len(edges))
    for size in range(upper_bound, 0, -1):
        for subset in combinations(edges, size):
            threads = {t for t, _ in subset}
            objects = {o for _, o in subset}
            if len(threads) == size and len(objects) == size:
                return Matching(subset)
    return Matching()

