"""Minimum vertex cover of a thread-object bipartite graph.

Implements Algorithm 1 of the paper: given a maximum matching ``M*`` of the
thread-object bipartite graph, the König-Egerváry construction computes a
minimum vertex cover as

    ``C* = (T - Z) ∪ (O ∩ Z)``

where ``Z`` is the set of vertices reachable from the unmatched threads
``S`` via ``M*``-alternating paths (unmatched edge away from a thread,
matched edge back to a thread).

The cover's vertices become the components of the mixed vector clock
(Section III-C); its size equals the size of the maximum matching, which by
Theorem 3 is the optimal vector clock size for the computation.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import FrozenSet, Iterable, Optional, Set

from repro.exceptions import VertexCoverError
from repro.graph.bipartite import BipartiteGraph, Vertex, vertex_sort_key
from repro.graph.matching import Matching, hopcroft_karp_matching, validate_matching


def alternating_reachable(graph: BipartiteGraph, matching: Matching) -> FrozenSet[Vertex]:
    """The set ``Z`` of Algorithm 1.

    BFS from every unmatched thread.  From a thread we may traverse only
    *unmatched* edges to objects; from an object we may traverse only its
    *matched* edge back to a thread.  The returned set contains both the
    thread and object vertices visited (including the unmatched threads
    themselves).
    """
    reached: Set[Vertex] = set()
    queue = deque()
    for thread in matching.unmatched_threads(graph):
        reached.add(thread)
        queue.append(("thread", thread))

    while queue:
        side, vertex = queue.popleft()
        if side == "thread":
            matched_obj = matching.thread_partner(vertex)
            for obj in graph.thread_neighbors(vertex):
                if obj == matched_obj or obj in reached:
                    continue
                reached.add(obj)
                queue.append(("object", obj))
        else:
            partner = matching.object_partner(vertex)
            if partner is not None and partner not in reached:
                reached.add(partner)
                queue.append(("thread", partner))
    return frozenset(reached)


def konig_vertex_cover(
    graph: BipartiteGraph, matching: Optional[Matching] = None
) -> FrozenSet[Vertex]:
    """Minimum vertex cover via the König-Egerváry construction (Algorithm 1).

    Parameters
    ----------
    graph:
        The thread-object bipartite graph.
    matching:
        A *maximum* matching of ``graph``.  If omitted, one is computed
        with Hopcroft-Karp.  Passing a non-maximum matching yields a vertex
        set that may not be a cover; use :func:`minimum_vertex_cover` if in
        doubt.
    """
    if matching is None:
        matching = hopcroft_karp_matching(graph)
    else:
        validate_matching(graph, matching)
    reachable = alternating_reachable(graph, matching)
    cover = (graph.threads - reachable) | (graph.objects & reachable)
    return frozenset(cover)


def minimum_vertex_cover(graph: BipartiteGraph) -> FrozenSet[Vertex]:
    """Compute a minimum vertex cover of ``graph``.

    Convenience wrapper: computes a maximum matching with Hopcroft-Karp,
    applies the König construction, and sanity-checks the result
    (the cover must cover every edge and have size equal to the matching).
    """
    matching = hopcroft_karp_matching(graph)
    cover = konig_vertex_cover(graph, matching)
    validate_vertex_cover(graph, cover)
    if len(cover) != len(matching):
        raise VertexCoverError(
            "König construction produced a cover of size "
            f"{len(cover)} for a maximum matching of size {len(matching)}"
        )
    return cover


def is_vertex_cover(graph: BipartiteGraph, cover: Iterable[Vertex]) -> bool:
    """``True`` iff every edge of ``graph`` has at least one endpoint in ``cover``."""
    cover_set = set(cover)
    return all(t in cover_set or o in cover_set for t, o in graph.edges())


def validate_vertex_cover(graph: BipartiteGraph, cover: Iterable[Vertex]) -> None:
    """Raise :class:`VertexCoverError` unless ``cover`` covers every edge."""
    cover_set = set(cover)
    for thread, obj in graph.edges():
        if thread not in cover_set and obj not in cover_set:
            raise VertexCoverError(
                f"edge ({thread!r}, {obj!r}) is not covered by {sorted(map(repr, cover_set))}"
            )
    unknown = cover_set - set(graph.threads) - set(graph.objects)
    if unknown:
        raise VertexCoverError(
            "cover contains unknown vertices: "
            f"{sorted(map(repr, unknown))}"
        )


def brute_force_vertex_cover(
    graph: BipartiteGraph, max_vertices: int = 16
) -> FrozenSet[Vertex]:
    """Exhaustive minimum vertex cover; oracle for tiny graphs in tests.

    Raises :class:`VertexCoverError` if the graph has more than
    ``max_vertices`` vertices.
    """
    # Canonically sorted so which minimum cover the enumeration finds
    # first (among equal-size covers) is stable across processes.
    vertices = sorted(graph.threads | graph.objects, key=vertex_sort_key)
    if len(vertices) > max_vertices:
        raise VertexCoverError(
            f"brute_force_vertex_cover limited to {max_vertices} vertices, "
            f"graph has {len(vertices)}"
        )
    for size in range(0, len(vertices) + 1):
        for subset in combinations(vertices, size):
            if is_vertex_cover(graph, subset):
                return frozenset(subset)
    return frozenset(vertices)
