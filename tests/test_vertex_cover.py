"""Unit tests for the König-Egerváry minimum vertex cover (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.exceptions import VertexCoverError
from repro.graph import (
    BipartiteGraph,
    Matching,
    alternating_reachable,
    augmenting_path_matching,
    brute_force_vertex_cover,
    complete_bipartite,
    hopcroft_karp_matching,
    is_vertex_cover,
    konig_vertex_cover,
    minimum_vertex_cover,
    paper_example_graph,
    star_bipartite,
    uniform_bipartite,
    validate_vertex_cover,
)
from tests.conftest import small_random_graph


class TestCoverPredicates:
    def test_is_vertex_cover(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O1"), ("T2", "O2")])
        assert is_vertex_cover(graph, {"T2", "O1"})
        assert is_vertex_cover(graph, {"T1", "T2"})
        assert not is_vertex_cover(graph, {"T1", "O2"})
        assert is_vertex_cover(BipartiteGraph(), set())

    def test_validate_vertex_cover_raises_on_uncovered_edge(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O2")])
        with pytest.raises(VertexCoverError):
            validate_vertex_cover(graph, {"T1"})

    def test_validate_vertex_cover_rejects_unknown_vertices(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(VertexCoverError):
            validate_vertex_cover(graph, {"T1", "mystery"})


class TestKonigConstruction:
    def test_empty_graph(self):
        assert konig_vertex_cover(BipartiteGraph()) == frozenset()

    def test_single_edge(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        cover = minimum_vertex_cover(graph)
        assert len(cover) == 1
        assert is_vertex_cover(graph, cover)

    def test_star_graph_covers_with_single_center(self):
        graph = star_bipartite(1, 10)
        cover = minimum_vertex_cover(graph)
        assert cover == {"T0"}
        graph = star_bipartite(10, 1, center_is_thread=False)
        cover = minimum_vertex_cover(graph)
        assert cover == {"O0"}

    def test_complete_graph_cover_is_smaller_side(self):
        graph = complete_bipartite(3, 6)
        cover = minimum_vertex_cover(graph)
        assert len(cover) == 3
        assert cover == graph.threads

    def test_paper_example_cover(self):
        # Fig. 2: the minimum vertex cover is {T2, O2, O3}.
        cover = minimum_vertex_cover(paper_example_graph())
        assert cover == {"T2", "O2", "O3"}

    def test_cover_size_equals_matching_size(self):
        for seed in range(10):
            graph = uniform_bipartite(15, 12, 0.2, seed=seed)
            matching = hopcroft_karp_matching(graph)
            cover = konig_vertex_cover(graph, matching)
            validate_vertex_cover(graph, cover)
            assert len(cover) == len(matching)

    def test_alternating_reachable_contains_unmatched_threads(self):
        graph = BipartiteGraph(
            edges=[("T1", "O1"), ("T2", "O1"), ("T3", "O2")]
        )
        matching = hopcroft_karp_matching(graph)
        reachable = alternating_reachable(graph, matching)
        for thread in matching.unmatched_threads(graph):
            assert thread in reachable

    def test_konig_with_explicit_matching_validates_it(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        from repro.exceptions import MatchingError

        with pytest.raises(MatchingError):
            konig_vertex_cover(graph, Matching([("T1", "O2")]))

    def test_cover_never_larger_than_either_side(self):
        for seed in range(10):
            graph = uniform_bipartite(10, 14, 0.3, seed=seed)
            cover = minimum_vertex_cover(graph)
            assert len(cover) <= min(graph.num_threads, graph.num_objects)

    def test_cover_with_both_matcher_backends_agrees(self):
        for seed in range(6):
            graph = uniform_bipartite(12, 12, 0.25, seed=seed)
            cover = minimum_vertex_cover(graph)
            matching = augmenting_path_matching(graph)
            assert cover == konig_vertex_cover(graph, matching)
            assert len(cover) == len(matching)


class TestAgainstBruteForce:
    def test_minimum_size_matches_brute_force(self):
        for seed in range(25):
            graph = small_random_graph(seed, max_side=5, density=0.45)
            if graph.num_vertices > 10:
                continue
            expected = len(brute_force_vertex_cover(graph))
            assert len(minimum_vertex_cover(graph)) == expected

    def test_brute_force_guard(self):
        graph = complete_bipartite(10, 10)
        with pytest.raises(VertexCoverError):
            brute_force_vertex_cover(graph)

    def test_brute_force_simple(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O1")])
        assert brute_force_vertex_cover(graph) == {"O1"}
