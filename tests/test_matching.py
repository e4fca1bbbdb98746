"""Unit tests for the maximum matching algorithms."""

from __future__ import annotations

import pytest

from repro.exceptions import MatchingError
from repro.graph import (
    BipartiteGraph,
    chain_bipartite,
    Matching,
    augmenting_path_matching,
    brute_force_matching,
    complete_bipartite,
    hopcroft_karp_matching,
    is_maximum_matching,
    paper_example_graph,
    star_bipartite,
    uniform_bipartite,
    validate_matching,
)

MATCHERS = pytest.mark.parametrize(
    "matcher",
    [hopcroft_karp_matching, augmenting_path_matching],
    ids=["hopcroft-karp", "augmenting-path"],
)


class TestMatchingContainer:
    def test_empty_matching(self):
        matching = Matching()
        assert len(matching) == 0
        assert matching.thread_partner("T1") is None
        assert matching.object_partner("O1") is None

    def test_basic_accessors(self):
        matching = Matching([("T1", "O1"), ("T2", "O2")])
        assert len(matching) == 2
        assert matching.thread_partner("T1") == "O1"
        assert matching.object_partner("O2") == "T2"
        assert matching.is_thread_matched("T1")
        assert not matching.is_thread_matched("T3")
        assert ("T1", "O1") in matching
        assert ("T1", "O2") not in matching
        assert "junk" not in matching
        assert matching.edges == {("T1", "O1"), ("T2", "O2")}
        assert matching.as_mapping() == {"T1": "O1", "T2": "O2"}

    def test_duplicate_thread_rejected(self):
        with pytest.raises(MatchingError):
            Matching([("T1", "O1"), ("T1", "O2")])

    def test_duplicate_object_rejected(self):
        with pytest.raises(MatchingError):
            Matching([("T1", "O1"), ("T2", "O1")])

    def test_unmatched_sets(self):
        graph = BipartiteGraph(
            threads=["T1", "T2", "T3"], objects=["O1", "O2"], edges=[("T1", "O1")]
        )
        matching = Matching([("T1", "O1")])
        assert matching.unmatched_threads(graph) == {"T2", "T3"}
        assert matching.unmatched_objects(graph) == {"O2"}

    def test_equality(self):
        assert Matching([("T1", "O1")]) == Matching([("T1", "O1")])
        assert Matching([("T1", "O1")]) != Matching([("T1", "O2")])
        assert Matching() != "something else"

    def test_validate_matching_rejects_non_edges(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(MatchingError):
            validate_matching(graph, Matching([("T1", "O2")]))


@MATCHERS
class TestMaximumMatchingAlgorithms:
    def test_empty_graph(self, matcher):
        assert len(matcher(BipartiteGraph())) == 0

    def test_single_edge(self, matcher):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        matching = matcher(graph)
        assert len(matching) == 1
        assert ("T1", "O1") in matching

    def test_star_graph(self, matcher):
        # A star can match only its centre once.
        graph = star_bipartite(1, 8)
        assert len(matcher(graph)) == 1
        graph = star_bipartite(8, 1, center_is_thread=False)
        assert len(matcher(graph)) == 1

    def test_complete_graph(self, matcher):
        graph = complete_bipartite(4, 7)
        matching = matcher(graph)
        assert len(matching) == 4
        validate_matching(graph, matching)

    def test_perfect_matching_on_disjoint_edges(self, matcher):
        edges = [(f"T{i}", f"O{i}") for i in range(10)]
        graph = BipartiteGraph(edges=edges)
        matching = matcher(graph)
        assert len(matching) == 10
        assert matching.edges == set(edges)

    def test_requires_augmenting_path_flip(self, matcher):
        # Greedy matching that takes (T1,O1) first must be augmented:
        # T1-O1, T1-O2, T2-O1 has a maximum matching of size 2.
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T1", "O2"), ("T2", "O1")])
        matching = matcher(graph)
        assert len(matching) == 2
        assert is_maximum_matching(graph, matching)

    def test_paper_example_matching_size(self, matcher):
        matching = matcher(paper_example_graph())
        assert len(matching) == 3  # equals the minimum vertex cover size
        assert is_maximum_matching(paper_example_graph(), matching)

    def test_matching_is_valid_and_maximum_on_random_graphs(self, matcher):
        for seed in range(8):
            graph = uniform_bipartite(12, 15, 0.2, seed=seed)
            matching = matcher(graph)
            validate_matching(graph, matching)
            assert is_maximum_matching(graph, matching)

    def test_isolated_vertices_ignored(self, matcher):
        graph = BipartiteGraph(
            threads=["T1", "T2"], objects=["O1", "O2"], edges=[("T1", "O1")]
        )
        assert len(matcher(graph)) == 1


class TestCrossValidation:
    def test_hopcroft_karp_matches_simple_matcher_size(self):
        for seed in range(15):
            graph = uniform_bipartite(20, 18, 0.15, seed=seed)
            hk = hopcroft_karp_matching(graph)
            simple = augmenting_path_matching(graph)
            assert len(hk) == len(simple)

    def test_against_brute_force_on_tiny_graphs(self):
        from tests.conftest import small_random_graph

        for seed in range(20):
            graph = small_random_graph(seed, max_side=4, density=0.5)
            if graph.num_edges > 12:
                continue
            expected = len(brute_force_matching(graph))
            assert len(hopcroft_karp_matching(graph)) == expected
            assert len(augmenting_path_matching(graph)) == expected

    def test_against_networkx(self):
        networkx = pytest.importorskip("networkx")
        for seed in range(10):
            graph = uniform_bipartite(15, 15, 0.2, seed=seed)
            nx_graph = networkx.Graph()
            nx_graph.add_nodes_from(graph.threads, bipartite=0)
            nx_graph.add_nodes_from(graph.objects, bipartite=1)
            nx_graph.add_edges_from(graph.edges())
            expected = len(
                networkx.bipartite.hopcroft_karp_matching(nx_graph, top_nodes=graph.threads)
            ) // 2
            assert len(hopcroft_karp_matching(graph)) == expected


class TestBruteForce:
    def test_brute_force_guard(self):
        graph = complete_bipartite(5, 5)  # 25 edges > default guard of 20
        with pytest.raises(MatchingError):
            brute_force_matching(graph)

    def test_brute_force_empty(self):
        assert len(brute_force_matching(BipartiteGraph())) == 0


class TestDeepAugmentingPaths:
    """Regression tests: the matchers must not recurse once per path hop.

    A chain graph's augmenting paths are ``O(V)`` hops long, so the old
    recursive matchers blew Python's recursion limit on chains of around a
    thousand threads.  The iterative (explicit-stack) forms must match a
    5000-thread chain comfortably under the default limit.
    """

    @pytest.mark.parametrize("matcher", [augmenting_path_matching, hopcroft_karp_matching])
    def test_5000_thread_chain_does_not_overflow_the_stack(self, matcher):
        graph = chain_bipartite(10_000)  # 5000 threads + 5000 objects
        assert graph.num_threads == 5000
        matching = matcher(graph)
        # The perfect matching T_i - O_i is the unique maximum one.
        assert len(matching) == 5000

    @pytest.mark.parametrize("matcher", [augmenting_path_matching, hopcroft_karp_matching])
    def test_chain_matchings_are_maximum(self, matcher):
        for vertices in (2, 3, 7, 40, 41):
            graph = chain_bipartite(vertices)
            matching = matcher(graph)
            assert len(matching) == vertices // 2
            assert is_maximum_matching(graph, matching)
