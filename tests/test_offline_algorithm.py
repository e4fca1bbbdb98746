"""Unit tests for the offline optimal algorithm (Section III pipeline)."""

from __future__ import annotations

from repro.computation import paper_example_trace, random_trace, trace_from_graph
from repro.graph import (
    complete_bipartite,
    paper_example_graph,
    star_bipartite,
    uniform_bipartite,
)
from repro.graph.vertex_cover import brute_force_vertex_cover
from repro.offline import (
    optimal_clock_size,
    optimal_components_for_computation,
    optimal_components_for_graph,
    timestamp_offline,
)
from tests.conftest import assert_valid_vector_clock, small_random_graph


class TestOfflineOnGraphs:
    def test_paper_example(self):
        result = optimal_components_for_graph(paper_example_graph())
        assert result.clock_size == 3
        assert result.cover == {"T2", "O2", "O3"}
        assert result.thread_component_count == 1
        assert result.object_component_count == 2
        assert result.savings_vs_naive() == 1  # 4 - 3

    def test_clock_size_equals_matching_size(self):
        for seed in range(8):
            graph = uniform_bipartite(20, 20, 0.1, seed=seed)
            result = optimal_components_for_graph(graph)
            assert result.clock_size == len(result.matching)

    def test_never_larger_than_min_nm(self):
        for seed in range(8):
            graph = uniform_bipartite(15, 25, 0.15, seed=seed)
            result = optimal_components_for_graph(graph)
            assert result.clock_size <= min(graph.num_threads, graph.num_objects)

    def test_matches_brute_force_on_tiny_graphs(self):
        for seed in range(20):
            graph = small_random_graph(seed, max_side=5, density=0.4)
            if graph.num_vertices > 10:
                continue
            assert optimal_clock_size(graph) == len(brute_force_vertex_cover(graph))

    def test_star_graph_needs_one_component(self):
        assert optimal_clock_size(star_bipartite(1, 20)) == 1

    def test_complete_graph_needs_smaller_side(self):
        assert optimal_clock_size(complete_bipartite(6, 9)) == 6

    def test_summary_fields(self):
        result = optimal_components_for_graph(paper_example_graph())
        summary = result.summary()
        assert summary["clock_size"] == 3
        assert summary["threads"] == 4
        assert summary["objects"] == 4
        assert summary["naive_size"] == 4
        assert summary["matching_size"] == 3

    def test_both_matcher_backends_agree(self):
        for seed in range(5):
            graph = uniform_bipartite(18, 18, 0.12, seed=seed)
            assert optimal_clock_size(graph, algorithm="hopcroft-karp") == optimal_clock_size(
                graph, algorithm="augmenting-path"
            )


class TestOfflineOnComputations:
    def test_components_cover_the_computation(self):
        trace = random_trace(8, 8, 100, seed=4)
        result = optimal_components_for_computation(trace)
        result.components.validate_covers_graph(trace.bipartite_graph())

    def test_timestamp_offline_is_valid_vector_clock(self):
        trace = random_trace(6, 7, 80, seed=11)
        stamped = timestamp_offline(trace)
        assert_valid_vector_clock(trace, stamped.timestamp)

    def test_timestamp_offline_on_paper_trace(self):
        stamped = timestamp_offline(paper_example_trace())
        assert stamped.clock_size == 3
        assert_valid_vector_clock(paper_example_trace(), stamped.timestamp)

    def test_offline_never_worse_than_thread_or_object_clock(self):
        for seed in range(6):
            graph = uniform_bipartite(12, 9, 0.2, seed=seed)
            trace = trace_from_graph(graph, seed=seed)
            result = optimal_components_for_computation(trace)
            assert result.clock_size <= trace.num_threads
            assert result.clock_size <= trace.num_objects

    def test_protocol_factory_returns_fresh_protocols(self):
        result = optimal_components_for_computation(paper_example_trace())
        first = result.protocol()
        second = result.protocol()
        assert first is not second
        first.observe("T2", "O1")
        assert second.events_observed == 0
