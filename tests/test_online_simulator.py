"""Unit tests for the online simulation driver."""

from __future__ import annotations

from repro.computation import random_trace
from repro.graph import uniform_bipartite
from repro.offline import optimal_clock_size
from repro.online import (
    NaiveMechanism,
    PopularityMechanism,
    RandomMechanism,
    compare_mechanisms,
    reveal_order,
    run_mechanism_on_computation,
    run_mechanism_on_graph,
)


class TestRevealOrder:
    def test_is_permutation_of_edges(self):
        graph = uniform_bipartite(10, 10, 0.3, seed=1)
        order = reveal_order(graph, seed=2)
        assert sorted(order) == sorted(graph.edges())

    def test_deterministic_given_seed(self):
        graph = uniform_bipartite(10, 10, 0.3, seed=1)
        assert reveal_order(graph, seed=5) == reveal_order(graph, seed=5)
        assert reveal_order(graph, seed=5) != reveal_order(graph, seed=6)

    def test_mixed_vertex_types_reveal_deterministically(self):
        # Distinct vertices may share a printed form across types (the
        # int 1 and the str "1"); the sort key separates those.  Same-type
        # vertices with identical reprs (Opaque below) cannot be separated
        # by any printed form - they must still shuffle into a valid,
        # in-process-deterministic permutation rather than crash.
        from repro.graph import BipartiteGraph

        class Opaque:
            """A vertex whose instances all print identically."""

            def __repr__(self):
                return "<opaque>"

        a, b = Opaque(), Opaque()
        graph = BipartiteGraph(
            edges=[(1, "x"), ("1", "x"), (1, "y"), (a, "x"), (b, "y")]
        )
        order = reveal_order(graph, seed=4)
        assert len(order) == graph.num_edges
        assert set(order) == set(graph.edges())
        assert reveal_order(graph, seed=4) == order

    def test_edge_sort_key_separates_identical_strings(self):
        from repro.graph.bipartite import vertex_sort_key

        assert vertex_sort_key(1) != vertex_sort_key("1")

    def test_sort_keys_computed_once_per_vertex(self):
        # The canonicalisation key used to be re-derived per comparison
        # (O(d log E) repr calls per vertex); it is now cached, so one
        # reveal_order call costs exactly one repr per vertex.
        from repro.graph import BipartiteGraph

        class Counting:
            calls = 0

            def __init__(self, label):
                self.label = label

            def __repr__(self):
                type(self).calls += 1
                return f"Counting({self.label})"

        threads = [Counting(i) for i in range(6)]
        graph = BipartiteGraph(
            edges=[(t, f"O{j}") for t in threads for j in range(5)]
        )
        Counting.calls = 0
        first = reveal_order(graph, seed=9)
        assert Counting.calls == len(threads)
        assert len(first) == graph.num_edges

        # Determinism on mixed-type graphs is unchanged by the caching.
        Counting.calls = 0
        assert reveal_order(graph, seed=9) == first


class TestRunMechanism:
    def test_trajectory_is_monotone_and_bounded(self):
        graph = uniform_bipartite(15, 15, 0.2, seed=3)
        result = run_mechanism_on_graph(PopularityMechanism(), graph, seed=4)
        assert result.events_revealed == graph.num_edges
        assert len(result.size_trajectory) == graph.num_edges
        assert list(result.size_trajectory) == sorted(result.size_trajectory)
        assert result.final_size == result.size_trajectory[-1]
        assert result.final_size == result.sizes[-1]
        assert result.thread_components + result.object_components == result.final_size

    def test_run_on_computation_counts_every_event(self):
        trace = random_trace(5, 5, 40, seed=6)
        result = run_mechanism_on_computation(NaiveMechanism(), trace)
        assert result.events_revealed == trace.num_events
        assert result.final_size == len(set(trace.threads))

    def test_final_size_never_below_offline_optimum(self):
        for seed in range(5):
            graph = uniform_bipartite(12, 12, 0.25, seed=seed)
            optimum = optimal_clock_size(graph)
            for mechanism in (NaiveMechanism(), RandomMechanism(seed=seed), PopularityMechanism()):
                result = run_mechanism_on_graph(mechanism, graph, seed=seed)
                assert result.final_size >= optimum


class TestCompareMechanisms:
    def test_all_mechanisms_see_the_same_reveal_order(self):
        graph = uniform_bipartite(10, 10, 0.3, seed=9)
        results = compare_mechanisms(
            graph,
            {
                "naive": lambda: NaiveMechanism(),
                "naive-again": lambda: NaiveMechanism(),
            },
            seed=1,
        )
        assert results["naive"].final_size == results["naive-again"].final_size
        assert results["naive"].size_trajectory == results["naive-again"].size_trajectory

    def test_include_offline_adds_per_event_optimum_trajectory(self):
        graph = uniform_bipartite(10, 10, 0.2, seed=2)
        results = compare_mechanisms(
            graph, {"popularity": lambda: PopularityMechanism()}, seed=3, include_offline=True
        )
        offline = results["offline"]
        assert offline.final_size == optimal_clock_size(graph)
        assert offline.size_trajectory[-1] == offline.final_size
        # A true per-event optimum starts small and grows; it is no longer
        # the constant final-value line the seed plotted.
        assert offline.size_trajectory[0] == 1
        assert len(set(offline.size_trajectory)) > 1
        assert list(offline.size_trajectory) == sorted(offline.size_trajectory)
        assert results["popularity"].final_size >= offline.final_size

    def test_offline_trajectory_agrees_with_optimum_at_every_prefix(self):
        from repro.graph import BipartiteGraph
        from repro.online import reveal_order

        graph = uniform_bipartite(8, 8, 0.3, seed=11)
        order = reveal_order(graph, seed=12)
        results = compare_mechanisms(
            graph, {"naive": lambda: NaiveMechanism()}, seed=12, include_offline=True
        )
        trajectory = results["offline"].size_trajectory
        prefix = BipartiteGraph()
        for position, (thread, obj) in enumerate(order):
            prefix.add_edge(thread, obj)
            assert trajectory[position] == optimal_clock_size(prefix)

    def test_online_mechanisms_never_dip_below_offline_trajectory(self):
        graph = uniform_bipartite(12, 12, 0.25, seed=7)
        results = compare_mechanisms(
            graph,
            {
                "naive": lambda: NaiveMechanism(),
                "popularity": lambda: PopularityMechanism(),
            },
            seed=8,
            include_offline=True,
        )
        offline = results["offline"].size_trajectory
        for label in ("naive", "popularity"):
            online = results[label].size_trajectory
            assert all(o >= f for o, f in zip(online, offline))
