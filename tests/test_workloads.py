"""Unit tests for the workload / trace generators."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.computation import (
    lock_hierarchy_trace,
    pipeline_trace,
    producer_consumer_trace,
    random_trace,
    trace_from_graph,
    work_stealing_trace,
)
from repro.exceptions import ComputationError
from repro.graph import uniform_bipartite


class TestTraceFromGraph:
    def test_graph_round_trip(self):
        graph = uniform_bipartite(8, 8, 0.3, seed=4)
        trace = trace_from_graph(graph, seed=1)
        regraph = trace.bipartite_graph()
        assert set(regraph.edges()) == set(graph.edges())

    def test_operations_per_edge(self):
        graph = uniform_bipartite(5, 5, 0.5, seed=2)
        trace = trace_from_graph(graph, operations_per_edge=3, seed=1)
        assert trace.num_events == 3 * graph.num_edges

    def test_determinism(self):
        graph = uniform_bipartite(6, 6, 0.4, seed=8)
        assert trace_from_graph(graph, seed=5) == trace_from_graph(graph, seed=5)

    def test_invalid_operations_per_edge(self):
        graph = uniform_bipartite(3, 3, 0.5, seed=1)
        with pytest.raises(ComputationError):
            trace_from_graph(graph, operations_per_edge=0)

    def test_unshuffled_order_follows_edge_listing(self):
        graph = uniform_bipartite(4, 4, 0.5, seed=3)
        trace = trace_from_graph(graph, shuffle=False)
        assert trace.num_events == graph.num_edges

    def test_seeded_trace_ignores_hash_seed(self):
        # Set iteration order follows PYTHONHASHSEED; the seeded trace
        # must not, so two interpreters with different hash seeds agree.
        script = (
            "from repro.computation import trace_from_graph\n"
            "from repro.graph import uniform_bipartite\n"
            "graph = uniform_bipartite(12, 12, 0.3, seed=4)\n"
            "print(trace_from_graph(graph, operations_per_edge=2, seed=7).to_pairs())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestRandomTrace:
    def test_size_and_universe(self):
        trace = random_trace(5, 7, 100, seed=1)
        assert trace.num_events == 100
        assert trace.num_threads <= 5
        assert trace.num_objects <= 7

    def test_zero_events(self):
        trace = random_trace(3, 3, 0, seed=1)
        assert trace.num_events == 0

    def test_locality_reduces_distinct_pairs(self):
        spread = random_trace(10, 40, 300, locality=0.0, seed=6)
        local = random_trace(10, 40, 300, locality=0.95, seed=6)
        assert len(local.access_pairs()) < len(spread.access_pairs())

    def test_parameter_validation(self):
        with pytest.raises(ComputationError):
            random_trace(3, 3, -1)
        with pytest.raises(ComputationError):
            random_trace(3, 3, 10, locality=2.0)

    def test_determinism(self):
        assert random_trace(4, 4, 50, seed=3) == random_trace(4, 4, 50, seed=3)


class TestScenarioTraces:
    def test_producer_consumer_structure(self):
        trace = producer_consumer_trace(
            num_producers=3, num_consumers=2, num_queues=2, items_per_producer=5, seed=1
        )
        assert trace.num_threads == 5
        queues = [o for o in trace.objects if str(o).startswith("queue-")]
        assert len(queues) <= 2
        # Queues are shared across threads; private state objects are not.
        graph = trace.bipartite_graph()
        assert any(graph.degree(q) >= 2 for q in queues)
        for obj in trace.objects:
            if str(obj).startswith("state-"):
                assert graph.degree(obj) == 1

    def test_producer_consumer_preserves_program_order(self):
        # Each thread's item numbers must be non-decreasing in its own chain,
        # regardless of how the scheduler interleaved the threads.
        trace = producer_consumer_trace(num_producers=2, num_consumers=1, seed=2)
        for thread in trace.threads:
            item_numbers = [int(e.label.rsplit("-", 1)[1]) for e in trace.thread_events(thread)]
            assert item_numbers == sorted(item_numbers)

    def test_work_stealing_mostly_local(self):
        trace = work_stealing_trace(num_workers=6, tasks_per_worker=30,
                                    steal_probability=0.1, seed=3)
        graph = trace.bipartite_graph()
        local_edges = sum(
            1
            for worker_index in range(6)
            if graph.has_edge(f"worker-{worker_index}", f"deque-{worker_index}")
        )
        assert local_edges == 6
        assert trace.num_events == 6 * 30

    def test_lock_hierarchy_touches_locks_and_accounts(self):
        trace = lock_hierarchy_trace(num_threads=4, num_locks=2, num_accounts=6,
                                     transfers_per_thread=5, seed=4)
        locks = [o for o in trace.objects if str(o).startswith("lock-")]
        accounts = [o for o in trace.objects if str(o).startswith("account-")]
        assert 1 <= len(locks) <= 2
        assert len(accounts) >= 2
        assert trace.num_events == 4 * 5 * 4  # acquire, debit, credit, release

    def test_pipeline_stage_structure(self):
        trace = pipeline_trace(num_stages=3, workers_per_stage=2, items=12, seed=5)
        graph = trace.bipartite_graph()
        # A stage-1 worker touches buffers 1 and 2 only.
        neighbors = graph.thread_neighbors("stage1-worker0")
        assert neighbors == {"buffer-1", "buffer-2"}

    def test_scenarios_are_deterministic(self):
        assert producer_consumer_trace(seed=9) == producer_consumer_trace(seed=9)
        assert work_stealing_trace(seed=9) == work_stealing_trace(seed=9)
        assert lock_hierarchy_trace(seed=9) == lock_hierarchy_trace(seed=9)
        assert pipeline_trace(seed=9) == pipeline_trace(seed=9)
