"""Extra experiment E5: maximum-matching and offline-pipeline scaling.

The paper relies on Hopcroft-Karp's ``O(E * sqrt(V))`` bound for the offline
algorithm.  This benchmark measures the two matcher implementations and the
full offline pipeline (matching + König cover) on growing random graphs so
the cost of "computing the optimal clock" is documented alongside the size
results.  pytest-benchmark timings are the primary output; a summary table
of matching sizes is also written for EXPERIMENTS.md.

Two scaling variants ride along:

* a chain graph of ``CHAIN_VERTICES`` total vertices (10k by default) -
  the worst case for augmenting-path *length*, which the old recursive
  matchers could not finish at all (``RecursionError`` at ~1k threads);
* the incremental engine replaying a full reveal order, measuring the
  cost of the per-event offline-optimum trajectory against one
  from-scratch Hopcroft-Karp per prefix.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.graph import (
    DynamicMatching,
    augmenting_path_matching,
    chain_bipartite,
    hopcroft_karp_matching,
    incremental_optimum_trajectory,
    uniform_bipartite,
)
from repro.offline import optimal_components_for_graph

from _common import CHAIN_VERTICES, MATCHING_SIZES

SIZES = MATCHING_SIZES
#: Average degree kept constant across sizes so the graphs stay in the
#: sparse regime the paper targets (the interesting one for mixed clocks);
#: the per-pair edge probability is AVERAGE_DEGREE / size.
AVERAGE_DEGREE = 3.0


@pytest.fixture(scope="module")
def graphs():
    return {
        size: uniform_bipartite(size, size, AVERAGE_DEGREE / size, seed=size)
        for size in SIZES
    }


@pytest.fixture(scope="module")
def chain_graph():
    return chain_bipartite(CHAIN_VERTICES)


@pytest.mark.benchmark(group="matching-scaling")
@pytest.mark.parametrize("size", SIZES)
def test_hopcroft_karp_scaling(benchmark, graphs, size):
    graph = graphs[size]
    matching = benchmark(hopcroft_karp_matching, graph)
    assert len(matching) <= size


@pytest.mark.benchmark(group="matching-scaling")
@pytest.mark.parametrize("size", SIZES)
def test_augmenting_path_scaling(benchmark, graphs, size):
    graph = graphs[size]
    matching = benchmark(augmenting_path_matching, graph)
    assert len(matching) == len(hopcroft_karp_matching(graph))


@pytest.mark.benchmark(group="matching-scaling-chain")
@pytest.mark.parametrize(
    "matcher", [hopcroft_karp_matching, augmenting_path_matching], ids=lambda f: f.__name__
)
def test_chain_graph_scaling(benchmark, chain_graph, matcher):
    # Augmenting paths here are O(V) hops long; completing at all is the
    # regression being guarded (the recursive matchers blew the stack).
    matching = benchmark.pedantic(matcher, args=(chain_graph,), rounds=1, iterations=1)
    assert len(matching) == CHAIN_VERTICES // 2


@pytest.mark.benchmark(group="matching-scaling-chain")
def test_incremental_trajectory_on_chain(benchmark, chain_graph):
    edges = list(chain_graph.edges())
    random.Random(97).shuffle(edges)

    def replay():
        return incremental_optimum_trajectory(edges)

    trajectory = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert len(trajectory) == chain_graph.num_edges
    assert trajectory[-1] == CHAIN_VERTICES // 2


@pytest.mark.benchmark(group="matching-scaling-incremental")
@pytest.mark.parametrize("size", SIZES)
def test_incremental_trajectory_scaling(benchmark, graphs, size):
    graph = graphs[size]
    edges = sorted(graph.edges(), key=str)
    random.Random(size).shuffle(edges)

    def replay():
        return DynamicMatching(edges)

    engine = benchmark(replay)
    assert engine.size == len(hopcroft_karp_matching(graph))


@pytest.mark.benchmark(group="offline-pipeline")
@pytest.mark.parametrize("size", SIZES)
def test_full_offline_pipeline_scaling(benchmark, graphs, size):
    graph = graphs[size]
    result = benchmark(optimal_components_for_graph, graph)
    assert result.clock_size == len(result.matching)


@pytest.mark.benchmark(group="matching-scaling")
def test_record_matching_summary(benchmark, graphs, record_table):
    def build_rows():
        rows = []
        for size, graph in graphs.items():
            result = optimal_components_for_graph(graph)
            rows.append(
                {
                    "nodes_per_side": size,
                    "edges": graph.num_edges,
                    "optimal_clock": result.clock_size,
                    "thread_components": result.thread_component_count,
                    "object_components": result.object_component_count,
                    "naive": min(graph.num_threads, graph.num_objects),
                }
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    record_table("matching_scaling_summary", format_table(rows))
