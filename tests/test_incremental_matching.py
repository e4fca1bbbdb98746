"""Tests for the incremental matching engine and the fast clock kernel.

Two independent cross-checks of the new hot paths against the slow,
trusted implementations:

* :class:`~repro.graph.incremental.DynamicMatching` must agree with a
  from-scratch maximum matching on *every prefix* of every reveal order -
  the property that makes the offline-optimum trajectory exact;
* the array-backed :class:`~repro.core.kernel.ClockKernel` must produce
  timestamps *bit-identical* to the naive ``merged``/``incremented``
  derivation the seed protocol used, for every clock family.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.computation import Computation
from repro.core import ClockComponents, Timestamp, VectorClockProtocol
from repro.graph import (
    BipartiteGraph,
    DynamicMatching,
    chain_bipartite,
    hopcroft_karp_matching,
    incremental_optimum_trajectory,
    is_maximum_matching,
    uniform_bipartite,
    validate_matching,
)
from repro.offline import (
    optimal_clock_size,
    optimal_components_for_computation,
)

SETTINGS = settings(max_examples=50, deadline=None)

edge_sequences = st.lists(
    st.tuples(
        st.sampled_from(["T0", "T1", "T2", "T3", "T4", "T5"]),
        st.sampled_from(["O0", "O1", "O2", "O3", "O4", "O5"]),
    ),
    min_size=0,
    max_size=25,  # repeats allowed on purpose: reveals may repeat pairs
)

pair_sequences = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "D"]),
        st.sampled_from(["x", "y", "z"]),
    ),
    min_size=1,
    max_size=30,
)


# ---------------------------------------------------------------------------
# Append-only DynamicMatching vs from-scratch matching
# ---------------------------------------------------------------------------
@SETTINGS
@given(edge_sequences)
def test_incremental_size_matches_from_scratch_at_every_prefix(edges):
    engine = DynamicMatching()
    prefix = BipartiteGraph()
    sizes = []
    for thread, obj in edges:
        engine.add_edge(thread, obj)
        prefix.add_edge(thread, obj)
        assert engine.size == len(hopcroft_karp_matching(prefix))
        sizes.append(engine.size)
    assert incremental_optimum_trajectory(edges) == tuple(sizes)
    if edges:
        assert sizes[-1] == optimal_clock_size(prefix)


@SETTINGS
@given(edge_sequences)
def test_incremental_matching_is_valid_and_maximum(edges):
    engine = DynamicMatching(edges)
    matching = engine.matching()
    validate_matching(engine.graph, matching)
    assert is_maximum_matching(engine.graph, matching)


def test_trajectory_final_value_over_random_graphs_and_orders():
    rng = random.Random(2019)
    for trial in range(25):
        graph = uniform_bipartite(
            rng.randint(2, 15), rng.randint(2, 15), rng.uniform(0.05, 0.5), seed=trial
        )
        edges = list(graph.edges())
        rng.shuffle(edges)
        trajectory = incremental_optimum_trajectory(edges)
        assert len(trajectory) == len(edges)
        if edges:
            assert trajectory[-1] == optimal_clock_size(graph)
            assert list(trajectory) == sorted(trajectory)  # optimum only grows


def test_trajectory_counts_repeated_pairs_without_growing():
    trajectory = incremental_optimum_trajectory(
        [("T0", "O0"), ("T0", "O0"), ("T1", "O1"), ("T0", "O0")]
    )
    assert trajectory == (1, 1, 2, 2)


def test_incremental_handles_long_chains_iteratively():
    # Chains force O(V)-hop augmenting paths; the engine must not recurse.
    graph = chain_bipartite(4_000)
    edges = list(graph.edges())
    random.Random(5).shuffle(edges)
    engine = DynamicMatching(edges)
    assert engine.size == 2_000
    assert engine.size == optimal_clock_size(graph)


# ---------------------------------------------------------------------------
# Fast kernel vs naive timestamp derivation
# ---------------------------------------------------------------------------
def _reference_timestamps(computation, components):
    """The seed protocol's derivation: merged() + incremented() per event.

    Kept as the independent oracle for the kernel's bit-identical claim.
    """
    zero = Timestamp.zero(components)
    thread_clocks = {}
    object_clocks = {}
    stamps = {}
    for event in computation:
        merged = thread_clocks.get(event.thread, zero).merged(
            object_clocks.get(event.obj, zero)
        )
        stamped = merged
        if event.obj in components.object_components:
            stamped = stamped.incremented(event.obj)
        if event.thread in components.thread_components:
            stamped = stamped.incremented(event.thread)
        thread_clocks[event.thread] = stamped
        object_clocks[event.obj] = stamped
        stamps[event] = stamped
    return stamps


def _assert_bit_identical(computation, components):
    stamped = VectorClockProtocol(components).timestamp_computation(computation)
    reference = _reference_timestamps(computation, components)
    for event in computation:
        assert stamped[event].values == reference[event].values
        assert stamped[event] == reference[event]


@SETTINGS
@given(pair_sequences)
def test_kernel_matches_reference_with_thread_clock(pairs):
    computation = Computation.from_pairs(pairs)
    components = ClockComponents.all_threads(sorted(set(t for t, _ in pairs)))
    _assert_bit_identical(computation, components)


@SETTINGS
@given(pair_sequences)
def test_kernel_matches_reference_with_object_clock(pairs):
    computation = Computation.from_pairs(pairs)
    components = ClockComponents.all_objects(sorted(set(o for _, o in pairs)))
    _assert_bit_identical(computation, components)


@SETTINGS
@given(pair_sequences)
def test_kernel_matches_reference_with_optimal_mixed_clock(pairs):
    computation = Computation.from_pairs(pairs)
    components = optimal_components_for_computation(computation).components
    _assert_bit_identical(computation, components)


def test_kernel_matches_reference_on_random_traces():
    from repro.computation import random_trace

    for seed in range(5):
        trace = random_trace(6, 6, 80, seed=seed)
        components = optimal_components_for_computation(trace).components
        _assert_bit_identical(trace, components)


def test_kernel_incremental_observe_matches_batch():
    pairs = [("A", "x"), ("B", "x"), ("A", "y"), ("C", "y"), ("B", "x")]
    computation = Computation.from_pairs(pairs)
    components = optimal_components_for_computation(computation).components
    batch = VectorClockProtocol(components).timestamp_computation(computation)
    incremental = VectorClockProtocol(components)
    for event in computation:
        assert incremental.observe_event(event) == batch[event]
