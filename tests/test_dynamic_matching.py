"""Tests for the dynamic (insert + delete) matching engine.

The decremental path is cross-checked the same way the incremental one
was in PR 1: against from-scratch computations on the live edge multiset
after *every* mutation, so the per-event optimum trajectory is exact in
both regimes.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graph import (
    BipartiteGraph,
    DynamicMatching,
    Matching,
    alternating_reachable,
    chain_bipartite,
    hopcroft_karp_matching,
    is_maximum_matching,
    konig_vertex_cover,
    minimum_vertex_cover,
    sliding_window_optimum_trajectory,
    validate_matching,
    validate_vertex_cover,
)

SETTINGS = settings(max_examples=40, deadline=None)

THREADS = ["T0", "T1", "T2", "T3", "T4"]
OBJECTS = ["O0", "O1", "O2", "O3", "O4"]

# A script of (is_insert, thread, obj) steps; deletions are resolved
# against the live multiset at replay time (a delete step with no live
# edges is skipped), so every generated script is valid by construction.
mutation_scripts = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(THREADS),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=0,
    max_size=40,
)

pair_streams = st.lists(
    st.tuples(st.sampled_from(THREADS), st.sampled_from(OBJECTS)),
    min_size=0,
    max_size=40,
)


def _replay(script):
    """Replay a mutation script; yield (engine, live multiset) per step."""
    engine = DynamicMatching()
    live = {}
    for is_insert, thread, obj, pick in script:
        if is_insert or not live:
            engine.add_edge(thread, obj)
            live[(thread, obj)] = live.get((thread, obj), 0) + 1
        else:
            edge = sorted(live)[pick % len(live)]
            engine.remove_edge(*edge)
            live[edge] -= 1
            if not live[edge]:
                del live[edge]
        yield engine, dict(live)


# ---------------------------------------------------------------------------
# Interleaved insert/delete vs from-scratch (satellite: property test)
# ---------------------------------------------------------------------------
@SETTINGS
@given(mutation_scripts)
def test_interleaved_mutations_match_from_scratch_cover_at_every_prefix(script):
    for engine, live in _replay(script):
        reference = BipartiteGraph(edges=list(live))
        assert engine.size == len(minimum_vertex_cover(reference))
        assert len(engine.vertex_cover()) == engine.size


@SETTINGS
@given(mutation_scripts)
def test_interleaved_mutations_keep_matching_valid_and_maximum(script):
    for engine, _ in _replay(script):
        matching = engine.matching()
        validate_matching(engine.graph, matching)
        assert is_maximum_matching(engine.graph, matching)


@SETTINGS
@given(mutation_scripts)
def test_lazy_vertex_cover_is_a_valid_minimum_cover(script):
    for engine, _ in _replay(script):
        cover = engine.vertex_cover()
        validate_vertex_cover(engine.graph, cover)
        assert len(cover) == engine.size
        # A repeat query assembles the same cover.
        assert engine.vertex_cover() == cover


# ---------------------------------------------------------------------------
# Per-call verdicts and the two alternating forests
# ---------------------------------------------------------------------------
# Rare interleavings (a both-matched insert that grows, a matched delete
# closed around an alternating cycle) need more draws than the suites
# above.
PER_CALL_SETTINGS = settings(max_examples=200, deadline=None)

WIDE_THREADS = [f"T{i}" for i in range(7)]
WIDE_OBJECTS = [f"O{i}" for i in range(7)]

wide_scripts = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(WIDE_THREADS),
        st.sampled_from(WIDE_OBJECTS),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=20,
    max_size=60,
)

wide_streams = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(WIDE_THREADS), st.sampled_from(WIDE_OBJECTS)),
        min_size=20,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=14),
)


def _reachable_sides(graph, pairs):
    """From-scratch (threads, objects) reached from free threads."""
    reached = alternating_reachable(graph, Matching(pairs))
    return reached & graph.threads, reached & graph.objects


def _mirror_reachable_sides(graph, pairs):
    """From-scratch (threads, objects) reached from free objects.

    The mirror sweep is the ordinary one on the transposed graph, where
    objects play the threads.
    """
    transposed = BipartiteGraph(edges=[(obj, thread) for thread, obj in graph.edges()])
    reached = alternating_reachable(
        transposed, Matching((obj, thread) for thread, obj in pairs)
    )
    return reached & graph.threads, reached & graph.objects


def _assert_alternating_forest(forest, near_match, near_neighbors):
    """Every stored parent chain is an alternating path to a free root.

    ``forest.far`` maps a reached far-side vertex to the near vertex that
    reached it over a non-matched live edge, and ``forest.near`` lists
    each near vertex's children; a near vertex hangs off its matched
    partner, or is a root when it is free.
    """
    for vertex, parent in forest.far.items():
        assert vertex in forest.near[parent]
    for vertex, children in forest.near.items():
        assert len(set(children)) == len(children)
        assert all(forest.far[child] == vertex for child in children)
        seen = set()
        near = vertex
        while near in near_match:
            assert near not in seen
            seen.add(near)
            mate = near_match[near]
            parent = forest.far[mate]
            assert mate in near_neighbors(parent)
            assert near_match.get(parent) != mate
            near = parent
        assert near in forest.near


def _assert_forests_exact(engine):
    """Each clean forest is valid and spans the from-scratch sweep's set."""
    pairs = list(engine.matching())
    graph = engine.graph
    if engine._z is not None:
        _assert_alternating_forest(
            engine._z, dict(pairs), graph.thread_neighbors
        )
        assert (set(engine._z.near), set(engine._z.far)) == _reachable_sides(
            graph, pairs
        )
    if engine._zo is not None:
        _assert_alternating_forest(
            engine._zo, {obj: thread for thread, obj in pairs}, graph.object_neighbors
        )
        assert (set(engine._zo.far), set(engine._zo.near)) == _mirror_reachable_sides(
            graph, pairs
        )


def _checked_call(engine, is_insert, thread, obj):
    """One mutation, checked against from-scratch Hopcroft-Karp."""
    before = engine.size  # equal to Hopcroft-Karp, checked by the last call
    matching = engine.matching()
    if is_insert:
        grew = engine.add_edge(thread, obj)
        after = len(hopcroft_karp_matching(engine.graph))
        assert grew == (after == before + 1)
        assert after - before in (0, 1)
        if not grew:
            assert engine.matching() == matching
    else:
        shrank = engine.remove_edge(thread, obj)
        after = len(hopcroft_karp_matching(engine.graph))
        assert shrank == (after == before - 1)
        assert before - after in (0, 1)
    assert engine.size == after
    _assert_forests_exact(engine)


@PER_CALL_SETTINGS
@given(wide_scripts)
def test_every_call_reports_the_from_scratch_change_on_interleaved_scripts(script):
    engine = DynamicMatching()
    live = {}
    for step, (is_insert, thread, obj, pick) in enumerate(script):
        if is_insert or not live:
            _checked_call(engine, True, thread, obj)
            live[(thread, obj)] = live.get((thread, obj), 0) + 1
        else:
            edge = sorted(live)[pick % len(live)]
            _checked_call(engine, False, *edge)
            live[edge] -= 1
            if not live[edge]:
                del live[edge]
        if step % 7 == 6:
            # A cover query rebuilds a Z left dirty by a checkpoint load.
            engine.vertex_cover()
        if step % 11 == 10:
            # A load leaves both forests dirty; the calls that follow
            # rebuild each one where they first need it.
            engine = pickle.loads(pickle.dumps(engine))


@PER_CALL_SETTINGS
@given(wide_streams)
def test_every_call_reports_the_from_scratch_change_on_sliding_windows(stream):
    events, window = stream
    engine = DynamicMatching()
    live = deque()
    for step, edge in enumerate(events):
        if len(live) == window:
            _checked_call(engine, False, *live.popleft())
        live.append(edge)
        _checked_call(engine, True, *edge)
        if step % 5 == 4:
            engine.vertex_cover()


def test_certain_augments_flip_the_stored_paths_without_a_search(monkeypatch):
    """A certain insert or a ``t in Z_O`` delete reads its path, no search.

    Both anchored searches raise here; a sliding window still produces
    every kind of growing insert and matched deletes whose freed thread
    was in Z_O, each checked against Hopcroft-Karp.
    """
    import repro.graph.incremental as incremental
    import repro.graph.matching as matching_module

    def no_search(*args, **kwargs):
        raise AssertionError("an augmenting-path search ran")

    monkeypatch.setattr(matching_module, "augment_from_unmatched_thread", no_search)
    monkeypatch.setattr(
        incremental, "augment_from_unmatched_thread", no_search, raising=False
    )
    monkeypatch.setattr(DynamicMatching, "_augment_from_object", no_search, raising=False)
    rng = random.Random(5)
    engine = DynamicMatching()
    live = deque()
    kinds = Counter()
    for _ in range(600):
        if len(live) == 30:
            thread, obj = live.popleft()
            pairs = list(engine.matching())
            if (
                engine.multiplicity(thread, obj) == 1
                and (thread, obj) in pairs
                and thread in _mirror_reachable_sides(engine.graph, pairs)[0]
            ):
                kinds["matched delete, thread in Z_O"] += 1
            engine.remove_edge(thread, obj)
            assert engine.size == len(hopcroft_karp_matching(engine.graph))
        thread, obj = f"T{rng.randrange(15)}", f"O{rng.randrange(15)}"
        pairs = dict(engine.matching())
        kind = (
            "thread " + ("matched" if thread in pairs else "free"),
            "object " + ("matched" if obj in pairs.values() else "free"),
        )
        live.append((thread, obj))
        if engine.add_edge(thread, obj):
            kinds[kind] += 1
        assert engine.size == len(hopcroft_karp_matching(engine.graph))
    _assert_forests_exact(engine)
    assert set(kinds) == {
        ("thread free", "object free"),
        ("thread free", "object matched"),
        ("thread matched", "object free"),
        ("thread matched", "object matched"),
        "matched delete, thread in Z_O",
    }


def test_cover_does_not_depend_on_the_matching_held():
    """Dulmage-Mendelsohn: one live multiset, one König cover.

    Several seeded reveal orders of the same live edge multiset, with
    extra edges inserted and expired in between, leave the engine
    holding different maximum matchings; the cover must not move.
    """
    rng = random.Random(2019)
    threads = [f"T{i}" for i in range(9)]
    objects = [f"O{i}" for i in range(9)]
    kept = [(rng.choice(threads), rng.choice(objects)) for _ in range(40)]
    noise = [(rng.choice(threads), rng.choice(objects)) for _ in range(25)]
    reference = BipartiteGraph(edges=kept)
    expected = konig_vertex_cover(reference, hopcroft_karp_matching(reference))
    covers, matchings = set(), set()
    for seed in range(8):
        order = random.Random(seed)
        inserts = kept + noise
        order.shuffle(inserts)
        steps = [(float(index), True, edge) for index, edge in enumerate(inserts)]
        # Each noise occurrence expires at a random point after its reveal.
        pending = Counter(noise)
        for index, edge in enumerate(inserts):
            if pending[edge]:
                pending[edge] -= 1
                steps.append((order.uniform(index + 0.5, len(inserts)), False, edge))
        engine = DynamicMatching()
        for step, (_, is_insert, edge) in enumerate(sorted(steps)):
            if is_insert:
                engine.add_edge(*edge)
            else:
                engine.remove_edge(*edge)
            if step % 9 == 8:
                engine.vertex_cover()
        assert engine.graph.num_edges == reference.num_edges
        covers.add(engine.vertex_cover())
        matchings.add(frozenset(engine.matching()))
    assert covers == {expected}
    # The orders did reach different maximum matchings.
    assert len(matchings) > 1


class TestDeleteRepairShortcuts:
    """A matched delete must try every repair that can exist."""

    def test_alternating_four_cycle_keeps_its_size(self):
        # Both matched edges plus both cross edges: no vertex is free, so
        # Z and Z_O are clean and empty, yet deleting T0-O0 leaves the
        # cycle's other perfect matching T0-O1, T1-O0.
        engine = DynamicMatching(
            [("T0", "O0"), ("T1", "O1"), ("T0", "O1"), ("T1", "O0")]
        )
        assert dict(engine.matching()) == {"T0": "O0", "T1": "O1"}
        engine.vertex_cover()
        assert not engine._z.near and not engine._zo.near
        assert engine.remove_edge("T0", "O0") is False
        assert engine.size == 2
        assert dict(engine.matching()) == {"T0": "O1", "T1": "O0"}

    def test_star_is_repaired_from_the_object_side(self):
        # T0-O0 matched and T1-O0 not: after the delete T0 has no edge
        # left at all, so only O0's side can find the repair (to T1).
        engine = DynamicMatching([("T0", "O0"), ("T1", "O0")])
        assert dict(engine.matching()) == {"T0": "O0"}
        assert engine.remove_edge("T0", "O0") is False
        assert engine.size == 1
        assert dict(engine.matching()) == {"T1": "O0"}


def test_pickle_round_trip_mid_stream_keeps_later_verdicts():
    rng = random.Random(11)
    events = [
        (f"T{rng.randrange(12)}", f"O{rng.randrange(12)}") for _ in range(400)
    ]
    window = 25
    engine = DynamicMatching()
    live = deque()

    def step(engine, edge, live):
        verdicts = []
        if len(live) == window:
            verdicts.append(engine.remove_edge(*live.popleft()))
        live.append(edge)
        verdicts.append(engine.add_edge(*edge))
        return verdicts, engine.size

    for edge in events[:200]:
        step(engine, edge, live)
    state = pickle.dumps(engine)
    restored = pickle.loads(state)
    # The forests are derived state: they are not written, and come back
    # dirty; the first rebuild after the load equals the sweep.
    assert b"_Forest" not in state
    assert restored._z is None and restored._zo is None
    rebuilt = pickle.loads(state)
    rebuilt._object_forest()
    rebuilt._thread_forest()
    _assert_forests_exact(rebuilt)
    restored_live = deque(live)
    for edge in events[200:]:
        assert step(restored, edge, restored_live) == step(engine, edge, live)
    assert restored.vertex_cover() == engine.vertex_cover()
    _assert_forests_exact(restored)


# ---------------------------------------------------------------------------
# Deletion semantics
# ---------------------------------------------------------------------------
class TestRemoveEdge:
    def test_removing_unmatched_edge_keeps_size(self):
        engine = DynamicMatching([("T0", "O0"), ("T0", "O1"), ("T1", "O0")])
        assert engine.size == 2
        # (T0, O0) cannot be in the matching together with both others;
        # remove whichever edge is unmatched and the size must hold.
        matching = dict(engine.matching())
        unmatched = next(
            (t, o)
            for t, o in [("T0", "O0"), ("T0", "O1"), ("T1", "O0")]
            if matching.get(t) != o
        )
        assert engine.remove_edge(*unmatched) is False
        assert engine.size == 2

    def test_removing_matched_edge_reaugments_when_possible(self):
        # On the 2x2 complete graph every thread has an alternative
        # partner, so deleting any matched edge must re-augment along the
        # 3-hop alternating path and keep the size at 2.
        engine = DynamicMatching(
            [("T0", "O0"), ("T0", "O1"), ("T1", "O0"), ("T1", "O1")]
        )
        thread, matched_obj = next(iter(engine.matching()))
        assert engine.remove_edge(thread, matched_obj) is False
        assert engine.size == 2

    def test_removing_only_edge_shrinks(self):
        engine = DynamicMatching([("T0", "O0")])
        assert engine.remove_edge("T0", "O0") is True
        assert engine.size == 0
        assert engine.graph.num_edges == 0

    def test_multiplicity_keeps_edge_alive(self):
        engine = DynamicMatching([("T0", "O0"), ("T0", "O0")])
        assert engine.multiplicity("T0", "O0") == 2
        assert engine.remove_edge("T0", "O0") is False
        assert engine.size == 1
        assert engine.graph.has_edge("T0", "O0")
        assert engine.remove_edge("T0", "O0") is True
        assert engine.size == 0

    def test_removing_non_live_edge_raises(self):
        engine = DynamicMatching([("T0", "O0")])
        with pytest.raises(GraphError):
            engine.remove_edge("T0", "O1")
        engine.remove_edge("T0", "O0")
        with pytest.raises(GraphError):
            engine.remove_edge("T0", "O0")

    def test_trajectory_records_removals(self):
        engine = DynamicMatching()
        sizes = []
        for call, edge in (
            (engine.add_edge, ("T0", "O0")),
            (engine.add_edge, ("T1", "O1")),
            (engine.remove_edge, ("T0", "O0")),
        ):
            call(*edge)
            sizes.append(engine.size)
        assert sizes == [1, 2, 1]

    def test_isolated_endpoints_are_pruned_on_removal(self):
        # Memory on unbounded streams must track the live graph, not the
        # total vertex history: fully expired vertices leave the graph.
        engine = DynamicMatching([("T0", "O0"), ("T0", "O1")])
        engine.remove_edge("T0", "O1")
        assert not engine.graph.has_object("O1")
        assert engine.graph.has_thread("T0")
        engine.remove_edge("T0", "O0")
        assert engine.graph.num_vertices == 0

    def test_memory_stays_bounded_on_fresh_vertex_stream(self):
        # A window of 2 over a stream of always-fresh vertex ids: at most
        # 2 edges (4 vertices) may ever be live at once.
        engine = DynamicMatching()
        live = deque()
        for i in range(500):
            if len(live) == 2:
                engine.remove_edge(*live.popleft())
            edge = (f"T{i}", f"O{i}")
            live.append(edge)
            engine.add_edge(*edge)
            assert engine.graph.num_vertices <= 4


# ---------------------------------------------------------------------------
# Chain regression (satellite: iterative-search guard at 10k vertices)
# ---------------------------------------------------------------------------
def test_chain_10k_vertices_survives_deletion_reaugmentation():
    # A perfect-matching chain forces O(V)-hop alternating paths.  After
    # deleting a matched edge near one end, the repair search sweeps the
    # whole chain; a recursive implementation would blow the interpreter
    # stack long before 10k vertices.
    graph = chain_bipartite(10_000)
    edges = list(graph.edges())
    random.Random(7).shuffle(edges)
    engine = DynamicMatching(edges)
    assert engine.size == 5_000
    # Delete a handful of matched edges spread across the chain; each
    # deletion either re-augments over a long path or certifiably shrinks
    # the optimum by one.
    removed = 0
    for thread, obj in list(engine.matching())[:5]:
        engine.remove_edge(thread, obj)
        removed += 1
    reference = hopcroft_karp_matching(engine.graph)
    assert engine.size == len(reference)
    assert is_maximum_matching(engine.graph, engine.matching())


# ---------------------------------------------------------------------------
# Sliding-window trajectory (acceptance criterion property test)
# ---------------------------------------------------------------------------
@SETTINGS
@given(pair_streams, st.integers(min_value=1, max_value=12))
def test_sliding_window_trajectory_matches_from_scratch(events, window):
    trajectory = sliding_window_optimum_trajectory(iter(events), window)
    assert len(trajectory) == len(events)
    for index in range(len(events)):
        live = events[max(0, index - window + 1): index + 1]
        reference = BipartiteGraph(edges=live)
        assert trajectory[index] == len(minimum_vertex_cover(reference))


def test_sliding_window_consumes_stream_lazily():
    def stream():
        yield ("T0", "O0")
        yield ("T1", "O1")
        yield ("T0", "O1")

    # After the third event the window holds {(T1,O1), (T0,O1)}: both
    # edges share O1, so the optimum drops back to 1.
    assert sliding_window_optimum_trajectory(stream(), window=2) == (1, 2, 1)


def test_sliding_window_rejects_bad_window():
    with pytest.raises(GraphError):
        sliding_window_optimum_trajectory([("T0", "O0")], window=0)


def test_sliding_window_optimum_can_shrink():
    # Three disjoint edges through a window of 2: the optimum rises to 2
    # and stays there, but the *components* rotate; with a window of 1 the
    # optimum must drop back to 1 after every event.
    events = [("T0", "O0"), ("T1", "O1"), ("T2", "O2")]
    assert sliding_window_optimum_trajectory(events, window=1) == (1, 1, 1)
    assert sliding_window_optimum_trajectory(events, window=3) == (1, 2, 3)
