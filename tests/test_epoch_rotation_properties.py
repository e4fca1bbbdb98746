"""Property tests for the incremental epoch-rotation paths.

Five families of randomized evidence back the delta-rotation and
cover-repair fast paths:

* **delta == replay** - on arbitrary churn streams the ``"delta"``
  rotation strategy issues the same tokens and answers every causality
  query identically to the ``"replay"`` strategy (and to the
  ``check_invariant=True`` oracle, which replays *and* proves the
  re-timestamping invariant before committing).  Stamp values may
  differ (stamps kept as minted and lifted on read vs replayed ones) -
  their *verdicts* may not.
* **interrupt/resume** - pickling a delta-rotating driver mid-stream
  (while live stamps are still in the layouts they were minted in) and
  resuming from the pickle changes nothing: the resumed run issues the
  same tokens and verdicts as the uninterrupted replay baseline.
* **array-minted stamps** - a numpy clock stamping whole batches keeps
  tokens and live-pair verdicts equal to the invariant-checking python
  oracle through extensions, partial pure retirements and a pickle
  round-trip.
* **join-order slots** - a component retires and re-joins on a fresh
  slot, compaction is forced at every retirement and the clock or
  driver is pickled mid-stream, on the list and the array batch loops;
  every live-pair verdict equals the ``"replay"`` strategy's and the
  happened-before poset of the live window.
* **repaired covers == from-scratch covers** - under random interleaved
  add/remove churn (duplicate edges and multiplicity deletion included),
  the persistent :class:`DynamicMatching`'s incrementally repaired
  König cover is *set-equal* to the from-scratch König construction on
  the same graph and matching, and stays a minimum cover.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.kernel as kernel_module
from repro.computation.poset import HappenedBefore
from repro.computation.trace import Computation
from repro.core.components import ClockComponents
from repro.core.kernel import numpy_available
from repro.core.timestamping import EpochClock
from repro.graph.incremental import DynamicMatching
from repro.graph.matching import maximum_matching
from repro.graph.vertex_cover import konig_vertex_cover, validate_vertex_cover
from repro.obs.registry import MetricsRegistry, install as obs_install
from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

SETTINGS = settings(max_examples=25, deadline=None)

#: Small ID spaces with a short window: expiries quickly kill endpoints,
#: so retirement-triggered (pure-subset, delta-eligible) rotations fire
#: on nearly every generated stream.
THREADS = ["T0", "T1", "T2", "T3", "T4", "T5"]
OBJECTS = ["O0", "O1", "O2", "O3", "O4", "O5"]

churn_streams = st.lists(
    st.tuples(st.sampled_from(THREADS), st.sampled_from(OBJECTS)),
    min_size=4,
    max_size=60,
)

windows = st.integers(min_value=2, max_value=8)


def clock_on(backend, **options):
    """An ``EpochClock`` whose kernel runs ``backend``'s batch loop."""
    clock = EpochClock(**options)
    clock._kernel.set_backend(backend)
    return clock


def drive(pairs, window, rotation, backend=None, pickle_at=None):
    """Run one lifecycle driver over a sliding-window churn stream.

    Returns ``(event tokens, verdict trace)`` where the verdict trace
    snapshots, after every event, the relation of each live-token pair -
    the full causality surface a monitor could query at that point.
    ``pickle_at`` round-trips the driver through ``pickle`` after that
    many events, which is exactly what an engine checkpoint does to a
    kernel holding stamps of older layouts.  ``backend`` pins the
    backend the driver's clock resolves by default (the driver takes no
    backend argument).
    """
    with pytest.MonkeyPatch.context() as patch:
        if backend is not None:
            patch.setattr(kernel_module, "default_backend_name", lambda: backend)
        driver = LifecycleClockDriver(
            WindowedPopularityMechanism(), rotation=rotation
        )
        live = []
        tokens = []
        verdicts = []
        for step, pair in enumerate(pairs):
            if pickle_at is not None and step == pickle_at:
                driver = pickle.loads(pickle.dumps(driver))
            tokens.append(driver.observe(*pair))
            live.append(pair)
            if len(live) > window:
                driver.expire(*live.pop(0))
            alive = driver.live_tokens()
            verdicts.append(
                tuple(
                    driver.relation(a, b)
                    for i, a in enumerate(alive)
                    for b in alive[i + 1 :]
                )
            )
        return tokens, verdicts


@SETTINGS
@given(churn_streams, windows)
def test_delta_rotation_matches_replay_and_oracle(pairs, window):
    delta = drive(pairs, window, "delta")
    replay = drive(pairs, window, "replay")
    assert delta == replay
    # The invariant-checking oracle replays and verifies every rotation.
    oracle = LifecycleClockDriver(
        WindowedPopularityMechanism(), check_invariant=True
    )
    live = []
    for step, pair in enumerate(pairs):
        assert oracle.observe(*pair) == delta[0][step]
        live.append(pair)
        if len(live) > window:
            oracle.expire(*live.pop(0))


@requires_numpy
@SETTINGS
@given(churn_streams, windows)
def test_delta_rotation_is_backend_invariant(pairs, window):
    reference = drive(pairs, window, "replay", backend="python")
    assert drive(pairs, window, "delta", backend="python") == reference
    assert drive(pairs, window, "delta", backend="numpy") == reference
    assert drive(pairs, window, "replay", backend="numpy") == reference


@SETTINGS
@given(churn_streams, windows, st.data())
def test_delta_rotation_survives_interrupt_resume(pairs, window, data):
    """Pickling mid-stream (chains unmaterialised) changes no verdict."""
    pickle_at = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="pickle_at"
    )
    reference = drive(pairs, window, "replay")
    assert drive(pairs, window, "delta", pickle_at=pickle_at) == reference


#: Clock operations over array-minted stamps: batches long enough for
#: the numpy backend's array loop, single-component extensions, pure
#: retirements (the mask picks which dead components go) and a pickle
#: round-trip of the numpy clock.  The ID space is wide against the
#: window, so most batches leave dead components to retire.
WIDE_THREADS = [f"T{i}" for i in range(16)]
WIDE_OBJECTS = [f"O{i}" for i in range(16)]
batch_pairs = st.lists(
    st.tuples(st.sampled_from(WIDE_THREADS), st.sampled_from(WIDE_OBJECTS)),
    min_size=16,
    max_size=32,
)
clock_ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), batch_pairs),
        st.tuples(st.just("extend"), st.sampled_from(WIDE_THREADS + WIDE_OBJECTS)),
        st.tuples(st.just("rotate"), st.integers(min_value=1, max_value=255)),
        st.tuples(st.just("pickle"), st.none()),
    ),
    min_size=1,
    max_size=10,
)


def _pure_retirement(components, live, mask):
    """``components`` minus the dead ones ``mask`` selects (or ``None``)."""
    endpoints = {vertex for pair in live for vertex in pair}
    dead = [c for c in components.ordered if c not in endpoints]
    retire = {c for i, c in enumerate(dead) if mask >> (i % 8) & 1}
    if not retire:
        return None
    return ClockComponents(
        [c for c in components.ordered
         if c in components.thread_components and c not in retire],
        [c for c in components.ordered
         if c in components.object_components and c not in retire],
    )


@requires_numpy
@SETTINGS
@given(clock_ops, st.integers(min_value=2, max_value=12))
def test_numpy_batches_survive_extend_rotate_and_pickle(ops, window):
    """Array-minted stamps through extension, delta rotation and pickling.

    A numpy ``EpochClock`` stamps whole batches (lazy stamps over arrays),
    then extends, rotates by pure retirement and round-trips through
    ``pickle`` over those stamps.  Tokens and every live-pair verdict
    must equal a ``check_invariant=True`` python clock (replay plus the
    re-timestamping proof) fed the same operations.
    """
    registry = MetricsRegistry(origin="test-numpy-lifecycle")
    previous = obs_install(registry)
    try:
        with pytest.MonkeyPatch.context() as patch:
            # Small clocks would otherwise keep every batch on the list form.
            patch.setattr(kernel_module, "MIN_ARRAY_DIM_MINT", 0)
            fast = clock_on("numpy")
            oracle = clock_on("python", check_invariant=True)
            live = []
            for op, arg in ops:
                if op == "batch":
                    covered = fast.components
                    missing = tuple(dict.fromkeys(
                        thread for thread, obj in arg
                        if not covered.covers_pair(thread, obj)
                    ))
                    for clock in (fast, oracle):
                        clock.extend(thread_components=missing)
                    tokens = fast.observe_batch(arg)
                    assert oracle.observe_batch(arg) == tokens
                    live.extend(arg)
                    while len(live) > window:
                        pair = live.pop(0)
                        assert fast.expire(*pair) == oracle.expire(*pair)
                elif op == "extend":
                    side = "thread_components" if arg in WIDE_THREADS else "object_components"
                    for clock in (fast, oracle):
                        clock.extend(**{side: (arg,)})
                elif op == "rotate":
                    new = _pure_retirement(fast.components, live, arg)
                    if new is not None:
                        assert fast.rotate(new) == oracle.rotate(new)
                else:
                    fast = pickle.loads(pickle.dumps(fast))
                alive = fast.live_tokens()
                assert alive == oracle.live_tokens()
                pairs = [
                    (a, b) for i, a in enumerate(alive) for b in alive[i + 1:]
                ]
                assert [fast.relation(a, b) for a, b in pairs] == [
                    oracle.relation(a, b) for a, b in pairs
                ]
    finally:
        obs_install(previous)
    if any(op == "batch" for op, _ in ops):
        assert dict(registry.counters()).get("kernel.batch.array_batches", 0) > 0


def live_window_verdicts(live):
    """Every pair's verdict on the live window, oldest pair first.

    With a FIFO window every happened-before chain between two live
    events runs through live events only, so the poset of the live
    pairs alone is the oracle.
    """
    computation = Computation.from_pairs(live)
    oracle = HappenedBefore(computation)
    events = computation.events
    return tuple(
        "before" if oracle.happened_before(events[i], events[j]) else "concurrent"
        for i in range(len(events))
        for j in range(i + 1, len(events))
    )


@SETTINGS
@given(churn_streams, windows, st.data())
def test_compacting_driver_survives_resume(pairs, window, data):
    """Join-order slots under churn: compaction at every retirement and a
    pickle mid-stream, checked against replay and the live-window poset.

    The small ID space makes retired components re-join often, each on a
    fresh slot.
    """
    pickle_at = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="pickle_at"
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "COMPACTION_RATIO", 0)
        delta = drive(pairs, window, "delta", pickle_at=pickle_at)
    assert delta == drive(pairs, window, "replay")
    assert delta[1] == [
        live_window_verdicts(pairs[max(0, step + 1 - window):step + 1])
        for step in range(len(pairs))
    ]


#: Rounds of slot-layout operations on an EpochClock fed in batches:
#: an insert run, a pure retirement of dead components (the mask picks
#: which), a re-join of a retired component and, maybe, a pickle
#: round-trip.
SLOT_THREADS = [f"T{i}" for i in range(8)]
SLOT_OBJECTS = [f"O{i}" for i in range(8)]
slot_rounds = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(SLOT_THREADS), st.sampled_from(SLOT_OBJECTS)),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
    ),
    min_size=2,
    max_size=8,
)


def _check_live_verdicts(clock, replay, live):
    alive = clock.live_tokens()
    assert alive == replay.live_tokens()
    pairs = [(a, b) for i, a in enumerate(alive) for b in alive[i + 1:]]
    verdicts = tuple(clock.relation(a, b) for a, b in pairs)
    assert verdicts == tuple(replay.relation(a, b) for a, b in pairs)
    assert verdicts == live_window_verdicts(live)


@pytest.mark.parametrize("loop", ["lists", "arrays"])
@SETTINGS
@given(rounds=slot_rounds, window=st.integers(min_value=2, max_value=10))
def test_retire_rejoin_and_compaction_keep_verdicts(loop, rounds, window):
    """Retire, re-join on a fresh slot, compact and pickle over batches.

    Both batch loops run (the array one with its gates forced open);
    compaction runs at every retirement.  Tokens and every live-pair
    verdict equal a ``"replay"`` clock and the live-window poset after
    each operation.
    """
    if loop == "arrays" and not numpy_available():
        pytest.skip("numpy backend not installed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "COMPACTION_RATIO", 0)
        if loop == "arrays":
            patch.setattr(kernel_module, "MIN_ARRAY_BATCH", 1)
            patch.setattr(kernel_module, "MIN_ARRAY_DIM_MINT", 0)
        clock = clock_on("numpy" if loop == "arrays" else "python")
        replay = clock_on("python", rotation="replay")
        live, retired = [], []
        for batch, mask, rejoin, resume in rounds:
            covered = clock.components
            missing = tuple(dict.fromkeys(
                thread for thread, obj in batch if not covered.covers_pair(thread, obj)
            ))
            for each in (clock, replay):
                each.extend(thread_components=missing)
            assert clock.observe_batch(batch) == replay.observe_batch(batch)
            live.extend(batch)
            while len(live) > window:
                pair = live.pop(0)
                assert clock.expire(*pair) == replay.expire(*pair)
            _check_live_verdicts(clock, replay, live)
            endpoints = {vertex for pair in live for vertex in pair}
            dead = [c for c in clock.components.ordered if c not in endpoints]
            gone = [c for i, c in enumerate(dead) if mask >> (i % 8) & 1]
            if gone:
                assert clock.rotate(retired=gone) == replay.rotate(retired=gone)
                retired.extend(gone)
                _check_live_verdicts(clock, replay, live)
            if retired and retired[rejoin % len(retired)] not in clock.components:
                component = retired[rejoin % len(retired)]
                for each in (clock, replay):
                    each.extend(thread_components=(component,))
            if resume:
                clock = pickle.loads(pickle.dumps(clock))


def test_delta_rotation_keeps_clock_of_dead_surviving_component():
    """A component with no live event keeps counting across a rotation.

    T1 survives the rotation but none of its events is live.  Its slot
    still holds T1's pre-rotation count inside O0's clock, so T1's next
    event must continue from that count, not restart at one (which made
    it look older than the live event on O0).
    """
    clock = EpochClock(ClockComponents(["T0", "T1", "T2"]))
    clock.observe("T1", "O0")
    seen = clock.observe("T0", "O0")
    clock.expire("T1", "O0")
    clock.rotate(ClockComponents(["T0", "T1"]))
    fresh = clock.observe("T1", "O1")
    assert clock.relation(seen, fresh) == "concurrent"


matching_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(THREADS),
        st.sampled_from(OBJECTS),
    ),
    min_size=1,
    max_size=80,
)


@SETTINGS
@given(matching_ops)
def test_repaired_cover_equals_from_scratch_cover(ops):
    """Incremental König repair == from-scratch construction, every step.

    The from-scratch oracle runs Algorithm 1's reachability sweep on the
    *same* graph and matching the persistent structure maintains, so the
    comparison is exact set equality, not just size equality; a second
    oracle (a fresh Hopcroft-Karp matching) pins minimality.
    """
    live = DynamicMatching()
    for op, thread, obj in ops:
        if op == "add":
            live.add_edge(thread, obj)
        elif live.multiplicity(thread, obj):
            live.remove_edge(thread, obj)
        else:
            continue
        cover = live.vertex_cover()
        graph = live.graph
        assert cover == konig_vertex_cover(graph, live.matching())
        validate_vertex_cover(graph, cover)
        assert len(cover) == len(maximum_matching(graph))


def test_cover_repair_is_incremental_after_churn():
    """The steady-state cover path repairs instead of rebuilding.

    Deterministic companion to the property test: after warm-up, edge
    churn that stays away from the matching structure must be answered
    by the incremental reachability repair (cheap) rather than the full
    from-scratch sweep - the behaviour the rotation benchmark's >=5x
    boundary-pause assertion leans on.
    """
    from repro.obs.registry import MetricsRegistry, install as obs_install

    live = DynamicMatching()
    for index in range(6):
        live.add_edge(f"T{index}", f"O{index}")
    live.vertex_cover()
    registry = MetricsRegistry(origin="test-cover-repair")
    previous = obs_install(registry)
    try:
        for index in range(6):
            live.add_edge(f"T{index}", f"O{(index + 1) % 6}")
            live.vertex_cover()
    finally:
        obs_install(previous)
    counters = dict(registry.counters())
    assert counters.get("matching.cover.repairs", 0) > 0
    assert counters.get("matching.cover.rebuilds", 0) == 0
