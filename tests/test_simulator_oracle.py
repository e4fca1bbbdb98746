"""The one-pass simulator against a per-event loop that shares none of it.

The sharded engine and :func:`~repro.online.simulator.compare_mechanisms_on_stream`
drive the same :class:`~repro.online.simulator.StreamConsumer`, so their
agreement cannot catch a bug in it.  :func:`_per_event_reference` is a
test-local oracle built from the primitives alone: the stream is windowed
by :func:`~repro.computation.streams.sliding_window`, then every event
reaches every mechanism's ``observe`` / ``expire`` / ``end_epoch`` one at
a time, the optimum is a plain :class:`~repro.graph.incremental.DynamicMatching`,
and a counter epoch follows every ``epoch``-th insert.
"""

from __future__ import annotations

from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.computation.registry import REGISTRY, STREAM
from repro.computation.streams import (
    EXPIRE,
    INSERT,
    StreamEvent,
    as_stream_event,
    sliding_window,
)
from repro.exceptions import ComputationError
from repro.graph.incremental import DynamicMatching
from repro.online import OFFLINE_LABEL, OnlineRunResult, compare_mechanisms_on_stream
from repro.online import seed_mechanism_factories
from repro.online.simulator import StreamConsumer

MECHANISM_SETS = (
    ("naive", "popularity", "hybrid"),
    ("popularity", "adaptive-popularity", "epoch-hybrid"),
    ("random", "adaptive-popularity-cost", "adaptive-popularity-windowed"),
)


def _per_event_reference(events, factories, window: Optional[int], epoch: Optional[int]):
    if window is not None:
        events = sliding_window(events, window)
    mechanisms = {label: factory() for label, factory in factories.items()}
    trajectories: Dict[str, List[int]] = {label: [] for label in mechanisms}
    optimum = DynamicMatching()
    offline: List[int] = []
    inserts = expires = epochs = 0

    def tick() -> None:
        nonlocal epochs
        epochs += 1
        for mechanism in mechanisms.values():
            mechanism.end_epoch()

    for item in events:
        event = as_stream_event(item)
        if event.is_insert:
            for label, mechanism in mechanisms.items():
                mechanism.observe(event.thread, event.obj)
                trajectories[label].append(mechanism.clock_size)
            optimum.add_edge(event.thread, event.obj)
            offline.append(optimum.size)
            inserts += 1
            if epoch is not None and inserts % epoch == 0:
                tick()
        elif event.is_epoch:
            tick()
        else:
            expires += 1
            for mechanism in mechanisms.values():
                mechanism.expire(event.thread, event.obj)
            optimum.remove_edge(event.thread, event.obj)
    results = {
        label: OnlineRunResult(
            mechanism_name=mechanism.name,
            final_size=mechanism.clock_size,
            size_trajectory=tuple(trajectories[label]),
            thread_components=len(mechanism.thread_components),
            object_components=len(mechanism.object_components),
            events_revealed=mechanism.events_seen,
            expires_seen=mechanism.expires_seen,
            epochs=mechanism.epoch,
            retired_components=mechanism.retired_total,
            peak_size=mechanism.peak_size,
        )
        for label, mechanism in mechanisms.items()
    }
    results[OFFLINE_LABEL] = OnlineRunResult(
        mechanism_name="offline-optimal",
        final_size=offline[-1] if offline else 0,
        size_trajectory=tuple(offline),
        thread_components=-1,
        object_components=-1,
        events_revealed=inserts,
        expires_seen=expires,
        epochs=epochs,
    )
    return results


@settings(max_examples=80, deadline=None)
@given(
    scenario=st.sampled_from([scenario.name for scenario in REGISTRY.scenarios(STREAM)]),
    labels=st.sampled_from(MECHANISM_SETS),
    seed=st.integers(min_value=0, max_value=2**32),
    num_events=st.integers(min_value=0, max_value=220),
    size=st.integers(min_value=2, max_value=14),
    density=st.floats(min_value=0.05, max_value=0.6),
    window=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    epoch=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)
def test_simulator_matches_per_event_loop(
    scenario, labels, seed, num_events, size, density, window, epoch
):
    registered = REGISTRY.get(scenario, kind=STREAM)
    if registered.expires:
        window = None

    def run(driver):
        stream = registered.build(size, size, density, num_events, seed=seed)
        factories = seed_mechanism_factories(
            {label: EXTENDED_MECHANISMS[label] for label in labels}, seed
        )
        return driver(stream, factories, window, epoch)

    expected = run(_per_event_reference)
    actual = run(
        lambda stream, factories, window, epoch: compare_mechanisms_on_stream(
            stream, factories, window=window, epoch=epoch
        )
    )
    assert actual == expected


#: Insert-only scenarios: the ones an imposed window applies to.
WINDOWED_SCENARIOS = [
    scenario.name for scenario in REGISTRY.scenarios(STREAM) if not scenario.expires
]


@st.composite
def windowed_runs(draw):
    """A stream, a run length and a window that fills inside some run.

    ``chunk`` replaces ``MAX_BATCH_EVENTS``, so a window of 1, one below
    or above the run length, or one the stream never fills all occur.
    """
    num_events = draw(st.integers(min_value=0, max_value=160))
    chunk = draw(st.integers(min_value=1, max_value=48))
    window = draw(
        st.one_of(
            st.just(1),
            st.integers(min_value=1, max_value=chunk),
            st.integers(min_value=chunk + 1, max_value=3 * chunk + 1),
            st.integers(min_value=num_events + 1, max_value=num_events + 40),
        )
    )
    return dict(
        scenario=draw(st.sampled_from(WINDOWED_SCENARIOS)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        num_events=num_events,
        size=draw(st.integers(min_value=2, max_value=14)),
        density=draw(st.floats(min_value=0.05, max_value=0.6)),
        chunk=chunk,
        window=window,
        epoch=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=50))),
    )


def _build_stream(case):
    return REGISTRY.get(case["scenario"], kind=STREAM).build(
        case["size"], case["size"], case["density"], case["num_events"],
        seed=case["seed"],
    )


def _capturing(labels, seed):
    """Seeded factories for ``labels`` that keep each mechanism they make."""
    made = {}
    factories = {
        label: (lambda label=label, factory=factory: made.setdefault(label, factory()))
        for label, factory in seed_mechanism_factories(
            {label: EXTENDED_MECHANISMS[label] for label in labels}, seed
        ).items()
    }
    return factories, made


@settings(max_examples=150, deadline=None)
@given(case=windowed_runs())
def test_windowed_runs_match_per_event_loop(case):
    # Runs cut at ``chunk`` inserts straddle the window's fill point:
    # each run's own inserts expire pairs inside it, for every mechanism
    # set (counter-only and expire-hooked alike).
    for labels in MECHANISM_SETS:
        expected_factories, expected_made = _capturing(labels, case["seed"])
        expected = _per_event_reference(
            _build_stream(case), expected_factories, case["window"], case["epoch"]
        )
        actual_factories, actual_made = _capturing(labels, case["seed"])
        with mock.patch("repro.online.simulator.MAX_BATCH_EVENTS", case["chunk"]):
            actual = compare_mechanisms_on_stream(
                _build_stream(case), actual_factories,
                window=case["window"], epoch=case["epoch"],
            )
        assert actual == expected
        for label in labels:
            assert actual_made[label].decisions == expected_made[label].decisions
            assert (
                actual_made[label]._component_order
                == expected_made[label]._component_order
            )


@settings(max_examples=150, deadline=None)
@given(case=windowed_runs())
def test_consume_matches_single_insert_runs(case):
    # One consumer takes whole runs through consume(); the other takes
    # each insert as its own insert_run([pair]).  After every run of the
    # first, both hold the same live window and the same optimum, and
    # both reported the same sizes after every insert.
    labels = MECHANISM_SETS[1]

    def consumer():
        factories = seed_mechanism_factories(
            {label: EXTENDED_MECHANISMS[label] for label in labels}, case["seed"]
        )
        return StreamConsumer(
            {label: factory() for label, factory in factories.items()},
            window=case["window"], epoch=case["epoch"],
        )

    def recorder(consumer, states, sizes):
        def record(run_sizes, offline):
            states[consumer.inserts] = (tuple(consumer.live_window), consumer.optimum.size)
            for label, label_sizes in run_sizes.items():
                sizes.setdefault(label, []).extend(label_sizes)
            sizes.setdefault(OFFLINE_LABEL, []).extend(offline)
        return record

    batched = consumer()
    after_run, batched_sizes = {}, {}
    with mock.patch("repro.online.simulator.MAX_BATCH_EVENTS", case["chunk"]):
        batched.consume(_build_stream(case), recorder(batched, after_run, batched_sizes))
    single = consumer()
    after_insert, single_sizes = {}, {}
    record = recorder(single, after_insert, single_sizes)
    for item in _build_stream(case):
        event = as_stream_event(item)
        if event.kind == INSERT:
            record(*single.insert_run([(event.thread, event.obj)]))
        else:
            single.end_epoch()
    for inserts, state in after_run.items():
        assert state == after_insert[inserts]
    assert batched_sizes == single_sizes
    assert (batched.inserts, batched.expires, batched.epochs) == (
        single.inserts, single.expires, single.epochs,
    )


NAIVE = {"naive": lambda: EXTENDED_MECHANISMS["naive"](0)}


@pytest.mark.parametrize("option", ["window", "epoch"])
@pytest.mark.parametrize("value", [0, -3])
def test_non_positive_window_or_epoch_rejected(option, value):
    with pytest.raises(ComputationError, match=f"{option} must be >= 1"):
        compare_mechanisms_on_stream([("T0", "O0")], NAIVE, **{option: value})


def test_expire_event_under_imposed_window_rejected():
    stream = [StreamEvent("T0", "O0"), StreamEvent("T0", "O0", EXPIRE)]
    with pytest.raises(ComputationError, match="insert-only"):
        compare_mechanisms_on_stream(stream, NAIVE, window=2)
