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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.computation.registry import REGISTRY, STREAM
from repro.computation.streams import EXPIRE, StreamEvent, as_stream_event, sliding_window
from repro.exceptions import ComputationError
from repro.graph.incremental import DynamicMatching
from repro.online import OFFLINE_LABEL, OnlineRunResult, compare_mechanisms_on_stream
from repro.online import seed_mechanism_factories

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
