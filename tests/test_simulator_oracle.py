"""The one-pass simulator against a per-event loop that shares none of it.

The sharded engine and :func:`~repro.online.simulator.compare_mechanisms_on_stream`
drive the same :class:`~repro.online.simulator.StreamConsumer` through the
same router (:meth:`~repro.engine.sharding.StreamSharder.split_runs_group`),
so their agreement cannot catch a bug in either.
:func:`_per_event_reference` is a test-local oracle built from the
primitives alone: the stream is windowed
by :func:`~repro.computation.streams.sliding_window`, then every event
reaches every mechanism's ``observe`` / ``expire`` / ``end_epoch`` one at
a time, the optimum is a plain :class:`~repro.graph.incremental.DynamicMatching`,
and a counter epoch follows every ``epoch``-th insert.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.computation.registry import REGISTRY, STREAM
from repro.computation.streams import (
    EPOCH,
    EXPIRE,
    INSERT,
    MAX_BATCH_EVENTS,
    StreamEvent,
    as_stream_event,
    sliding_window,
    epoch_marker,
    thread_churn_stream,
)
from repro.engine import EngineConfig, StreamSharder, run_engine
from repro.exceptions import ComputationError
from repro.graph.incremental import DynamicMatching
from repro.online import OFFLINE_LABEL, OnlineRunResult, compare_mechanisms_on_stream
from repro.online import seed_mechanism_factories
from repro.online.simulator import StreamConsumer
from repro.seeds import derive_seed, stable_hash

MECHANISM_SETS = (
    ("naive", "popularity", "hybrid"),
    ("popularity", "adaptive-popularity", "epoch-hybrid"),
    ("random", "adaptive-popularity-cost", "adaptive-popularity-windowed"),
)


def _per_event_reference(
    events, factories, window: Optional[int], epoch: Optional[int],
    optimum: Optional[DynamicMatching] = None,
):
    """Results as one call per event would give them; ``optimum`` is
    the matching to drive (a fresh one by default), left as the whole
    stream leaves it."""
    if window is not None:
        events = sliding_window(events, window)
    mechanisms = {label: factory() for label, factory in factories.items()}
    trajectories: Dict[str, List[int]] = {label: [] for label in mechanisms}
    if optimum is None:
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
def test_router_runs_match_single_insert_runs(case):
    # One consumer takes whole runs from the router, cut at ``chunk``;
    # the other takes each insert as its own insert_run([pair]).  After
    # every run of the first, both hold the same live window and the
    # same optimum, and both reported the same sizes after every insert.
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
    record = recorder(batched, after_run, batched_sizes)
    for _, _, item in StreamSharder(1).split_runs_group(
        _build_stream(case), (0,), {0: lambda: batched.run_cap(case["chunk"])},
        expire_cap=case["chunk"],
    ):
        if type(item) is list:
            record(*batched.insert_run(item))
        elif item is not None:
            batched.end_epoch()
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


# ---------------------------------------------------------------------------
# Expire runs: a departing thread's expiries delivered as one run
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _recording_consumers(module: str):
    """Patch ``module``'s ``StreamConsumer`` to keep every instance made."""
    made: List[StreamConsumer] = []

    class Recording(StreamConsumer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch(f"{module}.StreamConsumer", Recording):
        yield made


def _churn(case):
    """A thread-churn scenario factory at ``case``'s churn rate.

    With ``case["markers"]`` set, an epoch marker follows every that
    many events: counting events rather than inserts (as
    ``with_epochs`` does) lets a marker land inside a departure's
    expiries.
    """

    def build(*args, **kwargs):
        events = thread_churn_stream(*args, churn_probability=case["churn"], **kwargs)
        for index, event in enumerate(events, 1):
            yield event
            if case["markers"] is not None and index % case["markers"] == 0:
                yield epoch_marker()

    return build


@st.composite
def churn_runs(draw):
    """A thread-churn stream, a run length and optional epochs of both kinds."""
    return dict(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        num_events=draw(st.integers(min_value=0, max_value=200)),
        size=draw(st.integers(min_value=2, max_value=10)),
        density=draw(st.floats(min_value=0.1, max_value=0.8)),
        churn=draw(st.floats(min_value=0.05, max_value=0.6)),
        chunk=draw(st.integers(min_value=1, max_value=8)),
        epoch=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40))),
        markers=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40))),
    )


@settings(max_examples=100, deadline=None)
@given(case=churn_runs())
def test_expire_runs_match_per_event_loop(case):
    # Departures expire several pairs back to back; runs of them are cut
    # at ``chunk`` pairs, at inserts and at epoch markers.  Hooked
    # mechanisms must see every expire in order, the others the count.
    def stream():
        return _churn(case)(
            case["size"], case["size"], case["density"], case["num_events"],
            seed=case["seed"],
        )

    for labels in MECHANISM_SETS:
        expected_factories, expected_made = _capturing(labels, case["seed"])
        optimum = DynamicMatching()
        expected = _per_event_reference(
            stream(), expected_factories, None, case["epoch"], optimum
        )
        actual_factories, actual_made = _capturing(labels, case["seed"])
        with mock.patch("repro.online.simulator.MAX_BATCH_EVENTS", case["chunk"]), \
                _recording_consumers("repro.online.simulator") as consumers:
            actual = compare_mechanisms_on_stream(
                stream(), actual_factories, epoch=case["epoch"]
            )
        assert actual == expected
        (consumer,) = consumers
        assert consumer.optimum.size == optimum.size
        for label in labels:
            assert actual_made[label].expires_seen == expected_made[label].expires_seen
            assert actual_made[label].decisions == expected_made[label].decisions
            assert (
                actual_made[label]._component_order
                == expected_made[label]._component_order
            )


def _shard_streams(events, num_shards: int):
    """Each hash shard's sub-stream: its threads' events, every marker."""
    shards: List[list] = [[] for _ in range(num_shards)]
    for item in events:
        event = as_stream_event(item)
        if event.kind == EPOCH:
            for shard in shards:
                shard.append(event)
        else:
            shards[stable_hash(event.thread) % num_shards].append(event)
    return shards


def _assert_engine_matches_per_event_loop(config: EngineConfig, chunk: int) -> None:
    """``run_engine(config)`` against the per-event loop on every shard.

    Every insert is sampled (``trajectory_stride=1``), so each shard's
    per-label samples are whole size trajectories.  ``chunk`` replaces
    ``MAX_BATCH_EVENTS`` in the engine.
    """
    with mock.patch("repro.engine.runner.MAX_BATCH_EVENTS", chunk), \
            _recording_consumers("repro.engine.runner") as consumers:
        result = run_engine(config)
    assert len(consumers) == config.num_shards
    events = REGISTRY.get(config.scenario, kind=STREAM).build(
        config.num_threads, config.num_objects, config.density, config.num_events,
        seed=derive_seed(config.seed, config.scenario, "stream"),
    )
    for shard_id, sub_stream in enumerate(_shard_streams(events, config.num_shards)):
        factories, made = _capturing(
            config.mechanisms, derive_seed(config.seed, config.scenario, "shard", shard_id)
        )
        optimum = DynamicMatching()
        expected = _per_event_reference(
            sub_stream, factories, config.window, config.epoch_every, optimum
        )
        for label in config.mechanisms + (OFFLINE_LABEL,):
            fragment = result.partial.series.get((shard_id, label))
            samples = fragment.samples if fragment is not None else ()
            assert samples == expected[label].size_trajectory, (shard_id, label)
            if fragment is not None:
                assert fragment.final_size == expected[label].final_size
        consumer = consumers[shard_id]
        for label in config.mechanisms:
            mechanism = consumer.mechanisms[label]
            assert mechanism.expires_seen == expected[label].expires_seen
            assert mechanism.retired_total == expected[label].retired_components
            assert mechanism.decisions == made[label].decisions
        offline = expected[OFFLINE_LABEL]
        assert (consumer.inserts, consumer.expires, consumer.epochs) == (
            offline.events_revealed, offline.expires_seen, offline.epochs,
        )
        assert consumer.optimum.size == optimum.size


@settings(max_examples=40, deadline=None)
@given(
    case=churn_runs(),
    num_shards=st.integers(min_value=1, max_value=3),
    chunk_size=st.integers(min_value=1, max_value=60),
    pipeline=st.sampled_from(["batched", "per-event"]),
)
def test_engine_expire_runs_match_per_event_loop(case, num_shards, chunk_size, pipeline):
    # The engine routes each shard's expiries as runs; with epoch markers
    # in the stream a run must reach its shard before the marker does.
    churn = REGISTRY.get("thread-churn", kind=STREAM)
    scenario = replace(churn, factory=_churn(case), epochs=case["markers"] is not None)
    for labels in MECHANISM_SETS:
        config = EngineConfig(
            scenario="thread-churn", num_threads=case["size"], num_objects=case["size"],
            density=case["density"], num_events=case["num_events"], seed=case["seed"],
            num_shards=num_shards, chunk_size=chunk_size, epoch_every=case["epoch"],
            mechanisms=labels, trajectory_stride=1, pipeline=pipeline,
        )
        with mock.patch.dict(REGISTRY._scenarios, {"thread-churn": scenario}):
            _assert_engine_matches_per_event_loop(config, case["chunk"])


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(WINDOWED_SCENARIOS),
    seed=st.integers(min_value=0, max_value=2**32),
    num_events=st.integers(min_value=0, max_value=200),
    size=st.integers(min_value=2, max_value=12),
    density=st.floats(min_value=0.05, max_value=0.6),
    num_shards=st.integers(min_value=1, max_value=3),
    window=st.integers(min_value=1, max_value=30),
    epoch=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)
def test_engine_window_matches_per_event_loop(
    scenario, seed, num_events, size, density, num_shards, window, epoch
):
    # Long insert runs (one chunk per shard) fill each shard's window
    # inside a run; the per-event loop windows each sub-stream with
    # sliding_window and expires before every displacing insert.
    for labels in MECHANISM_SETS:
        config = EngineConfig(
            scenario=scenario, num_threads=size, num_objects=size, density=density,
            num_events=num_events, seed=seed, num_shards=num_shards,
            chunk_size=max(1, num_events), window=window, epoch_every=epoch,
            mechanisms=labels, trajectory_stride=1,
        )
        _assert_engine_matches_per_event_loop(config, MAX_BATCH_EVENTS)
