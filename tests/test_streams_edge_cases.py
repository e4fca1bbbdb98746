"""Stream-generator edge cases and the sharded-vs-serial equivalence property.

Three families of tests the streaming engine's correctness rests on:

* degenerate streams (zero events) flow through every generator, the
  windowing adapter, the one-pass comparator and the sharded engine
  without special-casing;
* expire-before-insert is rejected loudly at every layer that could see
  one (it is always a driver bug: generators are multiset-consistent by
  contract);
* the headline property: for randomized churn streams, running the
  sharded engine and merging its partials yields exactly the same
  per-shard trajectories, finals and ratio statistics as feeding each
  shard's sub-stream through the serial one-pass
  :func:`~repro.online.simulator.compare_mechanisms_on_stream` - i.e.
  sharding + merging loses nothing relative to the single-pass driver.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.analysis.metrics import RunningStats
from repro.computation import REGISTRY, STREAM
from repro.computation.streams import (
    EXPIRE,
    StreamEvent,
    sliding_window,
    thread_churn_stream,
)
from repro.engine import EngineConfig, OFFLINE_LABEL, StreamSharder, run_engine
from repro.exceptions import ComputationError, GraphError
from repro.graph.incremental import DynamicMatching
from repro.online.simulator import (
    compare_mechanisms_on_stream,
    seed_mechanism_factories,
)
from repro.seeds import derive_seed

SETTINGS = settings(max_examples=12, deadline=None)


# ---------------------------------------------------------------------------
# Zero-length streams
# ---------------------------------------------------------------------------
class TestZeroLengthStreams:
    @pytest.mark.parametrize("name", REGISTRY.names(STREAM))
    def test_every_registered_generator_yields_nothing(self, name):
        scenario = REGISTRY.get(name, kind=STREAM)
        assert list(scenario.build(4, 4, 0.5, 0, seed=1)) == []

    @pytest.mark.parametrize("name", REGISTRY.names(STREAM))
    def test_negative_num_events_rejected(self, name):
        scenario = REGISTRY.get(name, kind=STREAM)
        with pytest.raises(ComputationError):
            list(scenario.build(4, 4, 0.5, -1, seed=1))

    def test_sliding_window_over_empty_stream(self):
        assert list(sliding_window([], window=3)) == []

    def test_compare_on_empty_stream(self):
        results = compare_mechanisms_on_stream(
            [], {"naive": lambda: EXTENDED_MECHANISMS["naive"](0)}
        )
        assert results["naive"].size_trajectory == ()
        assert results[OFFLINE_LABEL].final_size == 0


# ---------------------------------------------------------------------------
# Expire-before-insert
# ---------------------------------------------------------------------------
class TestExpireBeforeInsert:
    def test_dynamic_matching_rejects_dead_edge(self):
        engine = DynamicMatching()
        with pytest.raises(GraphError):
            engine.remove_edge("T0", "O0")
        engine.add_edge("T0", "O0")
        engine.remove_edge("T0", "O0")
        with pytest.raises(GraphError):
            engine.remove_edge("T0", "O0")

    def test_comparator_surfaces_the_error(self):
        stream = [StreamEvent("T0", "O0", EXPIRE)]
        with pytest.raises(GraphError):
            compare_mechanisms_on_stream(
                stream, {"naive": lambda: EXTENDED_MECHANISMS["naive"](0)}
            )

    def test_sliding_window_rejects_explicit_expiry(self):
        stream = [StreamEvent("T0", "O0"), StreamEvent("T0", "O0", EXPIRE)]
        with pytest.raises(ComputationError):
            list(sliding_window(stream, window=2))


# ---------------------------------------------------------------------------
# Sharded merge == serial single-pass (the engine's semantic anchor)
# ---------------------------------------------------------------------------
def _serial_reference(config: EngineConfig, shard_id: int):
    """What the one-pass driver says this shard's metrics should be."""
    scenario = REGISTRY.get(config.scenario, kind=STREAM)
    events = scenario.build(
        config.num_threads,
        config.num_objects,
        config.density,
        config.num_events,
        seed=derive_seed(config.seed, config.scenario, "stream"),
    )
    sharder = StreamSharder(config.num_shards, config.strategy)
    sub_stream = (
        e for e in events
        if e.is_epoch or sharder.shard_of(e.thread) == shard_id
    )
    shard_root = derive_seed(config.seed, config.scenario, "shard", shard_id)
    factories = seed_mechanism_factories(
        {label: EXTENDED_MECHANISMS[label] for label in config.mechanisms},
        shard_root,
    )
    return compare_mechanisms_on_stream(
        sub_stream, factories, include_offline=True, window=config.window
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    num_events=st.integers(min_value=0, max_value=260),
    num_shards=st.integers(min_value=1, max_value=5),
    chunk_size=st.integers(min_value=1, max_value=90),
    threads=st.integers(min_value=2, max_value=14),
    churn=st.floats(min_value=0.0, max_value=0.4),
)
@SETTINGS
def test_sharded_merge_equals_serial_single_pass(
    seed, num_events, num_shards, chunk_size, threads, churn
):
    # `churn` only randomises the stream shape indirectly (via the seed
    # space) - thread_churn_stream's churn knob is not registry-exposed,
    # so fold it into the seed to diversify the explored streams.
    config = EngineConfig(
        scenario="thread-churn",
        num_threads=threads,
        num_objects=threads + 3,
        density=0.4,
        num_events=num_events,
        seed=derive_seed(seed, repr(churn)),
        num_shards=num_shards,
        chunk_size=chunk_size,
        trajectory_stride=1,
    )
    merged = run_engine(config).partial

    total_reference_inserts = 0
    for shard_id in range(num_shards):
        reference = _serial_reference(config, shard_id)
        offline = reference[OFFLINE_LABEL]
        total_reference_inserts += offline.events_revealed
        if offline.events_revealed == 0:
            for label in config.mechanisms:
                assert (shard_id, label) not in merged.series
            continue
        assert merged.fragment(shard_id, OFFLINE_LABEL).samples == (
            offline.size_trajectory
        )
        for label in config.mechanisms:
            fragment = merged.fragment(shard_id, label)
            expected = reference[label]
            assert fragment.samples == expected.size_trajectory
            assert fragment.final_size == expected.final_size
            assert fragment.count == expected.events_revealed
            # Ratio statistics match a single-pass accumulation of the
            # same pointwise ratios, up to the documented float-rounding
            # of per-chunk merging.
            ratios = RunningStats()
            for online, opt in zip(
                expected.size_trajectory, offline.size_trajectory
            ):
                if opt:
                    ratios.update(online / opt)
            frozen = ratios.freeze()
            assert fragment.ratios.count == frozen.count
            assert fragment.ratios.minimum == frozen.minimum
            assert fragment.ratios.maximum == frozen.maximum
            assert fragment.ratios.mean == pytest.approx(frozen.mean)
    assert merged.inserts == total_reference_inserts == num_events


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    window=st.integers(min_value=1, max_value=40),
    num_shards=st.integers(min_value=1, max_value=4),
)
@SETTINGS
def test_windowed_sharded_merge_matches_serial(seed, window, num_shards):
    # Same property for an insert-only scenario under a per-shard window.
    config = EngineConfig(
        scenario="hot-object-drift",
        num_threads=8,
        num_objects=12,
        density=0.3,
        num_events=150,
        seed=seed,
        num_shards=num_shards,
        chunk_size=32,
        window=window,
        trajectory_stride=1,
    )
    merged = run_engine(config).partial
    for shard_id in range(num_shards):
        reference = _serial_reference(config, shard_id)
        offline = reference[OFFLINE_LABEL]
        if offline.events_revealed == 0:
            continue
        assert merged.fragment(shard_id, OFFLINE_LABEL).samples == (
            offline.size_trajectory
        )
        for label in config.mechanisms:
            assert merged.fragment(shard_id, label).samples == (
                reference[label].size_trajectory
            )


def test_churn_knob_spot_check_matches_engine_defaults():
    # The property tests rely on thread_churn_stream's default churn; a
    # direct spot check that the generator parameters the engine uses are
    # the registered defaults (build forwards no extra kwargs).
    scenario = REGISTRY.get("thread-churn", kind=STREAM)
    direct = list(thread_churn_stream(6, 8, 0.4, 50, seed=9))
    via_registry = list(scenario.build(6, 8, 0.4, 50, seed=9))
    assert direct == via_registry
