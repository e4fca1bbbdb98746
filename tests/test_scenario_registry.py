"""Tests for the scenario registry, streaming workloads and ratio sweeps."""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import (
    format_ratio_sweep,
    ratio_sweep,
    summarize,
)
from repro.computation import (
    EXPIRE,
    GRAPH,
    INSERT,
    REGISTRY,
    STREAM,
    TRACE,
    Scenario,
    ScenarioRegistry,
    StreamEvent,
    as_stream_event,
    hot_object_drift_stream,
    insert_events,
    phase_change_stream,
    register_scenario,
    sliding_window,
    thread_churn_stream,
)
from repro.exceptions import ComputationError, ExperimentError, ScenarioError
from repro.graph import DynamicMatching
from repro.online import OFFLINE_LABEL, NaiveMechanism, compare_mechanisms_on_stream


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_global_registry_has_all_three_kinds(self):
        assert set(REGISTRY.names(TRACE)) == {
            "lock-hierarchy",
            "paper-example",
            "pipeline",
            "producer-consumer",
            "random",
            "work-stealing",
        }
        assert set(REGISTRY.names(GRAPH)) == {
            "clustered",
            "nonuniform",
            "powerlaw",
            "uniform",
        }
        assert set(REGISTRY.names(STREAM)) >= {
            "hot-object-drift",
            "phase-change",
            "thread-churn",
        }
        assert len(REGISTRY.names(STREAM)) >= 3

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(Scenario("dup", TRACE, lambda seed: None))
        with pytest.raises(ScenarioError):
            registry.register(Scenario("dup", GRAPH, lambda *a, **k: None))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioRegistry().register(Scenario("x", "movie", lambda: None))

    def test_expires_requires_stream_kind(self):
        with pytest.raises(ScenarioError):
            ScenarioRegistry().register(
                Scenario("x", TRACE, lambda seed: None, expires=True)
            )

    def test_unknown_lookup_lists_valid_names(self):
        with pytest.raises(ScenarioError, match="uniform"):
            REGISTRY.get("bimodal", kind=GRAPH)

    def test_kind_constrained_lookup(self):
        assert REGISTRY.get("uniform", kind=GRAPH).kind == GRAPH
        with pytest.raises(ScenarioError):
            REGISTRY.get("uniform", kind=TRACE)

    def test_decorator_registers_and_returns_factory(self):
        registry = ScenarioRegistry()

        @register_scenario("mine", kind=TRACE, description="d", registry=registry)
        def factory(seed):
            return seed

        assert factory(3) == 3  # unchanged callable
        scenario = registry.get("mine")
        assert scenario.kind == TRACE and scenario.description == "d"
        assert "mine" in registry and len(registry) == 1

    def test_describe_renders_name_and_description(self):
        text = REGISTRY.describe(STREAM)
        assert "thread-churn:" in text
        assert "hot-object-drift:" in text

    def test_churn_scenario_declares_expiry(self):
        assert REGISTRY.get("thread-churn").expires
        assert not REGISTRY.get("hot-object-drift").expires


# ---------------------------------------------------------------------------
# Stream events and generators
# ---------------------------------------------------------------------------
class TestStreams:
    def test_as_stream_event_coerces_pairs(self):
        event = as_stream_event(("T0", "O0"))
        assert event.is_insert and event.pair == ("T0", "O0")
        assert as_stream_event(event) is event

    def test_insert_events_wraps_lazily(self):
        wrapped = insert_events(iter([("T0", "O0")]))
        assert next(wrapped).kind == INSERT

    @pytest.mark.parametrize(
        "generator",
        [thread_churn_stream, hot_object_drift_stream, phase_change_stream],
        ids=["churn", "drift", "phase"],
    )
    def test_generators_are_deterministic_and_sized(self, generator):
        first = list(generator(6, 8, 0.3, 120, seed=11))
        second = list(generator(6, 8, 0.3, 120, seed=11))
        assert first == second
        assert list(generator(6, 8, 0.3, 120, seed=12)) != first
        assert sum(1 for event in first if event.is_insert) == 120

    @pytest.mark.parametrize(
        "generator",
        [thread_churn_stream, hot_object_drift_stream, phase_change_stream],
        ids=["churn", "drift", "phase"],
    )
    def test_generators_are_lazy(self, generator):
        stream = generator(6, 8, 0.3, 10**9, seed=1)
        head = list(itertools.islice(stream, 50))
        assert len(head) == 50

    def test_churn_expiry_is_multiset_consistent(self):
        # Every expire retracts a previously inserted, still-live
        # occurrence - exactly the contract DynamicMatching enforces, so
        # driving the engine over the raw stream must never raise.
        engine = DynamicMatching()
        expires = 0
        for event in thread_churn_stream(10, 10, 0.5, 500, seed=23):
            if event.is_insert:
                engine.add_edge(event.thread, event.obj)
            else:
                engine.remove_edge(event.thread, event.obj)
                expires += 1
        assert expires > 0  # the seed actually exercises departures

    def test_sliding_window_emits_expire_before_overflow_insert(self):
        events = list(sliding_window(insert_events([("T0", "O0"), ("T1", "O1")]), 1))
        kinds = [event.kind for event in events]
        assert kinds == [INSERT, EXPIRE, INSERT]
        assert events[1].pair == ("T0", "O0")

    def test_sliding_window_bounds_live_inserts(self):
        stream = hot_object_drift_stream(5, 8, 0.4, 200, seed=3)
        live = 0
        for event in sliding_window(stream, 17):
            live += 1 if event.is_insert else -1
            assert live <= 17

    def test_sliding_window_rejects_expiring_input(self):
        with pytest.raises(ComputationError):
            list(sliding_window([StreamEvent("T0", "O0", EXPIRE)], 4))

    def test_sliding_window_rejects_bad_window(self):
        with pytest.raises(ComputationError):
            list(sliding_window([("T0", "O0")], 0))


# ---------------------------------------------------------------------------
# Streaming comparison driver
# ---------------------------------------------------------------------------
class TestCompareOnStream:
    def test_single_pass_over_a_one_shot_iterator(self):
        events = iter([("T0", "O0"), ("T1", "O1"), ("T0", "O1")])
        results = compare_mechanisms_on_stream(
            events, {"naive": NaiveMechanism}, include_offline=True
        )
        assert results["naive"].events_revealed == 3
        assert results[OFFLINE_LABEL].size_trajectory == (1, 2, 2)

    def test_windowed_offline_trajectory_can_dip(self):
        # Disjoint edges through a window of 1: the optimum resets to 1 on
        # every event while Naive keeps one component per thread seen.
        pairs = [(f"T{i}", f"O{i}") for i in range(6)]
        results = compare_mechanisms_on_stream(
            pairs, {"naive": NaiveMechanism}, include_offline=True, window=1
        )
        assert results[OFFLINE_LABEL].size_trajectory == (1,) * 6
        assert results["naive"].size_trajectory == (1, 2, 3, 4, 5, 6)

    def test_mechanisms_never_dip_below_windowed_optimum(self):
        stream = phase_change_stream(8, 10, 0.3, 300, seed=5)
        results = compare_mechanisms_on_stream(
            stream, {"naive": NaiveMechanism}, include_offline=True, window=40
        )
        offline = results[OFFLINE_LABEL].size_trajectory
        online = results["naive"].size_trajectory
        assert len(offline) == len(online) == 300
        assert all(o >= f for o, f in zip(online, offline))

    def test_expire_events_skip_mechanisms(self):
        events = [
            StreamEvent("T0", "O0"),
            StreamEvent("T0", "O0", EXPIRE),
            StreamEvent("T1", "O1"),
        ]
        results = compare_mechanisms_on_stream(
            events, {"naive": NaiveMechanism}, include_offline=True
        )
        # Two samples (one per insert); the expire shrank only the optimum.
        assert results["naive"].size_trajectory == (1, 2)
        assert results[OFFLINE_LABEL].size_trajectory == (1, 1)


# ---------------------------------------------------------------------------
# Ratio sweep
# ---------------------------------------------------------------------------
class TestRatioSweep:
    def _small(self, **overrides):
        kwargs = dict(
            densities=[0.2],
            sizes=[8],
            trials=1,
            window=30,
            burn_in=10,
            tail=10,
            num_events=90,
            base_seed=77,
        )
        kwargs.update(overrides)
        return ratio_sweep(**kwargs)

    def test_covers_all_registered_stream_scenarios(self):
        result = self._small()
        assert set(result.scenarios) == set(REGISTRY.names(STREAM))
        assert len(result.cells) == len(result.scenarios)

    def test_cells_carry_burn_in_and_steady_stats(self):
        result = self._small()
        for cell in result.cells:
            for label in result.mechanisms:
                burn, steady = cell.burn_in[label], cell.steady[label]
                assert burn.count == 10 and steady.count == 10
                assert burn.minimum >= 1.0 - 1e-9
                assert steady.minimum >= 1.0 - 1e-9
                # Order statistics are available (satellite: median/percentile).
                assert steady.percentile(90) >= steady.median >= steady.minimum

    def test_grid_iterates_densities_and_sizes(self):
        result = self._small(densities=[0.1, 0.3], sizes=[6, 10])
        cells = result.cells_for("phase-change")
        assert {(cell.density, cell.size) for cell in cells} == {
            (0.1, 6), (0.1, 10), (0.3, 6), (0.3, 10),
        }

    def test_scenario_subset_and_unknown_scenario(self):
        result = self._small(scenarios=["phase-change"])
        assert result.scenarios == ("phase-change",)
        with pytest.raises(ExperimentError, match="thread-churn"):
            self._small(scenarios=["no-such-stream"])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ExperimentError):
            self._small(trials=0)
        with pytest.raises(ExperimentError):
            self._small(num_events=5)  # < burn_in + tail
        with pytest.raises(ExperimentError):
            self._small(window=0)

    def test_repeated_label_rejected(self):
        # A repeated label would otherwise fold into one series.
        with pytest.raises(ExperimentError, match="'naive' is listed twice"):
            self._small(labels=("naive", "popularity", "naive"))

    def test_format_renders_one_table_per_scenario(self):
        result = self._small()
        text = format_ratio_sweep(result)
        for name in result.scenarios:
            assert f"ratio-sweep-{name}" in text
        assert ":burn" in text and ":steady" in text
        assert "self-expiring" in text  # thread-churn runs unwindowed


# ---------------------------------------------------------------------------
# SummaryStats order statistics (satellite)
# ---------------------------------------------------------------------------
class TestPercentiles:
    def test_median_odd_and_even(self):
        assert summarize([3, 1, 2]).median == 2.0
        assert summarize([1, 2, 3, 4]).median == 2.5

    def test_percentile_interpolates(self):
        stats = summarize([0, 10])
        assert stats.percentile(0) == 0.0
        assert stats.percentile(25) == 2.5
        assert stats.percentile(100) == 10.0

    def test_percentile_single_value(self):
        assert summarize([7]).percentile(99) == 7.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            summarize([1.0]).percentile(101)

    def test_percentile_requires_sample(self):
        from repro.analysis import SummaryStats

        bare = SummaryStats(count=2, mean=1.0, std=0.0, minimum=1.0, maximum=1.0)
        with pytest.raises(ValueError):
            bare.median

    def test_summarize_still_matches_moments(self):
        stats = summarize([2.0, 4.0, 6.0])
        assert stats.mean == 4.0
        assert stats.minimum == 2.0 and stats.maximum == 6.0
        assert stats.sorted_values == (2.0, 4.0, 6.0)
