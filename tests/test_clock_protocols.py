"""Unit tests for the vector clock protocols (thread, object, mixed).

The heavy correctness artillery (Theorem 2 on random computations) lives in
the property tests; here each protocol is exercised on hand-checked
computations, the paper's running example, and the API edge cases.
"""

from __future__ import annotations

import pytest

from repro.computation import Computation, HappenedBefore
from repro.core import (
    ClockComponents,
    VectorClockProtocol,
    mixed_clock_components,
    timestamp_with_components,
    timestamp_with_mixed_clock,
    timestamp_with_object_clock,
    timestamp_with_thread_clock,
)
from repro.exceptions import ClockError, ComponentError
from tests.conftest import assert_valid_vector_clock


class TestThreadClock:
    def test_size_equals_thread_count(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        assert stamped.clock_size == small_computation.num_threads

    def test_validity_on_small_computation(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        assert_valid_vector_clock(small_computation, stamped.timestamp)

    def test_increments_own_thread_entry(self):
        computation = Computation.from_pairs([("A", "x"), ("A", "x"), ("B", "x")])
        stamped = timestamp_with_thread_clock(computation)
        events = computation.events
        assert stamped[events[0]].value_of("A") == 1
        assert stamped[events[1]].value_of("A") == 2
        # B's first event merged A's history through object x.
        assert stamped[events[2]].value_of("A") == 2
        assert stamped[events[2]].value_of("B") == 1


class TestObjectClock:
    def test_size_equals_object_count(self, small_computation):
        stamped = timestamp_with_object_clock(small_computation)
        assert stamped.clock_size == small_computation.num_objects

    def test_validity_on_small_computation(self, small_computation):
        stamped = timestamp_with_object_clock(small_computation)
        assert_valid_vector_clock(small_computation, stamped.timestamp)

    def test_increments_own_object_entry(self):
        computation = Computation.from_pairs([("A", "x"), ("B", "x"), ("B", "y")])
        stamped = timestamp_with_object_clock(computation)
        events = computation.events
        assert stamped[events[0]].value_of("x") == 1
        assert stamped[events[1]].value_of("x") == 2
        assert stamped[events[2]].value_of("y") == 1
        assert stamped[events[2]].value_of("x") == 2


class TestMixedClock:
    def test_paper_example_components_and_validity(self, paper_trace):
        graph = paper_trace.bipartite_graph()
        stamped = timestamp_with_mixed_clock(paper_trace, {"T2", "O2", "O3"}, graph=graph)
        assert stamped.clock_size == 3
        assert_valid_vector_clock(paper_trace, stamped.timestamp)

    def test_paper_figure3_transitive_ordering(self, paper_trace):
        # [T2,O1] -> [T2,O3] -> [T3,O3]  implies  [T2,O1] -> [T3,O3] (Fig. 3).
        stamped = timestamp_with_mixed_clock(paper_trace, {"T2", "O2", "O3"})
        by_pair = {}
        for event in paper_trace:
            by_pair.setdefault((event.thread, event.obj), event)
        t2_o1 = by_pair[("T2", "O1")]
        t2_o3 = by_pair[("T2", "O3")]
        t3_o3 = by_pair[("T3", "O3")]
        assert stamped.happened_before(t2_o1, t2_o3)
        assert stamped.happened_before(t2_o3, t3_o3)
        assert stamped.happened_before(t2_o1, t3_o3)
        assert stamped.relation(t2_o1, t3_o3) == "before"

    def test_non_cover_components_rejected(self, paper_trace):
        graph = paper_trace.bipartite_graph()
        with pytest.raises(ComponentError):
            mixed_clock_components(graph, {"T2"})  # does not cover (T1, O2) etc.

    def test_non_cover_allowed_without_validation(self, paper_trace):
        graph = paper_trace.bipartite_graph()
        components = mixed_clock_components(graph, {"T2"}, validate=False)
        assert components.size == 1

    def test_thread_based_cover_is_special_case(self, small_computation):
        graph = small_computation.bipartite_graph()
        stamped = timestamp_with_mixed_clock(
            small_computation, set(small_computation.threads), graph=graph
        )
        thread_stamped = timestamp_with_thread_clock(small_computation)
        for event in small_computation:
            assert stamped[event].as_dict() == thread_stamped[event].as_dict()

    def test_uncovered_operation_raises_in_strict_mode(self):
        components = ClockComponents(["A"], [])
        protocol = VectorClockProtocol(components)
        protocol.observe("A", "x")
        with pytest.raises(ComponentError):
            protocol.observe("B", "x")

    def test_non_strict_mode_does_not_raise(self):
        components = ClockComponents(["A"], [])
        protocol = VectorClockProtocol(components, strict=False)
        protocol.observe("A", "x")
        stamp = protocol.observe("B", "x")
        # The uncovered event is merged but not incremented.
        assert stamp.value_of("A") == 1


class TestProtocolLifecycle:
    def test_clocks_start_at_zero(self):
        protocol = VectorClockProtocol(ClockComponents(["A"], ["x"]))
        assert protocol.thread_clock("A").sum() == 0
        assert protocol.object_clock("x").sum() == 0
        assert protocol.events_observed == 0
        assert protocol.size == 2

    def test_observe_updates_both_endpoint_clocks(self):
        protocol = VectorClockProtocol(ClockComponents(["A"], ["x"]))
        stamp = protocol.observe("A", "x")
        assert protocol.thread_clock("A") == stamp
        assert protocol.object_clock("x") == stamp
        assert protocol.events_observed == 1

    def test_both_components_incremented_when_both_present(self):
        protocol = VectorClockProtocol(ClockComponents(["A"], ["x"]))
        stamp = protocol.observe("A", "x")
        assert stamp.value_of("A") == 1
        assert stamp.value_of("x") == 1

    def test_timestamp_computation_requires_fresh_protocol(self, small_computation):
        components = ClockComponents.all_threads(small_computation.threads)
        protocol = VectorClockProtocol(components)
        protocol.observe("A", "x")
        with pytest.raises(ClockError):
            protocol.timestamp_computation(small_computation)

    def test_reset(self, small_computation):
        components = ClockComponents.all_threads(small_computation.threads)
        protocol = VectorClockProtocol(components)
        protocol.observe("A", "x")
        protocol.reset()
        assert protocol.events_observed == 0
        stamped = protocol.timestamp_computation(small_computation)
        assert len(stamped) == small_computation.num_events


class TestTimestampedComputation:
    def test_iteration_and_lookup(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        assert len(stamped) == len(small_computation)
        pairs = list(stamped)
        assert [event for event, _ in pairs] == list(small_computation.events)
        event = small_computation.events[0]
        assert stamped[event] == stamped.timestamp(event)

    def test_unknown_event_rejected(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        foreign = Computation.from_pairs([("Z", "q")]).events[0]
        with pytest.raises(ClockError):
            stamped.timestamp(foreign)

    def test_concurrent_and_relation_queries_match_oracle(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        oracle = HappenedBefore(small_computation)
        for a in small_computation:
            for b in small_computation:
                if a == b:
                    assert not stamped.concurrent(a, b)
                    continue
                assert stamped.concurrent(a, b) == oracle.concurrent(a, b)

    def test_storage_cost(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        assert stamped.storage_cost() == stamped.clock_size * len(small_computation)

    def test_format_table(self, small_computation):
        stamped = timestamp_with_thread_clock(small_computation)
        text = stamped.format_table()
        assert "clock components" in text
        truncated = stamped.format_table(limit=2)
        assert "more events" in truncated

    def test_timestamp_with_components_helper(self, small_computation):
        components = ClockComponents.all_threads(small_computation.threads)
        stamped = timestamp_with_components(small_computation, components)
        assert stamped.clock_size == 2

    def test_missing_timestamps_rejected(self, small_computation):
        from repro.core.timestamping import TimestampedComputation

        with pytest.raises(ClockError):
            TimestampedComputation(
                small_computation, ClockComponents.all_threads(["A", "B"]), {}
            )
