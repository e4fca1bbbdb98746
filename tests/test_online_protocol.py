"""Unit tests for online timestamping with a growing component set."""

from __future__ import annotations

import pytest

from repro.computation import Computation, HappenedBefore, random_trace
from repro.exceptions import ClockError
from repro.online import (
    NaiveMechanism,
    OnlineClockProtocol,
    PopularityMechanism,
    RandomMechanism,
)
from tests.conftest import assert_valid_vector_clock


class TestOnlineClockProtocol:
    def test_requires_fresh_mechanism(self):
        mechanism = NaiveMechanism()
        mechanism.observe("T1", "O1")
        with pytest.raises(ClockError):
            OnlineClockProtocol(mechanism)

    def test_observe_returns_growing_timestamps(self):
        protocol = OnlineClockProtocol(NaiveMechanism())
        first = protocol.observe("A", "x")
        second = protocol.observe("A", "x")
        assert first < second
        assert protocol.clock_size == 1
        assert protocol.thread_clock("A") == second
        assert protocol.object_clock("x") == second

    def test_unseen_endpoints_have_zero_clock(self):
        protocol = OnlineClockProtocol(NaiveMechanism())
        protocol.observe("A", "x")
        protocol.observe("B", "y")
        assert protocol.thread_clock("ghost").as_dict() == {"A": 0, "B": 0}
        assert protocol.object_clock("ghost").as_dict() == {"A": 0, "B": 0}

    def test_unseen_endpoint_clock_below_every_stamp(self, small_computation):
        protocol = OnlineClockProtocol(PopularityMechanism())
        stamps = protocol.timestamp_computation(small_computation)
        zero = protocol.thread_clock("ghost")
        assert all(zero < stamp for stamp in stamps.values())

    def test_older_stamps_read_zero_in_later_components(self):
        protocol = OnlineClockProtocol(NaiveMechanism())
        computation = Computation.from_pairs([("A", "x"), ("B", "y"), ("A", "y")])
        first, second, third = computation.events
        protocol.timestamp_computation(computation)
        assert protocol.clock_size == 2
        # "B" joined after the first event: its stamp reads 0 there.
        assert protocol.timestamp(first).as_dict() == {"A": 1, "B": 0}
        assert protocol.timestamp(second).as_dict() == {"A": 0, "B": 1}
        assert protocol.timestamp(first) < protocol.timestamp(third)
        assert protocol.timestamp(second) < protocol.timestamp(third)
        assert protocol.concurrent(first, second)

    def test_timestamp_computation_and_queries(self, small_computation):
        protocol = OnlineClockProtocol(PopularityMechanism())
        stamps = protocol.timestamp_computation(small_computation)
        assert set(stamps) == set(small_computation.events)
        oracle = HappenedBefore(small_computation)
        for a in small_computation:
            for b in small_computation:
                if a == b:
                    assert not protocol.concurrent(a, b)
                    continue
                assert protocol.happened_before(a, b) == oracle.happened_before(a, b)
                assert protocol.concurrent(a, b) == oracle.concurrent(a, b)

    def test_timestamp_computation_requires_fresh_protocol(self, small_computation):
        protocol = OnlineClockProtocol(NaiveMechanism())
        protocol.timestamp_computation(small_computation)
        with pytest.raises(ClockError):
            protocol.timestamp_computation(small_computation)

    def test_unknown_event_timestamp_rejected(self, small_computation):
        protocol = OnlineClockProtocol(NaiveMechanism())
        protocol.timestamp_computation(small_computation)
        foreign = Computation.from_pairs([("Z", "q")]).events[0]
        with pytest.raises(ClockError):
            protocol.timestamp(foreign)

    @pytest.mark.parametrize(
        "mechanism_factory",
        [
            lambda: NaiveMechanism(),
            lambda: NaiveMechanism(side="object"),
            lambda: RandomMechanism(seed=13),
            lambda: PopularityMechanism(),
        ],
        ids=["naive-thread", "naive-object", "random", "popularity"],
    )
    def test_validity_on_random_computations(self, mechanism_factory):
        trace = random_trace(6, 8, 90, seed=17)
        protocol = OnlineClockProtocol(mechanism_factory())
        protocol.timestamp_computation(trace)
        assert_valid_vector_clock(trace, protocol.timestamp)

    def test_clock_size_matches_mechanism(self, medium_random_computation):
        mechanism = PopularityMechanism()
        protocol = OnlineClockProtocol(mechanism)
        protocol.timestamp_computation(medium_random_computation)
        assert protocol.clock_size == mechanism.clock_size
        assert protocol.mechanism is mechanism
