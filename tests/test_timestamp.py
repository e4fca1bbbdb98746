"""Unit tests for timestamp values."""

from __future__ import annotations

import pytest

from repro.core import ClockComponents, Timestamp, ordering
from repro.exceptions import ClockError


@pytest.fixture
def components() -> ClockComponents:
    return ClockComponents(["T1", "T2"], ["O1"])


class TestDenseTimestamp:
    def test_zero(self, components):
        zero = Timestamp.zero(components)
        assert zero.values == (0, 0, 0)
        assert zero.sum() == 0
        assert len(zero) == 3
        assert list(zero) == [0, 0, 0]

    def test_explicit_values_and_accessors(self, components):
        stamp = Timestamp(components, [1, 2, 3])
        assert stamp.value_of("T1") == 1
        assert stamp.value_of("O1") == 3
        assert stamp.as_dict() == {"T1": 1, "T2": 2, "O1": 3}
        assert stamp.components is components

    def test_from_mapping(self, components):
        stamp = Timestamp.from_mapping(components, {"T2": 5})
        assert stamp.values == (0, 5, 0)
        with pytest.raises(ClockError):
            Timestamp.from_mapping(components, {"T9": 1})

    def test_length_and_sign_validation(self, components):
        with pytest.raises(ClockError):
            Timestamp(components, [1, 2])
        with pytest.raises(ClockError):
            Timestamp(components, [1, 2, -1])

    def test_merge_is_componentwise_max(self, components):
        a = Timestamp(components, [1, 5, 0])
        b = Timestamp(components, [2, 1, 4])
        assert a.merged(b).values == (2, 5, 4)
        assert b.merged(a).values == (2, 5, 4)

    def test_increment(self, components):
        stamp = Timestamp.zero(components).incremented("T2")
        assert stamp.values == (0, 1, 0)
        assert stamp.incremented("T2", amount=3).values == (0, 4, 0)
        with pytest.raises(ClockError):
            stamp.incremented("T2", amount=0)

    def test_ordering_relations(self, components):
        small = Timestamp(components, [1, 1, 1])
        big = Timestamp(components, [2, 1, 1])
        other = Timestamp(components, [0, 5, 0])
        assert small < big
        assert small <= big
        assert big > small
        assert big >= small
        assert not (big < small)
        assert small.concurrent_with(other)
        assert not small.concurrent_with(big)
        assert big.dominates(small)
        assert small == Timestamp(components, [1, 1, 1])
        assert small != big
        assert hash(small) == hash(Timestamp(components, [1, 1, 1]))

    def test_comparison_across_component_sets_rejected(self, components):
        other_components = ClockComponents(["T1"], ["O1"])
        with pytest.raises(ClockError):
            Timestamp.zero(components).merged(Timestamp.zero(other_components))
        with pytest.raises(ClockError):
            Timestamp.zero(components) < Timestamp.zero(other_components)

    def test_ordering_classifier(self, components):
        a = Timestamp(components, [1, 0, 0])
        b = Timestamp(components, [2, 0, 0])
        c = Timestamp(components, [0, 1, 0])
        assert ordering(a, b) == "before"
        assert ordering(b, a) == "after"
        assert ordering(a, a) == "equal"
        assert ordering(a, c) == "concurrent"

    def test_repr_contains_components(self, components):
        assert "T1:1" in repr(Timestamp(components, [1, 0, 2]))
