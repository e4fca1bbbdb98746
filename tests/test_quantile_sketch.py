"""The mergeable quantile sketch behind cross-shard percentiles.

The engine follow-on the ROADMAP asked for: moment statistics merge
exactly but cannot answer medians; the t-digest-style sketch carries a
compressed sample whose merge is associative exactly for
count/min/max and within the digest's rank accuracy for quantiles.  The
hypothesis property pins both halves of that claim, and the accuracy
tests pin the estimates against exact order statistics.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import QuantileSketch, RunningStats


def exact_percentile(values, p):
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def raw_state(sketch):
    """The fields ``update`` writes, read without the flush ``==`` does.

    ``repr`` tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``, so equal
    states are equal bit for bit and in type.
    """
    return repr(
        (sketch._centroids, sketch._buffer, sketch.count, sketch.minimum, sketch.maximum)
    )


def split_runs(values, cuts):
    """``values`` cut at the (unsorted, possibly repeated) ``cuts``."""
    bounds = [0] + sorted(min(cut, len(values)) for cut in cuts) + [len(values)]
    return [values[start:stop] for start, stop in zip(bounds, bounds[1:])]


def scale_calling_compress(compression, centroids, total):
    """``_compress`` as it was before ``k(q)`` was inlined: the oracle."""

    def scale(q):
        q = min(1.0, max(0.0, q))
        return compression * (math.asin(2.0 * q - 1.0) / math.pi + 0.5)

    if not centroids:
        return []
    ordered = sorted(centroids)
    compressed = []
    mean, weight = ordered[0]
    seen = 0.0
    limit = scale(0.0) + 1.0
    for next_mean, next_weight in ordered[1:]:
        if scale((seen + weight + next_weight) / total) <= limit:
            combined = weight + next_weight
            mean += (next_mean - mean) * (next_weight / combined)
            weight = combined
        else:
            compressed.append((mean, weight))
            seen += weight
            limit = scale(seen / total) + 1.0
            mean, weight = next_mean, next_weight
    compressed.append((mean, weight))
    return compressed


def asin_per_break_compress(compression, centroids, total):
    """``_compress`` with a second ``asin`` at every cluster break: the oracle
    for the loop that reuses the previous item's ``k``."""
    if not centroids:
        return []
    ordered = sorted(centroids)
    asin, pi = math.asin, math.pi
    compressed = []
    mean, weight = ordered[0]
    seen = 0  # weight strictly before the current cluster
    limit = 1.0  # k(0) + 1, and k(0) is exactly 0
    for next_mean, next_weight in ordered[1:]:
        q = (seen + weight + next_weight) / total
        if compression * (asin(2.0 * q - 1.0) / pi + 0.5) <= limit:
            # Weighted mean; weights are ints so only the mean rounds.
            combined = weight + next_weight
            mean += (next_mean - mean) * (next_weight / combined)
            weight = combined
        else:
            compressed.append((mean, weight))
            seen += weight
            limit = compression * (asin(2.0 * (seen / total) - 1.0) / pi + 0.5) + 1.0
            mean, weight = next_mean, next_weight
    compressed.append((mean, weight))
    return compressed


def fed_per_value(sketch, values):
    for value in values:
        sketch.update(value)
    return sketch


def fed_in_runs(sketch, values, cuts):
    for run in split_runs(values, cuts):
        sketch.update_many(run)
    return sketch


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
finite_or_int_lists = st.one_of(
    st.lists(finite, max_size=400), st.lists(st.integers(-1000, 1000), max_size=400)
)
cut_points = st.lists(st.integers(0, 400), max_size=12)


class TestUpdateMany:
    """``update_many`` over any split into runs is ``update`` per value.

    Small compressions make a few hundred values cross many flushes, so a
    flush point moved by one value shows in the centroids.
    """

    @settings(max_examples=200, deadline=None)
    @given(values=finite_or_int_lists, cuts=cut_points, compression=st.integers(4, 24))
    def test_any_run_split_equals_per_value(self, values, cuts, compression):
        one = fed_per_value(QuantileSketch(compression), values)
        runs = fed_in_runs(QuantileSketch(compression), values, cuts)
        assert all(type(value) is float for value in runs._buffer)
        assert raw_state(runs) == raw_state(one)

    @settings(max_examples=80, deadline=None)
    @given(
        first=st.lists(finite, max_size=150),
        second=st.lists(finite, max_size=150),
        after=st.lists(finite, max_size=150),
        cuts=cut_points,
        compression=st.integers(4, 24),
    )
    def test_equal_after_merges(self, first, second, after, cuts, compression):
        one = fed_per_value(QuantileSketch(compression), first).merge(
            fed_per_value(QuantileSketch(compression), second)
        )
        runs = fed_in_runs(QuantileSketch(compression), first, cuts).merge(
            fed_in_runs(QuantileSketch(compression), second, cuts)
        )
        assert raw_state(runs) == raw_state(one)
        assert raw_state(fed_in_runs(runs, after, cuts)) == raw_state(
            fed_per_value(one, after)
        )

    def test_from_values_takes_any_iterable(self):
        values = [random.Random(5).random() for _ in range(300)]
        assert raw_state(QuantileSketch.from_values(iter(values))) == raw_state(
            QuantileSketch.from_values(values)
        )

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(finite, max_size=300), cuts=cut_points)
    def test_running_stats_update_many_is_bit_identical(self, values, cuts):
        one = RunningStats()
        for value in values:
            one.update(value)
        runs = RunningStats()
        for run in split_runs(values, cuts):
            runs.update_many(run)
        fields = ("count", "mean", "m2", "minimum", "maximum")
        assert repr([getattr(runs, f) for f in fields]) == repr(
            [getattr(one, f) for f in fields]
        )

    @settings(max_examples=150, deadline=None)
    @given(
        centroids=st.lists(st.tuples(finite, st.integers(1, 60)), max_size=200),
        slack=st.integers(0, 100),
        compression=st.integers(4, 128),
    )
    def test_compress_equals_the_scale_calling_loop(self, centroids, slack, compression):
        # ``total`` never falls below the weight sum: flush and merge
        # both pass the exact count, the slack only widens the range.
        total = sum(weight for _, weight in centroids) + slack
        assert repr(QuantileSketch(compression)._compress(centroids, total)) == repr(
            scale_calling_compress(compression, centroids, total)
        )


    @pytest.mark.parametrize("seed", range(40))
    def test_compress_equals_the_asin_per_break_loop(self, seed):
        rng = random.Random(seed)
        compression = rng.choice((4, 7, 16, 64, 128))
        # Few distinct means, so equal means tie-break on weight.
        means = [rng.uniform(-50.0, 50.0) for _ in range(rng.randint(1, 40))]
        centroids = [
            (rng.choice(means), rng.choice((1, 1, 2, rng.randint(3, 500))))
            for _ in range(rng.randint(0, 300))
        ]
        total = sum(weight for _, weight in centroids) + rng.choice((0, 0, 1, 97))
        assert repr(QuantileSketch(compression)._compress(centroids, total)) == repr(
            asin_per_break_compress(compression, centroids, total)
        )
        # A merge's total and its operands' clustered (weight > 1) centroids.
        values = [rng.choice(means) + rng.random() for _ in range(rng.randint(1, 2000))]
        cut = rng.randint(0, len(values))
        first = QuantileSketch.from_values(values[:cut], compression)
        second = QuantileSketch.from_values(values[cut:], compression)
        first._flush()
        second._flush()
        pooled = first._centroids + second._centroids
        assert repr(first.merge(second)._centroids) == repr(
            asin_per_break_compress(compression, pooled, len(values))
        )


class TestAccuracy:
    def test_small_samples_are_near_exact(self):
        sketch = QuantileSketch.from_values([5.0, 1.0, 3.0])
        assert sketch.count == 3
        assert sketch.minimum == 1.0
        assert sketch.maximum == 5.0
        assert sketch.percentile(0.0) == 1.0
        assert sketch.percentile(100.0) == 5.0
        assert abs(sketch.median - 3.0) < 1e-9

    @pytest.mark.parametrize("p", [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0])
    def test_uniform_sample_within_rank_tolerance(self, p):
        rng = random.Random(7)
        values = [rng.random() for _ in range(5000)]
        sketch = QuantileSketch.from_values(values)
        assert abs(sketch.percentile(p) - exact_percentile(values, p)) < 0.02

    def test_skewed_sample_tails_stay_sharp(self):
        rng = random.Random(11)
        # Ratio-trajectory-shaped data: mostly near 1, a heavy early tail.
        values = [1.0 + rng.random() * 0.2 for _ in range(4000)]
        values += [5.0 + rng.random() * 20.0 for _ in range(80)]
        sketch = QuantileSketch.from_values(values)
        assert abs(sketch.median - exact_percentile(values, 50.0)) < 0.05
        assert sketch.percentile(99.0) > 2.0

    def test_centroid_count_stays_bounded(self):
        sketch = QuantileSketch(compression=32)
        for value in range(20_000):
            sketch.update(float(value % 997))
        sketch._flush()
        assert len(sketch._centroids) < 3 * 32


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=3,
            max_size=120,
        ),
        cut=st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9)),
    )
    def test_merge_is_associative(self, values, cut):
        """Exact for count/min/max; rank-accurate for quantiles.

        ``(a + b) + c`` and ``a + (b + c)`` must agree exactly on the
        lossless fields and within the digest's accuracy on quantile
        estimates, whatever the split points.
        """
        first = int(len(values) * cut[0])
        second = max(first + 1, int(len(values) * cut[1]))
        a = QuantileSketch.from_values(values[:first])
        b = QuantileSketch.from_values(values[first:second])
        c = QuantileSketch.from_values(values[second:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count == len(values)
        assert left.minimum == right.minimum == min(values)
        assert left.maximum == right.maximum == max(values)
        spread = max(values) - min(values)
        tolerance = spread * 0.15 + 1e-9
        # Absolute accuracy degrades with tiny samples (one value is a
        # whole rank step), so the vs-exact bound is rank-aware.
        exact_tolerance = spread * (0.25 + 2.0 / len(values)) + 1e-9
        for p in (10.0, 50.0, 90.0):
            assert abs(left.percentile(p) - right.percentile(p)) <= tolerance
            assert abs(left.percentile(p) - exact_percentile(values, p)) <= (
                exact_tolerance
            )

    def test_merge_does_not_mutate_operands(self):
        a = QuantileSketch.from_values([1.0, 2.0])
        b = QuantileSketch.from_values([3.0])
        merged = a.merge(b)
        assert merged.count == 3
        assert a.count == 2
        assert b.count == 1

    def test_merge_with_empty_is_identity_on_values(self):
        filled = QuantileSketch.from_values([1.0, 2.0, 3.0])
        empty = QuantileSketch()
        merged = filled.merge(empty)
        assert merged == filled
        assert empty.merge(filled) == filled

    def test_deterministic_for_fixed_chunking(self):
        values = [random.Random(3).random() for _ in range(500)]
        one = QuantileSketch.from_values(values)
        two = QuantileSketch.from_values(values)
        assert one == two
        assert one.merge(two).percentile(50.0) == two.merge(one).percentile(50.0)

    def test_pickle_round_trip(self):
        sketch = QuantileSketch.from_values(range(1000))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone == sketch
        assert clone.percentile(75.0) == sketch.percentile(75.0)


class TestValidation:
    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().percentile(50.0)

    def test_percentile_range_is_checked(self):
        sketch = QuantileSketch.from_values([1.0])
        with pytest.raises(ValueError):
            sketch.percentile(101.0)

    def test_compression_floor(self):
        with pytest.raises(ValueError):
            QuantileSketch(compression=1)

    def test_mismatched_compression_merge_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(compression=8).merge(QuantileSketch(compression=16))
