"""Small statistics helpers used by the experiment harness and reports.

The paper's figures plot the *final vector clock size* of each mechanism,
averaged over random graphs.  We keep the statistics dependency-free
(mean, standard deviation, confidence half-width via the normal
approximation) so the harness runs anywhere; numpy is only used by the
benchmarks for convenience, never required here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class SummaryStats:
    """Mean / spread summary of one metric over repeated trials.

    When built through :func:`summarize`, the sorted sample is retained
    in :attr:`sorted_values`, which unlocks the order statistics
    (:attr:`median`, :meth:`percentile`).  Ratio trajectories are heavily
    skewed (a handful of early burn-in events can dwarf the steady-state
    tail), so mean ± CI alone misrepresents them.
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    sorted_values: Tuple[float, ...] = ()

    @property
    def stderr(self) -> float:
        """Standard error of the mean (0 for a single trial)."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the ~95% confidence interval (normal approximation)."""
        return z * self.stderr

    @property
    def median(self) -> float:
        """The 50th percentile of the summarised sample."""
        return self.percentile(50.0)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) via linear interpolation.

        Requires the summary to carry its sample (:func:`summarize` keeps
        it; hand-built instances may not), because order statistics cannot
        be reconstructed from the moments alone.
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.sorted_values:
            raise ValueError(
                "this SummaryStats carries no sample values; "
                "build it with summarize() to enable percentiles"
            )
        if len(self.sorted_values) == 1:
            return self.sorted_values[0]
        rank = (p / 100.0) * (len(self.sorted_values) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return self.sorted_values[low]
        fraction = rank - low
        return (
            self.sorted_values[low] * (1.0 - fraction)
            + self.sorted_values[high] * fraction
        )

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.confidence_halfwidth():.2f} (n={self.count})"


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` for a sequence of trial values."""
    data: List[float] = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarise an empty sequence")
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        variance = 0.0
    return SummaryStats(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=data[0],
        maximum=data[-1],
        sorted_values=tuple(data),
    )


@dataclass(frozen=True)
class MergeableStats:
    """Moment statistics that combine associatively across partial runs.

    :class:`SummaryStats` keeps its sorted sample, which is exactly right
    for a few hundred sweep trials and exactly wrong for a million-event
    sharded run: partial results must travel between worker processes and
    merge in O(1), not O(samples).  This class keeps only the running
    moments (count, mean, M2 = sum of squared deviations) plus min/max,
    merged with Chan et al.'s parallel update - the standard mergeable
    summary for distributed aggregation.

    Determinism contract: merging is exact for ``count``/``minimum``/
    ``maximum`` and floating-point for ``mean``/``m2``, so two runs that
    merge the *same* partials in the *same* order agree bit-for-bit
    (this is what makes ``--workers 1`` and ``--workers N`` engine runs
    identical - the merge tree is fixed by shard and chunk structure, not
    by worker scheduling).  Different chunkings of the same sample stream
    agree only up to float rounding, as with any non-associative float
    accumulation.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def merge(self, other: "MergeableStats") -> "MergeableStats":
        """Combine two partials (Chan's parallel moments update)."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / count)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / count)
        return MergeableStats(
            count=count,
            mean=mean,
            m2=m2,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def std(self) -> float:
        """Sample standard deviation (Bessel-corrected, 0 below 2 samples)."""
        if self.count <= 1:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / (self.count - 1))

    def to_summary(self) -> SummaryStats:
        """Downgrade to :class:`SummaryStats` (without order statistics).

        The result supports mean/std/CI but not :attr:`SummaryStats.median`
        or percentiles - those need the sample, which a mergeable partial
        deliberately does not carry.
        """
        if self.count == 0:
            raise ValueError("cannot summarise an empty MergeableStats")
        return SummaryStats(
            count=self.count,
            mean=self.mean,
            std=self.std,
            minimum=self.minimum,
            maximum=self.maximum,
        )


class QuantileSketch:
    """Mergeable quantile summary (t-digest style, stdlib-only).

    :class:`MergeableStats` restored mean/std at million-event scale but
    surrendered the order statistics: medians and tail percentiles need
    the sample, and a mergeable partial deliberately does not carry it.
    This sketch carries a *compressed* sample instead - at most
    ``~2 * compression`` centroids ``(mean, weight)``, with centroid
    capacity shrinking towards the distribution's tails (the t-digest
    scale function ``k(q) = compression * (asin(2q - 1) / pi + 1/2)``),
    so extreme percentiles stay sharp while the bulk is summarised
    coarsely.  ``update`` (one value) and ``update_many`` (a run, one call)
    buffer values and pay one ``O(centroids)`` rescan per ``compression``
    of them.  Both flush whenever the buffer fills, with ``count`` already
    including the value that filled it: the engine fingerprint includes
    sketch percentiles, so the flush points are fixed.  ``merge`` is
    O(centroids); all are deterministic pure functions of the inserted
    sequence *and the merge/chunk structure* - a fixed merge tree (the
    engine's chunks-then-shards order) therefore yields bit-identical
    sketches across worker counts.  Different chunkings agree only
    approximately, like any t-digest; ``count`` / ``minimum`` /
    ``maximum`` are exact under every bracketing, and quantile estimates
    stay within the digest's rank accuracy (the associativity property
    test pins both).

    Treat instances frozen into a
    :class:`~repro.engine.results.SeriesFragment` as immutable: ``merge``
    returns a new sketch and never mutates its operands.
    """

    __slots__ = ("compression", "count", "minimum", "maximum", "_centroids", "_buffer")

    def __init__(self, compression: int = 64) -> None:
        if compression < 4:
            raise ValueError(f"compression must be >= 4, got {compression}")
        self.compression = compression
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._centroids: List[Tuple[float, int]] = []
        self._buffer: List[float] = []

    @classmethod
    def from_values(
        cls, values: Iterable[float], compression: int = 64
    ) -> "QuantileSketch":
        sketch = cls(compression)
        sketch.update_many(values)
        return sketch

    # -- building -----------------------------------------------------------
    def update(self, value: float) -> None:
        """Insert one value (amortised O(1))."""
        value = float(value)
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._buffer.append(value)
        if len(self._buffer) >= self.compression:
            self._flush()

    def update_many(self, values: Iterable[float]) -> None:
        """Insert a run: the same state, flush points included, as ``update`` each."""
        buffer, compression = self._buffer, self.compression
        count, low, high = self.count, self.minimum, self.maximum
        for value in values:
            value = float(value)
            count += 1
            if value < low:
                low = value
            if value > high:
                high = value
            buffer.append(value)
            if len(buffer) >= compression:
                self.count = count
                self._flush()
                buffer = self._buffer
        self.count, self.minimum, self.maximum = count, low, high

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches into a new one (both operands untouched)."""
        if self.compression != other.compression:
            raise ValueError(
                f"cannot merge sketches with compressions {self.compression} "
                f"and {other.compression}"
            )
        merged = QuantileSketch(self.compression)
        merged.count = self.count + other.count
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        self._flush()
        other._flush()
        merged._centroids = self._compress(
            self._centroids + other._centroids, merged.count
        )
        return merged

    def _flush(self) -> None:
        """Fold buffered values into the centroid list."""
        if not self._buffer:
            return
        pending = [(value, 1) for value in self._buffer]
        self._buffer = []
        self._centroids = self._compress(self._centroids + pending, self.count)

    def _compress(
        self, centroids: List[Tuple[float, int]], total: int
    ) -> List[Tuple[float, int]]:
        """Greedy left-to-right re-clustering bounded by the scale function.

        Deterministic: centroids are sorted by ``(mean, weight)`` and
        scanned once; a neighbour is absorbed iff the combined cluster
        still spans less than one unit of ``k(q)``, inlined and unclamped:
        no prefix of the integer weights exceeds ``total``, so ``q <= 1``.
        A cluster that starts at item ``j`` needs ``k`` at the prefix
        before ``j``, which the test at item ``j - 1`` computed from the
        same integer prefix, so one ``asin`` per item suffices (plus one
        for the first item's prefix).
        """
        if not centroids:
            return []
        ordered = sorted(centroids)
        asin, pi, compression = math.asin, math.pi, self.compression
        compressed: List[Tuple[float, int]] = []
        mean, weight = ordered[0]
        seen = 0  # weight strictly before the current cluster
        limit = 1.0  # k(0) + 1, and k(0) is exactly 0
        previous = compression * (asin(2.0 * (weight / total) - 1.0) / pi + 0.5)
        for next_mean, next_weight in ordered[1:]:
            q = (seen + weight + next_weight) / total
            k = compression * (asin(2.0 * q - 1.0) / pi + 0.5)
            if k <= limit:
                # Weighted mean; weights are ints so only the mean rounds.
                combined = weight + next_weight
                mean += (next_mean - mean) * (next_weight / combined)
                weight = combined
            else:
                compressed.append((mean, weight))
                seen += weight
                limit = previous + 1.0
                mean, weight = next_mean, next_weight
            previous = k
        compressed.append((mean, weight))
        return compressed

    # -- querying -----------------------------------------------------------
    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) estimate via centroid interpolation."""
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise ValueError("cannot query an empty QuantileSketch")
        self._flush()
        if p == 0.0:
            return self.minimum
        if p == 100.0:
            return self.maximum
        target = (p / 100.0) * self.count
        # Centroid i notionally spans the rank interval centred at
        # cumulative-weight-so-far + weight/2; interpolate between
        # neighbouring centres, clamped by the exact extremes.
        seen = 0.0
        previous_centre = 0.0
        previous_mean = self.minimum
        for mean, weight in self._centroids:
            centre = seen + weight / 2.0
            if target <= centre:
                span = centre - previous_centre
                fraction = (target - previous_centre) / span if span else 0.0
                return previous_mean + (mean - previous_mean) * fraction
            seen += weight
            previous_centre = centre
            previous_mean = mean
        span = self.count - previous_centre
        fraction = (target - previous_centre) / span if span else 1.0
        return previous_mean + (self.maximum - previous_mean) * fraction

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def __eq__(self, other: object) -> bool:
        """Value equality over the flushed centroid state.

        Two sketches built from the same inserts through the same
        chunk/merge structure compare equal - the property the engine's
        ``--workers N == --workers 1`` partial-result assertion relies on.
        """
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        self._flush()
        other._flush()
        return (
            self.compression == other.compression
            and self.count == other.count
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self._centroids == other._centroids
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._flush()
        return (
            f"QuantileSketch(count={self.count}, centroids={len(self._centroids)}, "
            f"min={self.minimum}, max={self.maximum})"
        )


class RunningStats:
    """Mutable single-pass accumulator producing a :class:`MergeableStats`.

    The hot-path companion: per-event updates mutate in place (Welford),
    and :meth:`freeze` emits the immutable mergeable snapshot at chunk
    boundaries.  Kept separate from :class:`MergeableStats` so the frozen
    value that travels between processes stays hashable and immutable.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def update_many(self, values: Iterable[float]) -> None:
        """``update`` per value, in order: Welford's float rounding is kept."""
        count, mean, m2 = self.count, self.mean, self.m2
        low, high = self.minimum, self.maximum
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < low:
                low = value
            if value > high:
                high = value
        self.count, self.mean, self.m2 = count, mean, m2
        self.minimum, self.maximum = low, high

    def freeze(self) -> MergeableStats:
        return MergeableStats(
            count=self.count,
            mean=self.mean,
            m2=self.m2,
            minimum=self.minimum,
            maximum=self.maximum,
        )


def summarize_by_key(trials: Sequence[Mapping[str, float]]) -> Dict[str, SummaryStats]:
    """Summarise a list of per-trial metric dicts key by key.

    Keys missing from some trials are summarised over the trials that do
    contain them.
    """
    collected: Dict[str, List[float]] = {}
    for trial in trials:
        for key, value in trial.items():
            collected.setdefault(key, []).append(float(value))
    return {key: summarize(values) for key, values in collected.items()}


def relative_reduction(baseline: float, improved: float) -> float:
    """Fractional reduction of ``improved`` relative to ``baseline``.

    ``0.3`` means "30% smaller than the baseline".  Returns ``0.0`` when the
    baseline is zero (no meaningful reduction can be expressed).
    """
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline


def competitive_ratio_trajectory(
    online_sizes: Sequence[float], offline_sizes: Sequence[float]
) -> List[float]:
    """Pointwise ratio of an online clock-size trajectory to the optimum.

    ``result[i] = online_sizes[i] / offline_sizes[i]`` - how far above the
    per-event offline optimum a mechanism sits after the ``i``-th revealed
    event.  This is the competitive-ratio-over-time series enabled by the
    incremental optimum trajectory (Figs. 6-7 extension); the paper's
    single competitive-ratio number is ``result[-1]``.

    A zero optimum (possible only before any edge is revealed) is treated
    as ratio ``1.0``: both sizes are necessarily zero there.
    """
    if len(online_sizes) != len(offline_sizes):
        raise ValueError("online and offline trajectories must have equal length")
    return [
        online / offline if offline else 1.0
        for online, offline in zip(online_sizes, offline_sizes)
    ]


def crossover_point(
    xs: Sequence[float], series_a: Sequence[float], series_b: Sequence[float]
) -> float:
    """The first x at which series ``a`` stops being below series ``b``.

    Used to locate the density / node-count thresholds the paper discusses
    (where Random/Popularity stop beating Naive).  Returns ``math.inf`` if
    ``a`` stays below ``b`` over the whole range.
    """
    if not (len(xs) == len(series_a) == len(series_b)):
        raise ValueError("all three sequences must have the same length")
    for x, a, b in zip(xs, series_a, series_b):
        if a >= b:
            return x
    return math.inf
