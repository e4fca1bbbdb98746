"""Mergeable partial results: the unit of exchange of the sharded engine.

A sharded run produces metrics in pieces - one piece per (shard, chunk) -
and the pieces must recombine into exactly the result a serial run would
have produced.  Everything here is built around that requirement:

* :class:`SeriesFragment` - the metrics of one mechanism (or the offline
  optimum) over one contiguous range of a shard's inserts: the clock-size
  samples (optionally strided), the final size, the cumulative
  component-retirement count, and - for the pointwise competitive ratios
  - both the mergeable moment statistics and a mergeable
  :class:`~repro.analysis.metrics.QuantileSketch`, which restores
  median / tail percentiles across shards at million-event scale;
* :class:`PartialResult` - a set of fragments keyed by ``(shard, label)``
  plus global event counts.  ``merge`` is the engine's only combining
  operation: fragments of *different* keys union (shards are
  independent), fragments of the *same* key concatenate (chunks of one
  shard), ordered by their start index so the operation is commutative.
  It is associative over every bracketing that only joins
  chunk-contiguous pieces - which every merge order the engine uses
  (chunks in order within a worker, shards in id order at the end)
  satisfies by construction;
* :class:`EngineResult` - the fully merged run: convenience accessors,
  a deterministic text rendering, and a :meth:`EngineResult.fingerprint`
  (SHA-256 over a canonical serialisation) that the CLI prints and the
  tests compare to assert ``--workers 1`` / ``--workers N`` bit-identity.

Trajectory samples are taken at shard-local insert indices ``i`` with
``i % stride == 0``.  Sampling is keyed to the *global* shard index, not
the chunk-local one, so fragment concatenation is stride-correct across
chunk boundaries regardless of how the run was chunked.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.metrics import MergeableStats, QuantileSketch
from repro.exceptions import EngineError

SeriesKey = Tuple[int, str]


@dataclass(frozen=True)
class SeriesFragment:
    """Metrics of one label over one contiguous insert range of one shard.

    ``start`` and ``count`` are in shard-local insert coordinates:
    the fragment covers inserts ``start .. start + count - 1`` of its
    shard's sub-stream.  ``samples`` holds the clock sizes at the covered
    indices divisible by ``stride``; ``final_size`` is the clock size at
    the fragment's end (after its last covered insert *and* any trailing
    expire / epoch ticks the producing chunk delivered).
    ``ratios`` summarises the pointwise online/offline ratios of the
    covered inserts (empty for the offline label itself, and when the
    run disabled the optimum); ``sketch`` is the mergeable quantile
    companion of the same samples, restoring median / tail percentiles
    across shards (``None`` when no ratios were recorded).  ``retired``
    is the label's *cumulative* component-retirement count as of the
    fragment's end, 0 forever for append-only mechanisms.

    A fragment with ``count == 0`` is a *lifecycle-update* record: a
    chunk that covered no inserts but whose expire / epoch ticks moved
    the mechanism's clock (a window-aware mechanism retiring between
    inserts, an epoch rebuild on an otherwise idle shard).  It
    contributes no samples or ratios; its ``final_size`` / ``retired``
    are the state at its range end, which merging carries forward.

    ``stamp_digest`` is the cumulative 64-bit timestamp digest as of the
    fragment's end (see :func:`repro.core.kernel.fold_stamp_values`),
    recorded only by runs with the timestamping stage enabled
    (``EngineConfig.timestamps``); like ``retired`` it is cumulative, so
    merging carries the temporally later fragment's value.  ``None``
    fragments (the offline series, timestamp-less runs) contribute
    nothing to the fingerprint, keeping it unchanged for existing runs.
    """

    start: int
    count: int
    stride: int
    final_size: int
    samples: Tuple[int, ...] = ()
    ratios: MergeableStats = field(default_factory=MergeableStats)
    sketch: Optional[QuantileSketch] = None
    retired: int = 0
    stamp_digest: Optional[int] = None

    @property
    def end(self) -> int:
        """One past the last covered shard-local insert index."""
        return self.start + self.count

    def merge(self, other: "SeriesFragment") -> "SeriesFragment":
        """Concatenate two fragments of the same (shard, label) key.

        Order-insensitive: the fragment with the smaller start index is
        treated as the earlier chunk.  Raises :class:`EngineError` when
        the two ranges are not contiguous (a merge tree that skipped a
        chunk is a driver bug, and silently producing a gapped series
        would poison every downstream statistic).
        """
        earlier, later = (self, other) if self.start <= other.start else (other, self)
        if earlier.stride != later.stride:
            raise EngineError(
                f"cannot merge fragments with strides {earlier.stride} and "
                f"{later.stride}"
            )
        if earlier.end != later.start:
            raise EngineError(
                f"cannot merge non-contiguous fragments: [{earlier.start}, "
                f"{earlier.end}) then [{later.start}, {later.end})"
            )
        if earlier.sketch is None:
            sketch = later.sketch
        elif later.sketch is None:
            sketch = earlier.sketch
        else:
            sketch = earlier.sketch.merge(later.sketch)
        # Contiguity makes ``later`` temporally last, so its carried
        # state (final size, cumulative retirements, cumulative stamp
        # digest) wins even when it is a count-0 lifecycle-update
        # fragment.
        return SeriesFragment(
            start=earlier.start,
            count=earlier.count + later.count,
            stride=earlier.stride,
            final_size=later.final_size,
            samples=earlier.samples + later.samples,
            ratios=earlier.ratios.merge(later.ratios),
            sketch=sketch,
            retired=later.retired,
            stamp_digest=(
                later.stamp_digest
                if later.stamp_digest is not None
                else earlier.stamp_digest
            ),
        )


@dataclass(frozen=True)
class PartialResult:
    """The mergeable metrics of any subset of a run's (shard, chunk) grid.

    ``series`` maps ``(shard_id, label)`` to that pair's fragment;
    ``inserts`` / ``expires`` / ``epochs`` count the stream events and
    epoch boundaries the subset covered (epochs sum across shards: each
    shard ticks its own).  Treat instances as immutable: ``merge``
    returns a new object and never mutates either operand's mapping.
    """

    inserts: int = 0
    expires: int = 0
    epochs: int = 0
    series: Mapping[SeriesKey, SeriesFragment] = field(default_factory=dict)

    def merge(self, other: "PartialResult") -> "PartialResult":
        """Combine two partials (see the module docstring for the algebra)."""
        merged: Dict[SeriesKey, SeriesFragment] = dict(self.series)
        for key, fragment in other.series.items():
            existing = merged.get(key)
            merged[key] = fragment if existing is None else existing.merge(fragment)
        return PartialResult(
            inserts=self.inserts + other.inserts,
            expires=self.expires + other.expires,
            epochs=self.epochs + other.epochs,
            series=merged,
        )

    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted({shard for shard, _ in self.series}))

    def labels(self) -> Tuple[str, ...]:
        return tuple(sorted({label for _, label in self.series}))

    def fragment(self, shard_id: int, label: str) -> SeriesFragment:
        try:
            return self.series[(shard_id, label)]
        except KeyError:
            raise EngineError(
                f"no series recorded for shard {shard_id}, label {label!r}"
            ) from None


def merge_partials(partials: List[PartialResult]) -> PartialResult:
    """Left-fold ``partials`` in list order into one result."""
    merged = PartialResult()
    for partial in partials:
        merged = merged.merge(partial)
    return merged


@dataclass(frozen=True)
class EngineResult:
    """A fully merged sharded run, plus the configuration that shaped it.

    The identity of a run's numbers is exactly ``(scenario parameters,
    root seed, shard structure, chunk size, window, mechanisms)`` - and
    deliberately *not* the worker count or executor backend, which is the
    engine's central determinism guarantee.  :meth:`fingerprint` distils
    the merged metrics into one hex digest so that guarantee is cheap to
    assert from tests and visible from the CLI.
    """

    scenario: str
    num_shards: int
    strategy: str
    seed: int
    window: Optional[int]
    chunk_size: int
    mechanisms: Tuple[str, ...]
    partial: PartialResult

    @property
    def inserts(self) -> int:
        return self.partial.inserts

    @property
    def expires(self) -> int:
        return self.partial.expires

    @property
    def epochs(self) -> int:
        return self.partial.epochs

    def final_sizes(self, label: str) -> Dict[int, int]:
        """Final clock size per shard for one mechanism label."""
        return {
            shard: fragment.final_size
            for (shard, lbl), fragment in self.partial.series.items()
            if lbl == label
        }

    def retired_components(self, label: str) -> int:
        """Total components retired by one label, summed over shards."""
        return sum(
            fragment.retired
            for (_, lbl), fragment in self.partial.series.items()
            if lbl == label
        )

    def pooled_ratios(self, label: str) -> MergeableStats:
        """Competitive-ratio statistics pooled over every shard."""
        pooled = MergeableStats()
        for shard in self.partial.shard_ids():
            key = (shard, label)
            if key in self.partial.series:
                pooled = pooled.merge(self.partial.series[key].ratios)
        return pooled

    def pooled_ratio_sketch(self, label: str) -> Optional[QuantileSketch]:
        """Mergeable quantile sketch of the ratios, pooled over shards.

        Folded in shard-id order (the fixed merge tree), so the result -
        and the percentiles derived from it - is identical across
        ``--workers`` values.  ``None`` when no shard recorded ratios for
        the label (the offline series, or optimum-less runs).
        """
        pooled: Optional[QuantileSketch] = None
        for shard in self.partial.shard_ids():
            fragment = self.partial.series.get((shard, label))
            if fragment is None or fragment.sketch is None:
                continue
            pooled = fragment.sketch if pooled is None else pooled.merge(fragment.sketch)
        return pooled

    def shard_loads(self) -> Dict[int, int]:
        """Insert count per shard, including shards that received nothing.

        (An empty shard freezes no fragment, so it would be invisible in
        ``partial.series``; the skew check needs to see its zero.)
        """
        loads: Dict[int, int] = {shard: 0 for shard in range(self.num_shards)}
        for (shard, _), fragment in self.partial.series.items():
            loads[shard] = fragment.count
        return loads

    def shard_skew(self) -> float:
        """Max/min shard load ratio (``inf`` when a shard got nothing).

        The hash strategy can skew badly when the thread population is
        tiny relative to the shard count; the CLI warns when this ratio
        exceeds its ``--skew-warn`` bound.  1.0 for runs with at most one
        shard or no inserts at all.
        """
        loads = self.shard_loads()
        if len(loads) <= 1:
            return 1.0
        heaviest = max(loads.values())
        lightest = min(loads.values())
        if heaviest == 0:
            return 1.0
        if lightest == 0:
            return math.inf
        return heaviest / lightest

    def _canonical_lines(self) -> List[str]:
        """One line per series, in sorted key order (the fingerprint input).

        Floats are rendered with ``repr`` (shortest exact round-trip), so
        two results fingerprint equal iff their metrics are bit-identical.
        """
        lines = [
            f"scenario={self.scenario} shards={self.num_shards} "
            f"strategy={self.strategy} seed={self.seed} window={self.window} "
            f"chunk={self.chunk_size} inserts={self.inserts} "
            f"expires={self.expires} epochs={self.epochs}"
        ]
        for (shard, label), frag in sorted(self.partial.series.items()):
            stats = frag.ratios
            sketch = frag.sketch
            if sketch is not None and sketch.count:
                quantiles = (
                    f"{sketch.percentile(50.0)!r}/{sketch.percentile(95.0)!r}"
                )
            else:
                quantiles = "-"
            # The stamp-digest suffix appears only when the timestamping
            # stage ran, so fingerprints of existing (timestamp-less)
            # configurations are byte-identical to previous releases.
            digest_suffix = (
                f" stamps={frag.stamp_digest:#018x}"
                if frag.stamp_digest is not None
                else ""
            )
            lines.append(
                f"shard={shard} label={label} start={frag.start} "
                f"count={frag.count} stride={frag.stride} "
                f"final={frag.final_size} retired={frag.retired} "
                f"samples={frag.samples!r} "
                f"ratio_count={stats.count} ratio_mean={stats.mean!r} "
                f"ratio_m2={stats.m2!r} ratio_min={stats.minimum!r} "
                f"ratio_max={stats.maximum!r} ratio_p50_p95={quantiles}"
                + digest_suffix
            )
        return lines

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical metric serialisation."""
        digest = hashlib.sha256()
        for line in self._canonical_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def format(self) -> str:
        """Deterministic text report: per-mechanism pooled metrics + shards."""
        from repro.analysis.report import format_table

        header = (
            f"engine run: scenario={self.scenario} shards={self.num_shards} "
            f"({self.strategy}) seed={self.seed} "
            f"window={self.window if self.window is not None else '-'} "
            f"chunk={self.chunk_size}\n"
            f"events: {self.inserts} inserts, {self.expires} expires, "
            f"{self.epochs} epoch boundaries"
        )
        rows: List[Dict[str, object]] = []
        for label in self.partial.labels():
            finals = self.final_sizes(label)
            stats = self.pooled_ratios(label)
            sketch = self.pooled_ratio_sketch(label)
            row: Dict[str, object] = {
                "series": label,
                "final(sum)": sum(finals.values()),
                "final(max)": max(finals.values()) if finals else 0,
                "retired": self.retired_components(label),
            }
            if stats.count:
                row["ratio mean"] = f"{stats.mean:.3f}"
                row["ratio max"] = f"{stats.maximum:.3f}"
            else:
                row["ratio mean"] = "-"
                row["ratio max"] = "-"
            if sketch is not None and sketch.count:
                row["ratio p50"] = f"{sketch.percentile(50.0):.3f}"
                row["ratio p95"] = f"{sketch.percentile(95.0):.3f}"
            else:
                row["ratio p50"] = "-"
                row["ratio p95"] = "-"
            rows.append(row)
        shard_rows: List[Dict[str, object]] = []
        for shard in self.partial.shard_ids():
            fragments = {
                label: self.partial.series[(shard, label)]
                for label in self.partial.labels()
                if (shard, label) in self.partial.series
            }
            # Every label's fragment covers the same inserts of its shard,
            # so any one of them carries the shard's insert count.
            shard_row: Dict[str, object] = {
                "shard": shard,
                "inserts": next(iter(fragments.values())).count,
            }
            for label, fragment in fragments.items():
                shard_row[label] = fragment.final_size
            shard_rows.append(shard_row)
        return (
            header
            + "\n\n"
            + format_table(rows)
            + "\n\n"
            + format_table(shard_rows)
            + f"\n\nfingerprint: {self.fingerprint()}"
        )
