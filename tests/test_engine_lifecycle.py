"""The sharded engine with the mechanism lifecycle switched on.

Asserts that the engine's headline determinism contract survives the
lifecycle extension (``--workers N`` bit-identity with adaptive mechanisms,
epoch ticks and checkpoints), that the new per-shard retirement / epoch
counters merge correctly into :class:`~repro.engine.results.PartialResult`,
that the mergeable quantile sketch restores cross-shard percentiles, and
that the new CLI surface (``--epoch``, ``--skew-warn``,
``engine inspect`` / ``engine clean``) behaves.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.engine import EngineConfig, EngineInterrupted, run_engine
from repro.exceptions import EngineError

ADAPTIVE_CONFIG = EngineConfig(
    scenario="thread-churn",
    num_threads=24,
    num_objects=24,
    density=0.15,
    num_events=2400,
    seed=77,
    num_shards=3,
    chunk_size=400,
    epoch_every=150,
    mechanisms=("popularity", "adaptive-popularity", "epoch-hybrid"),
)


class TestAdaptiveEngineDeterminism:
    def test_parallel_jobs_bit_identical_with_adaptive_mechanisms(self):
        serial = run_engine(ADAPTIVE_CONFIG)
        parallel = run_engine(dataclasses.replace(ADAPTIVE_CONFIG, workers=2))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.partial == parallel.partial

    def test_interrupt_resume_with_lifecycle_state(self, tmp_path):
        """Adaptive mechanism state (live counts, live graphs) pickles
        through checkpoints and resumes to the uninterrupted fingerprint."""
        baseline = run_engine(ADAPTIVE_CONFIG)
        checkpointed = dataclasses.replace(
            ADAPTIVE_CONFIG,
            checkpoint_dir=str(tmp_path / "ck"),
            max_chunks_per_shard=1,
        )
        with pytest.raises(EngineInterrupted):
            run_engine(checkpointed)
        resumed = dataclasses.replace(
            ADAPTIVE_CONFIG, checkpoint_dir=str(tmp_path / "ck")
        )
        assert run_engine(resumed).fingerprint() == baseline.fingerprint()

    def test_epoch_every_is_part_of_the_signature(self):
        without = dataclasses.replace(ADAPTIVE_CONFIG, epoch_every=None)
        assert ADAPTIVE_CONFIG.signature() != without.signature()
        assert run_engine(ADAPTIVE_CONFIG).fingerprint() != run_engine(
            without
        ).fingerprint()

    def test_epoch_every_validation(self):
        bad = dataclasses.replace(ADAPTIVE_CONFIG, epoch_every=0)
        with pytest.raises(EngineError):
            bad.validate()


class TestLifecycleCounters:
    @pytest.fixture(scope="class")
    def result(self):
        return run_engine(ADAPTIVE_CONFIG)

    def test_epoch_boundaries_are_counted(self, result):
        # Each shard ticks every 150 of its own inserts; 2400 inserts over
        # 3 shards give at least a handful of boundaries in total.
        assert result.epochs == sum(
            loads // 150 for loads in result.shard_loads().values()
        )
        assert result.epochs > 0

    def test_retirements_merge_per_label(self, result):
        assert result.retired_components("adaptive-popularity") > 0
        assert result.retired_components("epoch-hybrid") > 0
        assert result.retired_components("popularity") == 0
        assert result.retired_components("offline") == 0

    def test_adaptive_final_sizes_beat_append_only(self, result):
        adaptive = sum(result.final_sizes("adaptive-popularity").values())
        append_only = sum(result.final_sizes("popularity").values())
        assert adaptive < append_only

    def test_format_reports_lifecycle_columns(self, result):
        text = result.format()
        assert "epoch boundaries" in text
        assert "retired" in text
        assert "ratio p50" in text


class TestCrossShardPercentiles:
    @pytest.fixture(scope="class")
    def result(self):
        return run_engine(ADAPTIVE_CONFIG)

    def test_sketch_counts_match_moment_counts(self, result):
        for label in ("popularity", "adaptive-popularity", "epoch-hybrid"):
            sketch = result.pooled_ratio_sketch(label)
            stats = result.pooled_ratios(label)
            assert sketch is not None
            assert sketch.count == stats.count
            assert sketch.minimum == stats.minimum
            assert sketch.maximum == stats.maximum

    def test_percentiles_are_ordered_and_bounded(self, result):
        sketch = result.pooled_ratio_sketch("popularity")
        p50 = sketch.percentile(50.0)
        p95 = sketch.percentile(95.0)
        assert sketch.minimum <= p50 <= p95 <= sketch.maximum
        assert sketch.median == p50

    def test_offline_series_has_no_sketch(self, result):
        assert result.pooled_ratio_sketch("offline") is None

    def test_windowed_run_supports_adaptive_mechanisms(self):
        config = EngineConfig(
            scenario="hot-object-drift",
            num_threads=20,
            num_objects=20,
            density=0.2,
            num_events=1500,
            seed=13,
            num_shards=2,
            chunk_size=500,
            window=200,
            epoch_every=100,
            mechanisms=("popularity", "adaptive-popularity"),
        )
        serial = run_engine(config)
        parallel = run_engine(dataclasses.replace(config, workers=2))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.retired_components("adaptive-popularity") > 0

    def test_stream_epoch_markers_reach_every_shard(self):
        """phase-change markers are broadcast: every shard ticks them."""
        config = EngineConfig(
            scenario="phase-change",
            num_threads=16,
            num_objects=16,
            density=0.2,
            num_events=1200,
            seed=3,
            num_shards=3,
            chunk_size=400,
            mechanisms=("popularity", "epoch-hybrid"),
        )
        result = run_engine(config)
        # 3 interior phase boundaries (default 4 phases) x 3 shards.
        assert result.epochs == 9
        pooled = run_engine(dataclasses.replace(config, workers=2))
        assert pooled.fingerprint() == result.fingerprint()

    def test_insert_less_shards_still_count_broadcast_epochs(self):
        """A shard that receives only markers must still tick its epochs.

        With 2 threads hashed over 6 shards most shards see no events at
        all - only the broadcast markers.  Their epoch counts (and the
        epoch-rebuild state of their mechanisms) ride in chunks with zero
        inserts, which used to be silently dropped.
        """
        config = EngineConfig(
            scenario="phase-change",
            num_threads=2,
            num_objects=8,
            density=0.3,
            num_events=400,
            seed=1,
            num_shards=6,
            chunk_size=100,
            mechanisms=("popularity", "epoch-hybrid"),
        )
        result = run_engine(config)
        assert result.epochs == 3 * 6
        pooled = run_engine(dataclasses.replace(config, workers=3))
        assert pooled.fingerprint() == result.fingerprint()

    def test_engine_finals_match_per_shard_one_pass_with_adaptive(self):
        """Per-shard engine finals == the serial one-pass driver's finals.

        The one-pass driver reads a mechanism's clock size *after* the
        whole (sub-)stream, trailing expires included; the engine must
        agree even when a shard's sub-stream ends in expire events that
        retire components (the count-0 lifecycle-fragment path).
        """
        from repro.computation import REGISTRY, STREAM
        from repro.engine.runner import run_shard_group
        from repro.engine.sharding import StreamSharder
        from repro.online import compare_mechanisms_on_stream, seed_mechanism_factories
        from repro.analysis.experiments import EXTENDED_MECHANISMS
        from repro.seeds import derive_seed

        config = ADAPTIVE_CONFIG
        scenario = REGISTRY.get(config.scenario, kind=STREAM)
        for shard_id in range(config.num_shards):
            partial = run_shard_group(config, (shard_id,))[shard_id]
            stream = scenario.build(
                config.num_threads,
                config.num_objects,
                config.density,
                config.num_events,
                seed=derive_seed(config.seed, config.scenario, "stream"),
            )
            sharder = StreamSharder(config.num_shards, config.strategy)
            sub_stream = (
                e for e in stream
                if e.is_epoch or sharder.shard_of(e.thread) == shard_id
            )
            factories = seed_mechanism_factories(
                {label: EXTENDED_MECHANISMS[label] for label in config.mechanisms},
                derive_seed(config.seed, config.scenario, "shard", shard_id),
            )
            reference = compare_mechanisms_on_stream(
                sub_stream,
                factories,
                include_offline=True,
                epoch=config.epoch_every,
            )
            for label in config.mechanisms:
                fragment = partial.series[(shard_id, label)]
                assert fragment.final_size == reference[label].final_size
                assert fragment.retired == reference[label].retired_components


class TestEngineCli:
    def test_run_accepts_epoch_and_adaptive_mechanisms(self, capsys):
        code = main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "600", "--nodes", "16", "--shards", "2",
                "--chunk-size", "200", "--epoch", "100",
                "--mechanisms", "popularity,adaptive-popularity",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "adaptive-popularity" in captured.out
        assert "epoch boundaries" in captured.out

    def test_skew_warning_fires_on_unbalanced_shards(self, capsys):
        # 2 threads over 4 hash shards guarantees empty shards -> inf skew.
        code = main(
            [
                "engine", "run", "--scenario", "hot-object-drift",
                "--events", "300", "--nodes", "2", "--shards", "4",
                "--chunk-size", "100", "--skew-warn", "2.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "shard load skew" in captured.err

    def test_skew_warning_can_be_disabled(self, capsys):
        code = main(
            [
                "engine", "run", "--scenario", "hot-object-drift",
                "--events", "300", "--nodes", "2", "--shards", "4",
                "--chunk-size", "100", "--skew-warn", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "shard load skew" not in captured.err

    def test_inspect_summarises_checkpoints(self, tmp_path, capsys):
        directory = str(tmp_path / "ck")
        assert main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "600", "--nodes", "16", "--shards", "2",
                "--chunk-size", "200", "--checkpoint-dir", directory,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["engine", "inspect", directory]) == 0
        captured = capsys.readouterr()
        assert "scenario: thread-churn" in captured.out
        assert "chunks_done" in captured.out
        assert "progress: 600/600" in captured.out

    def test_clean_prunes_unreferenced_files(self, tmp_path, capsys):
        directory = tmp_path / "ck"
        assert main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "600", "--nodes", "16", "--shards", "2",
                "--chunk-size", "200", "--checkpoint-dir", str(directory),
            ]
        ) == 0
        (generation,) = sorted(directory.glob("shard-0.*.pickle"))
        stale_shard = directory / "shard-7.1.pickle"
        orphan_tmp = directory / (generation.name + ".tmpabc")
        stale_shard.write_bytes(b"stale")
        orphan_tmp.write_bytes(b"orphan")
        capsys.readouterr()
        assert main(["engine", "clean", str(directory)]) == 0
        captured = capsys.readouterr()
        assert "pruned 2" in captured.out
        assert not stale_shard.exists()
        assert not orphan_tmp.exists()
        assert generation.exists()
        assert (directory / "manifest.json").exists()

    def test_inspect_rejects_non_checkpoint_directory(self, tmp_path, capsys):
        assert main(["engine", "inspect", str(tmp_path)]) == 2
        assert "not a checkpoint directory" in capsys.readouterr().err
