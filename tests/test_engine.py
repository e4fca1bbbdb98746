"""Tests for the sharded execution engine (repro.engine).

The engine's whole value is one guarantee: a run's merged metrics are a
pure function of its configuration - independent of worker count,
backend, and interrupt/resume history.  Most tests here attack that
guarantee from a different angle (worker-pool parallelism, checkpoint
cycles, per-shard reference reconstruction); the rest cover the
subsystem's parts (sharder, mergeable partials, seed derivation) in
isolation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.metrics import MergeableStats, RunningStats, summarize
from repro.cli import main
from repro.computation.streams import StreamEvent, thread_churn_stream
from repro.engine import (
    EngineConfig,
    EngineInterrupted,
    HASH,
    OFFLINE_LABEL,
    PartialResult,
    ROUND_ROBIN,
    SeriesFragment,
    StreamSharder,
    WorkerPool,
    merge_partials,
    run_engine,
    run_shard_group,
    stable_vertex_hash,
)
import repro.engine.checkpoint as checkpoint_module
from repro.engine.checkpoint import EngineCheckpointManager
from repro.exceptions import EngineError
from repro.seeds import derive_seed, spawn_seeds, splitmix64


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------
class TestSeeds:
    def test_derivation_is_deterministic_and_label_sensitive(self):
        a = derive_seed(2019, "thread-churn", "shard", 0, "random")
        b = derive_seed(2019, "thread-churn", "shard", 0, "random")
        c = derive_seed(2019, "thread-churn", "shard", 1, "random")
        d = derive_seed(2019, "thread-churn", "shard", 0, "naive")
        assert a == b
        assert len({a, c, d}) == 3

    def test_type_distinguishes_path_parts(self):
        assert derive_seed(7, 1) != derive_seed(7, "1")
        assert derive_seed(7, 1) != derive_seed(7, 1.0)

    def test_known_value_pins_the_algorithm(self):
        # Changing the derivation algorithm silently re-seeds every
        # experiment in the repo; this pin makes that an explicit choice.
        assert splitmix64(0) == 16294208416658607535
        assert derive_seed(2019, "x") == 4812136287394512218

    def test_spawn_seeds_are_distinct(self):
        seeds = spawn_seeds(11, 32, "trial")
        assert len(set(seeds)) == 32


# ---------------------------------------------------------------------------
# Sharder
# ---------------------------------------------------------------------------
def _churn(events=300, threads=12, objects=16, seed=5):
    return thread_churn_stream(threads, objects, 0.3, events, seed=seed)


class TestStreamSharder:
    def test_hash_assignment_is_stable_across_instances(self):
        a = StreamSharder(4, HASH)
        b = StreamSharder(4, HASH)
        for i in range(50):
            assert a.shard_of(f"T{i}") == b.shard_of(f"T{i}")

    def test_stable_hash_ignores_process_randomisation(self):
        # The stable hash is pure arithmetic over the repr; a fixed pin
        # proves no hash() leakage (hash() varies per process for str).
        assert stable_vertex_hash("T0") == stable_vertex_hash("T0")
        assert stable_vertex_hash("T0") != stable_vertex_hash("T1")
        assert stable_vertex_hash(1) != stable_vertex_hash("1")

    def test_round_robin_assigns_by_first_appearance(self):
        sharder = StreamSharder(3, ROUND_ROBIN)
        events = [StreamEvent("TC", "O0"), StreamEvent("TA", "O0"),
                  StreamEvent("TC", "O1"), StreamEvent("TB", "O0")]
        tagged = list(sharder.split(events))
        assert [shard for shard, _ in tagged] == [0, 1, 0, 2]

    def test_expires_follow_their_thread(self):
        sharder = StreamSharder(5, HASH)
        for shard, event in sharder.split(_churn()):
            assert shard == StreamSharder(5, HASH).shard_of(event.thread)

    def test_select_is_the_filter_of_split(self):
        events = list(_churn())
        reference = {
            shard_id: [e for s, e in StreamSharder(3, HASH).split(events)
                       if s == shard_id]
            for shard_id in range(3)
        }
        for shard_id in range(3):
            selected = list(StreamSharder(3, HASH).select(events, shard_id))
            assert selected == reference[shard_id]

    def test_shards_partition_the_stream(self):
        events = list(_churn())
        pieces = [list(StreamSharder(4, ROUND_ROBIN).select(events, s))
                  for s in range(4)]
        assert sum(len(p) for p in pieces) == len(events)

    def test_sub_streams_stay_multiset_consistent(self):
        # Per shard, no edge is ever expired more often than inserted so
        # far - the DynamicMatching contract sharding must preserve.
        events = list(_churn(events=500))
        for shard_id in range(4):
            live = {}
            for event in StreamSharder(4, HASH).select(events, shard_id):
                if event.is_insert:
                    live[event.pair] = live.get(event.pair, 0) + 1
                else:
                    assert live.get(event.pair, 0) > 0
                    live[event.pair] -= 1

    def test_invalid_configuration_raises(self):
        with pytest.raises(EngineError):
            StreamSharder(0)
        with pytest.raises(EngineError):
            StreamSharder(2, "modulo")
        with pytest.raises(EngineError):
            list(StreamSharder(2).select([], 2))


# ---------------------------------------------------------------------------
# Mergeable statistics and partial results
# ---------------------------------------------------------------------------
class TestMergeableStats:
    def test_chunked_merge_matches_single_pass_moments(self):
        values = [float(v % 7) + 0.25 for v in range(200)]
        single = RunningStats()
        for value in values:
            single.update(value)
        left, right = RunningStats(), RunningStats()
        for value in values[:80]:
            left.update(value)
        for value in values[80:]:
            right.update(value)
        merged = left.freeze().merge(right.freeze())
        reference = summarize(values)
        assert merged.count == 200
        assert merged.mean == pytest.approx(reference.mean)
        assert merged.std == pytest.approx(reference.std)
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum
        assert merged.to_summary().mean == pytest.approx(reference.mean)

    def test_empty_is_the_identity(self):
        stats = RunningStats()
        stats.update(3.0)
        frozen = stats.freeze()
        assert MergeableStats().merge(frozen) == frozen
        assert frozen.merge(MergeableStats()) == frozen

    def test_empty_to_summary_raises(self):
        with pytest.raises(ValueError):
            MergeableStats().to_summary()


def _fragment(start, sizes, stride=1):
    return SeriesFragment(
        start=start,
        count=len(sizes),
        stride=stride,
        final_size=sizes[-1],
        samples=tuple(sizes),
    )


class TestPartialResults:
    def test_fragment_merge_is_commutative_concatenation(self):
        a, b = _fragment(0, [1, 2]), _fragment(2, [2, 3, 3])
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).samples == (1, 2, 2, 3, 3)
        assert a.merge(b).final_size == 3

    def test_fragment_merge_rejects_gaps_and_stride_mismatch(self):
        with pytest.raises(EngineError):
            _fragment(0, [1]).merge(_fragment(2, [2]))
        with pytest.raises(EngineError):
            _fragment(0, [1]).merge(_fragment(1, [2], stride=2))

    def test_partial_merge_unions_shards_and_chains_chunks(self):
        chunk1 = PartialResult(
            inserts=2, expires=0, series={(0, "naive"): _fragment(0, [1, 2])}
        )
        chunk2 = PartialResult(
            inserts=1, expires=1, series={(0, "naive"): _fragment(2, [2])}
        )
        other_shard = PartialResult(
            inserts=3, expires=0, series={(1, "naive"): _fragment(0, [1, 1, 2])}
        )
        merged = merge_partials([chunk1, chunk2, other_shard])
        assert merged.inserts == 6 and merged.expires == 1
        assert merged.fragment(0, "naive").samples == (1, 2, 2)
        assert merged.fragment(1, "naive").count == 3
        # In-order bracketings agree (associativity over adjacent joins).
        left = chunk1.merge(chunk2).merge(other_shard)
        right = chunk1.merge(chunk2.merge(other_shard))
        assert left == right

    def test_missing_fragment_raises(self):
        with pytest.raises(EngineError):
            PartialResult().fragment(0, "naive")


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_serial_preserves_task_order(self):
        assert WorkerPool(1).map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_negative_jobs_rejected(self):
        with pytest.raises(EngineError):
            WorkerPool(-1)
        with pytest.raises(EngineError):
            run_engine(dataclasses.replace(BASE_CONFIG, workers=-2))

    def test_parallel_preserves_task_order(self):
        assert WorkerPool(2).map(splitmix64, list(range(6))) == [
            splitmix64(i) for i in range(6)
        ]


# ---------------------------------------------------------------------------
# The engine itself
# ---------------------------------------------------------------------------
BASE_CONFIG = EngineConfig(
    scenario="thread-churn",
    num_threads=16,
    num_objects=24,
    density=0.25,
    num_events=900,
    seed=424,
    num_shards=3,
    chunk_size=200,
    trajectory_stride=1,
)


class TestEngineDeterminism:
    def test_parallel_jobs_match_serial_bit_for_bit(self):
        serial = run_engine(BASE_CONFIG)
        parallel = run_engine(dataclasses.replace(BASE_CONFIG, workers=3))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.partial == parallel.partial

    def test_chunk_size_does_not_change_series(self):
        # Trajectories, counts and finals are exactly chunking-invariant;
        # pooled float moments only up to rounding (documented contract).
        small = run_engine(dataclasses.replace(BASE_CONFIG, chunk_size=7))
        large = run_engine(dataclasses.replace(BASE_CONFIG, chunk_size=900))
        assert small.inserts == large.inserts
        assert small.expires == large.expires
        for key, fragment in large.partial.series.items():
            other = small.partial.series[key]
            assert other.samples == fragment.samples
            assert other.final_size == fragment.final_size
            assert other.ratios.count == fragment.ratios.count
            assert other.ratios.mean == pytest.approx(fragment.ratios.mean)

    def test_round_robin_strategy_is_deterministic_too(self):
        config = dataclasses.replace(BASE_CONFIG, strategy=ROUND_ROBIN)
        assert (
            run_engine(config).fingerprint()
            == run_engine(dataclasses.replace(config, workers=2)).fingerprint()
        )

    def test_windowed_insert_only_scenario_runs(self):
        config = dataclasses.replace(
            BASE_CONFIG, scenario="hot-object-drift", window=60
        )
        result = run_engine(config)
        assert result.inserts == config.num_events
        # The window expires one insert per insert once full, per shard.
        assert result.expires > 0
        assert (
            run_engine(dataclasses.replace(config, workers=2)).fingerprint()
            == result.fingerprint()
        )

    def test_offline_series_is_a_lower_bound_per_shard(self):
        result = run_engine(BASE_CONFIG)
        for shard in result.partial.shard_ids():
            offline = result.partial.fragment(shard, OFFLINE_LABEL).samples
            for label in BASE_CONFIG.mechanisms:
                online = result.partial.fragment(shard, label).samples
                assert all(o >= f for o, f in zip(online, offline))

    def test_empty_stream_produces_empty_result(self):
        config = dataclasses.replace(BASE_CONFIG, num_events=0)
        result = run_engine(config)
        assert result.inserts == 0 and result.expires == 0
        assert result.partial.series == {}
        assert result.format()  # renders without data


class TestEngineValidation:
    def test_unknown_scenario(self):
        with pytest.raises(EngineError):
            run_engine(dataclasses.replace(BASE_CONFIG, scenario="uniform"))

    def test_window_on_self_expiring_scenario(self):
        with pytest.raises(EngineError):
            run_engine(dataclasses.replace(BASE_CONFIG, window=10))

    def test_unknown_mechanism_label(self):
        with pytest.raises(EngineError):
            run_engine(
                dataclasses.replace(BASE_CONFIG, mechanisms=("naive", "oracle"))
            )

    def test_offline_label_reserved(self):
        with pytest.raises(EngineError):
            run_engine(
                dataclasses.replace(BASE_CONFIG, mechanisms=(OFFLINE_LABEL,))
            )

    def test_shard_id_bounds(self):
        with pytest.raises(EngineError):
            run_shard_group(BASE_CONFIG, (BASE_CONFIG.num_shards,))


class TestCheckpointResume:
    def _checkpointed(self, tmp_path, **overrides):
        return dataclasses.replace(
            BASE_CONFIG, checkpoint_dir=str(tmp_path / "ckpt"), **overrides
        )

    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        reference = run_engine(BASE_CONFIG)
        config = self._checkpointed(tmp_path)
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(config)
        assert resumed.fingerprint() == reference.fingerprint()
        assert resumed.partial == reference.partial

    def test_timestamped_interrupt_then_resume_matches(self, tmp_path):
        """A shard checkpoint holds the label kernels' slot spaces and
        stamps; resuming from it folds the same stamp digests."""
        reference = run_engine(dataclasses.replace(BASE_CONFIG, timestamps=True))
        config = self._checkpointed(tmp_path, timestamps=True)
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(config)
        assert resumed.fingerprint() == reference.fingerprint()
        assert resumed.partial == reference.partial

    def test_resume_on_parallel_backend_matches(self, tmp_path):
        reference = run_engine(BASE_CONFIG)
        config = self._checkpointed(tmp_path)
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(dataclasses.replace(config, workers=2))
        assert resumed.fingerprint() == reference.fingerprint()

    def test_completed_run_reloads_from_checkpoints(self, tmp_path):
        config = self._checkpointed(tmp_path)
        first = run_engine(config)
        again = run_engine(config)
        assert again.fingerprint() == first.fingerprint()

    def test_mismatched_configuration_refuses_to_resume(self, tmp_path):
        config = self._checkpointed(tmp_path)
        run_engine(config)
        with pytest.raises(EngineError):
            run_engine(dataclasses.replace(config, seed=config.seed + 1))

    def test_manifest_records_signature(self, tmp_path):
        config = self._checkpointed(tmp_path)
        run_engine(config)
        manager = EngineCheckpointManager(
            config.checkpoint_dir, config.signature()
        )
        assert set(manager.shard_files()) == set(range(config.num_shards))
        manager.clear()
        assert manager.shard_files() == {}


#: Prints the SHA-256 of every file an interrupted run leaves behind.
_CHECKPOINT_DIGESTS = """
import hashlib, json, os, sys
from repro.engine import EngineConfig, EngineInterrupted, run_engine
config = EngineConfig(**{fields!r})
try:
    run_engine(config)
except EngineInterrupted:
    pass
else:
    sys.exit("the run was not interrupted")
root = config.checkpoint_dir
print(json.dumps({{
    name: hashlib.sha256(open(os.path.join(root, name), "rb").read()).hexdigest()
    for name in sorted(os.listdir(root))
}}))
"""


class TestCheckpointBytes:
    @pytest.mark.parametrize(
        "timestamps, mechanisms",
        [
            (False, ("naive", "random", "popularity", "hybrid",
                     "adaptive-popularity", "adaptive-popularity-windowed",
                     "adaptive-popularity-cost", "epoch-hybrid")),
            (True, ("naive", "random", "popularity", "hybrid")),
        ],
    )
    def test_interrupted_run_writes_the_same_bytes_under_every_hash_seed(
        self, tmp_path, timestamps, mechanisms
    ):
        """Set iteration order follows PYTHONHASHSEED; no pickled shard
        state may, so three interpreters leave identical files."""
        config = dataclasses.replace(
            BASE_CONFIG, num_events=2400, num_shards=4, epoch_every=120,
            include_offline=True, mechanisms=mechanisms, timestamps=timestamps,
            workers=1,
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        fields = {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
        }
        children = []
        for hash_seed in ("0", "1", "2"):
            interrupted = dict(
                fields, checkpoint_dir=str(tmp_path / hash_seed), max_chunks_per_shard=2
            )
            children.append(subprocess.Popen(
                [sys.executable, "-c", _CHECKPOINT_DIGESTS.format(fields=interrupted)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        digests = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            digests.append(json.loads(out))
        assert sum(name.startswith("shard-") for name in digests[0]) >= 2
        assert digests[0] == digests[1] == digests[2]
        resumed = run_engine(
            dataclasses.replace(config, checkpoint_dir=str(tmp_path / "0"))
        )
        assert resumed.fingerprint() == run_engine(config).fingerprint()


class TestCheckpointIntegrity:
    """A damaged or foreign shard file is always a clean EngineError."""

    @pytest.fixture
    def interrupted(self, tmp_path):
        config = dataclasses.replace(
            BASE_CONFIG, checkpoint_dir=str(tmp_path / "ckpt"), timestamps=True,
            mechanisms=("naive", "popularity"),
        )
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        manager = EngineCheckpointManager(config.checkpoint_dir, config.signature())
        (shard, path), = manager.shard_files().items()
        return config, manager, shard, path

    @staticmethod
    def _framed(payload: bytes, version: int = checkpoint_module.CHECKPOINT_FORMAT) -> bytes:
        return (
            checkpoint_module.MAGIC
            + version.to_bytes(2, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )

    def test_intact_checkpoint_loads(self, interrupted):
        _, manager, shard, _ = interrupted
        assert manager.load(shard).shard_id == shard

    def test_truncated_file_rejected(self, interrupted):
        config, manager, shard, path = interrupted
        data = path.read_bytes()
        for length in (0, 10, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:length])
            with pytest.raises(EngineError, match="corrupt shard checkpoint"):
                manager.load(shard)
        with pytest.raises(EngineError):
            run_engine(config)

    def test_every_bit_flip_rejected(self, interrupted):
        _, manager, shard, path = interrupted
        data = path.read_bytes()
        rng = random.Random(2019)
        for _ in range(400):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(EngineError):
                manager.load(shard)

    def test_other_format_named(self, interrupted):
        _, manager, shard, path = interrupted
        payload = path.read_bytes()[checkpoint_module._PAYLOAD_AT:]
        current = checkpoint_module.CHECKPOINT_FORMAT
        path.write_bytes(self._framed(payload, version=current - 1))
        with pytest.raises(
            EngineError, match=f"checkpoint format {current - 1}, expected {current}"
        ):
            manager.load(shard)
        # A headerless pickle, as shard files were before the header.
        path.write_bytes(payload)
        with pytest.raises(EngineError, match="no checkpoint header"):
            manager.load(shard)

    def test_payload_of_other_code_rejected(self, interrupted):
        # Intact framing around a pickle naming a class this code lacks.
        _, manager, shard, path = interrupted
        path.write_bytes(self._framed(b"\x80\x04crepro.engine.runner\n_Gone\n."))
        with pytest.raises(EngineError, match="_Gone"):
            manager.load(shard)

    def test_non_checkpoint_payload_rejected(self, interrupted):
        _, manager, shard, path = interrupted
        path.write_bytes(self._framed(pickle.dumps(42)))
        with pytest.raises(EngineError, match="holds a int, not a ShardCheckpoint"):
            manager.load(shard)


class TestCheckpointGenerations:
    """Each save is a new generation; a kill anywhere leaves one to resume."""

    @pytest.fixture
    def config(self, tmp_path):
        return dataclasses.replace(BASE_CONFIG, checkpoint_dir=str(tmp_path / "ckpt"))

    @staticmethod
    def _interrupted(config):
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        return EngineCheckpointManager(config.checkpoint_dir, config.signature())

    def test_failed_rename_keeps_the_previous_generation(self, config, monkeypatch):
        manager = self._interrupted(config)
        (shard, path), = manager.shard_files().items()
        replace = checkpoint_module.os.replace

        def full_disk(source, target):
            # The resumed run's next save of the checkpointed shard fails
            # at its rename; the other shards save as usual.
            if Path(target).name.startswith(f"shard-{shard}."):
                raise OSError(28, "No space left on device")
            replace(source, target)

        monkeypatch.setattr(checkpoint_module.os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            run_engine(config)
        monkeypatch.undo()
        assert manager.shard_files()[shard] == path
        assert manager.load(shard).chunks_done == 1
        assert not sorted(manager.directory.glob("*.pickle.*"))
        resumed = run_engine(config)
        assert resumed.fingerprint() == run_engine(BASE_CONFIG).fingerprint()

    def test_newest_of_two_generations_loads_and_clean_prunes_the_older(
        self, config, capsys
    ):
        manager = self._interrupted(config)
        first = {
            shard: (path, path.read_bytes())
            for shard, path in manager.shard_files().items()
        }
        completed = run_engine(config)
        newest = manager.shard_files()
        # A kill between a save's rename and its unlink leaves the
        # superseded generation next to the new one.
        for path, data in first.values():
            assert not path.exists()
            path.write_bytes(data)
        assert manager.shard_files() == newest
        for shard, (path, _) in first.items():
            assert newest[shard] != path
            assert manager.load(shard).chunks_done > 1
        assert main(["engine", "clean", config.checkpoint_dir]) == 0
        assert f"pruned {len(first)} unreferenced" in capsys.readouterr().out
        assert not any(path.exists() for path, _ in first.values())
        assert manager.shard_files() == newest
        assert run_engine(config).fingerprint() == completed.fingerprint()

    def test_legacy_file_and_stale_temp_file_are_pruned(self, config):
        completed = run_engine(config)
        manager = EngineCheckpointManager(config.checkpoint_dir, config.signature())
        files = manager.shard_files()
        shard, path = min(files.items())
        # An intact checkpoint under the unnumbered name of the layout
        # before generations, a half-written temp file, and a file this
        # manager never names.
        legacy = path.with_name(f"shard-{shard}.pickle")
        legacy.write_bytes(path.read_bytes())
        stale = path.with_name(path.name + ".k3x9q2ab")
        stale.write_bytes(path.read_bytes()[:100])
        foreign = path.with_name("shard-notes.pickle")
        foreign.write_bytes(b"notes")
        assert manager.shard_files() == files
        path.unlink()
        assert manager.load(shard) is None
        assert manager.prune() == sorted([legacy, stale])
        assert foreign.exists()
        # The shard without a generation is recomputed from the stream.
        assert run_engine(config).fingerprint() == completed.fingerprint()
        assert set(manager.shard_files()) == set(files)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestEngineCli:
    ARGS = ["engine", "run", "--scenario", "thread-churn", "--events", "400",
            "--nodes", "12", "--shards", "3", "--chunk-size", "100"]

    def test_engine_run_prints_deterministic_report(self, capsys):
        assert main(self.ARGS + ["--workers", "1"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "fingerprint:" in first
        assert "thread-churn" in first

    def test_engine_run_checkpoints_and_resumes(self, tmp_path, capsys):
        args = self.ARGS + ["--checkpoint-dir", str(tmp_path / "ck")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_engine_rejects_window_on_self_expiring_scenario(self, capsys):
        assert main(["engine", "run", "--scenario", "thread-churn",
                     "--window", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_ratio_jobs_flag(self, capsys):
        base = ["sweep", "ratio", "--scenario", "phase-change", "--nodes", "8",
                "--density", "0.2", "--trials", "1", "--window", "10",
                "--burn-in", "4", "--tail", "4", "--events", "40"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
