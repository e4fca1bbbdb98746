"""Chunk-boundary checkpointing for interrupted million-event runs.

This is the engine-side sibling of
:class:`repro.runtime.snapshots.CheckpointManager`: that class rolls a
*monitored computation* back to a recovery line (the largest consistent
cut respecting per-thread checkpoints); this one rolls a *monitoring run*
back to the last completed chunk of every shard.  The two share the same
correctness shape - a checkpoint set is restorable iff it is closed under
the dependencies between the checkpointed units - but the engine gets the
hard part for free: shards are causally independent by construction
(thread-affinity sharding routes every event of a thread to one shard),
so any per-shard vector of completed chunks is already a consistent
recovery line, with no domino effect to propagate.

Mechanics:

* a checkpoint directory holds one ``manifest.json`` recording the run's
  configuration signature, plus the shard files.  Every save of a shard
  writes a new *generation*, ``shard-<id>.<chunks_done>.pickle``; the
  chunk count strictly increases within a shard, so the name is one no
  file has yet.  :meth:`EngineCheckpointManager.load` reads a shard's
  newest generation, and ``save`` unlinks the older ones once the new
  one is in place;
* shard files are written atomically (temp file + ``os.replace`` onto
  the fresh name, and only then the unlink of the older generations) so
  a kill at any point leaves a complete checkpoint - the previous
  generation until the rename, the new one after it - the invariant
  that makes "resume from the last *completed* chunk" true under
  arbitrary interruption.  A kill between the rename and the unlink
  leaves two generations; the newer one is read and ``prune`` removes
  the older;
* no rename ever replaces a shard file.  On ext4 an ``os.replace`` over
  a file that was itself renamed into place earlier blocks on that
  file's writeback (``auto_da_alloc``).  On a 2-vCPU VM, with 50 kB
  files written 20 ms to 2 s apart, the replacing rename took 40-50 ms
  (median), the rename onto a fresh name 0.02 ms and the unlink of the
  superseded file 0.03 ms.  Shards save at every chunk, so with one
  replaced file per shard, checkpointing took a quarter to a half of
  the perf benchmark's traced sharded-resume job wall, and now about 3%;
* a shard file is a header - :data:`MAGIC`, the
  :data:`CHECKPOINT_FORMAT` version and the SHA-256 of the payload -
  followed by the pickled :class:`ShardCheckpoint`.  Loading a file of
  another format, a truncated or bit-flipped file, or a payload that is
  not a shard checkpoint raises :class:`~repro.exceptions.EngineError`
  before anything is resumed from it;
* resuming validates the manifest against the resuming run's signature
  and refuses on mismatch: silently mixing partial metrics of two
  different configurations is the one unrecoverable corruption.

The pickled payload is the shard's full consumer state - the online
mechanisms (including their :mod:`random` state), the dynamic matching
engine's live graph (its matching is recomputed on load), the
sliding-window deque and the accumulated
:class:`~repro.engine.results.PartialResult` - so a resumed run replays
*nothing*: it fast-forwards the regenerated stream past the consumed
prefix (generation is cheap; matching is not) and continues exactly where
the interrupted run left off.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import EngineError

MANIFEST_NAME = "manifest.json"

#: First bytes of every shard checkpoint file.
MAGIC = b"repro-shard-checkpoint\n"

#: Version of the pickled shard state.  Bump it whenever that state
#: changes shape, so a checkpoint written by other code is refused by
#: name instead of unpickling into the wrong classes.
CHECKPOINT_FORMAT = 6

_VERSION_BYTES = 2
_DIGEST_AT = len(MAGIC) + _VERSION_BYTES
_PAYLOAD_AT = _DIGEST_AT + hashlib.sha256().digest_size


@dataclass
class ShardCheckpoint:
    """Everything needed to continue one shard from a chunk boundary.

    ``raw_events_consumed`` counts events of the *full* base stream (the
    fast-forward distance); ``inserts_done`` counts this shard's inserts
    (the chunk clock); ``consumers`` is the picklable shard state object
    defined by the runner.
    """

    shard_id: int
    chunks_done: int
    raw_events_consumed: int
    inserts_done: int
    expires_done: int
    consumers: Any
    partial: Any


class EngineCheckpointManager:
    """Per-shard chunk checkpoints under one run directory."""

    def __init__(self, directory: str, signature: Mapping[str, Any]) -> None:
        self._directory = Path(directory)
        self._signature = dict(signature)
        self._directory.mkdir(parents=True, exist_ok=True)
        manifest = self._directory / MANIFEST_NAME
        if manifest.exists():
            recorded = self._read_manifest(manifest)
            if recorded != self._signature:
                raise EngineError(
                    f"checkpoint directory {directory} belongs to a different "
                    f"run configuration; refusing to mix partial results "
                    f"(recorded {recorded!r}, resuming {self._signature!r})"
                )
        else:
            self._atomic_write(manifest, json.dumps(self._signature, sort_keys=True))

    @classmethod
    def open(cls, directory: str) -> "EngineCheckpointManager":
        """Attach to an *existing* checkpoint directory, whatever its run.

        The manifest's own recorded signature is adopted, so no mismatch
        is possible - the entry point for inspection and maintenance
        tooling (``engine inspect`` / ``engine clean``), which must work
        without re-deriving the original :class:`EngineConfig`.
        """
        manifest = Path(directory) / MANIFEST_NAME
        if not manifest.exists():
            raise EngineError(
                f"{directory} is not a checkpoint directory "
                f"(no {MANIFEST_NAME})"
            )
        return cls(directory, cls._read_manifest(manifest))

    @staticmethod
    def _read_manifest(manifest: Path) -> Dict[str, Any]:
        try:
            recorded = json.loads(manifest.read_text())
        except (OSError, ValueError) as error:
            raise EngineError(
                f"unreadable checkpoint manifest {manifest}: {error}"
            ) from None
        if not isinstance(recorded, dict):
            raise EngineError(
                f"checkpoint manifest {manifest} does not record a "
                f"configuration signature"
            )
        return recorded

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def signature(self) -> Dict[str, Any]:
        """The run-configuration signature this directory belongs to."""
        return dict(self._signature)

    def _shard_path(self, shard_id: int, chunks_done: int) -> Path:
        return self._directory / f"shard-{shard_id}.{chunks_done}.pickle"

    def _generations(self) -> Dict[int, List[Path]]:
        """Every shard's generation files, oldest first, by shard id."""
        found: Dict[int, List[Tuple[int, Path]]] = {}
        for path in sorted(self._directory.glob("shard-*.pickle")):
            numbers = _name_numbers(path)
            if numbers is not None and len(numbers) == 2:
                found.setdefault(numbers[0], []).append((numbers[1], path))
        return {
            shard_id: [path for _, path in sorted(paths)]
            for shard_id, paths in sorted(found.items())
        }

    def _atomic_write(self, path: Path, text_or_bytes) -> None:
        """Write via a sibling temp file + ``os.replace`` (atomic on POSIX)."""
        mode = "wb" if isinstance(text_or_bytes, bytes) else "w"
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", dir=str(self._directory)
        )
        try:
            with os.fdopen(fd, mode) as handle:
                handle.write(text_or_bytes)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load(self, shard_id: int) -> Optional[ShardCheckpoint]:
        """The shard's last completed-chunk checkpoint, or ``None``."""
        path = self.shard_files().get(shard_id)
        if path is None:
            return None
        try:
            data = path.read_bytes()
        except OSError as error:
            raise EngineError(f"unreadable shard checkpoint {path}: {error}") from None
        if not data.startswith(MAGIC):
            raise EngineError(f"corrupt shard checkpoint {path}: no checkpoint header")
        version = int.from_bytes(data[len(MAGIC):_DIGEST_AT], "big")
        if version != CHECKPOINT_FORMAT:
            raise EngineError(
                f"checkpoint format {version}, expected {CHECKPOINT_FORMAT} ({path})"
            )
        payload = data[_PAYLOAD_AT:]
        if hashlib.sha256(payload).digest() != data[_DIGEST_AT:_PAYLOAD_AT]:
            raise EngineError(f"corrupt shard checkpoint {path}: checksum mismatch")
        try:
            checkpoint = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                TypeError) as error:
            # An intact payload whose classes no longer match this code
            # (CHECKPOINT_FORMAT was not bumped when they changed).
            raise EngineError(f"corrupt shard checkpoint {path}: {error}") from None
        if not isinstance(checkpoint, ShardCheckpoint):
            raise EngineError(
                f"corrupt shard checkpoint {path}: holds a "
                f"{type(checkpoint).__name__}, not a ShardCheckpoint"
            )
        if checkpoint.shard_id != shard_id:
            raise EngineError(
                f"checkpoint {path} records shard {checkpoint.shard_id}, "
                f"expected {shard_id}"
            )
        return checkpoint

    def save(self, checkpoint: ShardCheckpoint) -> None:
        """Atomically persist one shard's chunk-boundary state.

        The new generation is renamed into place before any older one is
        unlinked, so the shard always has a complete checkpoint on disk.
        """
        payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._shard_path(checkpoint.shard_id, checkpoint.chunks_done)
        self._atomic_write(
            path,
            MAGIC
            + CHECKPOINT_FORMAT.to_bytes(_VERSION_BYTES, "big")
            + hashlib.sha256(payload).digest()
            + payload,
        )
        # A superseded generation that survives this is never read, and
        # prune() removes it.
        for older in self._generations().get(checkpoint.shard_id, []):
            if older != path:
                _unlink_quietly(older)

    def shard_files(self) -> Dict[int, Path]:
        """Each shard's newest generation (the file :meth:`load` reads)."""
        return {
            shard_id: paths[-1] for shard_id, paths in self._generations().items()
        }

    def clear(self) -> None:
        """Delete every shard checkpoint (keeps the manifest)."""
        for paths in self._generations().values():
            for path in paths:
                _unlink_quietly(path)

    def describe(self) -> List[Dict[str, Any]]:
        """Per-shard progress summary for every shard the manifest expects.

        One row per shard id in ``0 .. num_shards - 1`` (shards without a
        checkpoint file report zero progress), each with the checkpoint's
        chunk / insert / expire counters and the file size on disk.
        """
        num_shards = int(self._signature.get("num_shards", 0))
        files = self.shard_files()
        rows: List[Dict[str, Any]] = []
        for shard_id in range(num_shards):
            path = files.get(shard_id)
            if path is None:
                rows.append(
                    {
                        "shard": shard_id,
                        "chunks_done": 0,
                        "inserts_done": 0,
                        "expires_done": 0,
                        "raw_events_consumed": 0,
                        "bytes": 0,
                    }
                )
                continue
            checkpoint = self.load(shard_id)
            rows.append(
                {
                    "shard": shard_id,
                    "chunks_done": checkpoint.chunks_done,
                    "inserts_done": checkpoint.inserts_done,
                    "expires_done": checkpoint.expires_done,
                    "raw_events_consumed": checkpoint.raw_events_consumed,
                    "bytes": path.stat().st_size,
                }
            )
        return rows

    def prune(self, max_age: Optional[float] = None) -> List[Path]:
        """Remove files the manifest does not account for; returns them.

        Prunable files are (a) shard checkpoints whose id falls outside
        the manifest's ``num_shards`` range - leftovers of an earlier,
        differently-sharded run in a reused directory; (b) superseded
        generations, which a kill between a save's rename and its unlink
        leaves behind; (c) unnumbered ``shard-<id>.pickle`` files of the
        layout before generations, which :meth:`load` never reads; and
        (d) orphaned temp files from interrupted atomic writes
        (``<name>.<random>`` siblings of the manifest or a shard file).
        Nothing else is touched: a file this manager did not plausibly
        create is not this manager's to delete.

        ``max_age`` (seconds) additionally prunes *stale but referenced*
        shard checkpoints: in-range newest generations whose modification
        time is older than ``max_age`` seconds.  Deleting one is always
        safe - :meth:`load` returns ``None`` for the missing shard and
        the next run recomputes it from the stream - so age-based pruning
        trades recomputation for disk space on long-abandoned runs.  The
        manifest itself is kept (it is the directory's identity).
        """
        if max_age is not None and max_age < 0:
            raise EngineError(f"max_age must be non-negative, got {max_age}")
        num_shards = int(self._signature.get("num_shards", 0))
        doomed: List[Path] = []
        cutoff = None if max_age is None else time.time() - max_age  # repro: noqa[D104] age-based pruning is wall-clock by definition; never under the fingerprint
        for shard_id, paths in self._generations().items():
            if not (0 <= shard_id < num_shards):
                doomed.extend(paths)
                continue
            doomed.extend(paths[:-1])
            if cutoff is not None:
                try:
                    stale = paths[-1].stat().st_mtime < cutoff
                except OSError:
                    stale = False
                if stale:
                    doomed.append(paths[-1])
        for path in sorted(self._directory.glob("shard-*.pickle")):
            numbers = _name_numbers(path)
            if numbers is not None and len(numbers) == 1:
                doomed.append(path)
        for path in sorted(self._directory.glob(MANIFEST_NAME + ".*")):
            doomed.append(path)
        for path in sorted(self._directory.glob("shard-*.pickle.*")):
            doomed.append(path)
        removed: List[Path] = []
        for path in sorted(doomed):
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                pass
        return removed


def _name_numbers(path: Path) -> Optional[Tuple[int, ...]]:
    """The dot-separated numbers of a ``shard-*.pickle`` name, if all are.

    ``(id, chunks_done)`` for a generation, ``(id,)`` for the unnumbered
    file of the layout before generations, ``None`` for anything else.
    """
    parts = path.name[len("shard-"):-len(".pickle")].split(".")
    if not all(part.isascii() and part.isdigit() for part in parts):
        return None
    return tuple(int(part) for part in parts)


def _unlink_quietly(path: Path) -> None:
    """Unlink ``path``, ignoring a file that is gone or cannot go."""
    try:
        path.unlink()
    except OSError:
        pass
