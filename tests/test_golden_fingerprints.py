"""Golden engine fingerprints: the behaviour contract, pinned to a file.

``tests/golden/engine_fingerprints.json`` records the SHA-256 fingerprint
of a fixed matrix of small engine runs: every registered stream scenario
x two mechanism sets (the paper's append-only trio and the
lifecycle-aware trio), plain and with ``epoch_every``, plus an imposed
``window`` (alone and with epochs) on the insert-only scenarios and
``timestamps=True`` on the append-only set.  Every run uses 2 shards and
at most 2k inserts.  Chunk, window and epoch lengths are chosen so their
boundaries interleave.

The test rebuilds each configuration from the file and requires the
fingerprint bit for bit at ``workers`` 1 and 2, so any refactor of the
execution paths must leave every number where it was.

Regenerate (only when a change is *meant* to move numbers) with::

    PYTHONPATH=src python tests/test_golden_fingerprints.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.computation.registry import REGISTRY, STREAM
from repro.engine import EngineConfig, run_engine

GOLDEN = Path(__file__).parent / "golden" / "engine_fingerprints.json"

APPEND_ONLY = ("naive", "popularity", "hybrid")
LIFECYCLE = ("popularity", "adaptive-popularity", "epoch-hybrid")

#: Shared shape of every golden run (2 shards, <= 2k inserts).
BASE = dict(
    num_threads=30,
    num_objects=30,
    density=0.2,
    num_events=1_800,
    seed=2019,
    num_shards=2,
    chunk_size=170,
)
WINDOW = 90
EPOCH_EVERY = 130


def golden_cases() -> List[Tuple[str, Dict[str, object]]]:
    """The matrix as ``(case name, EngineConfig keyword arguments)``."""
    cases: List[Tuple[str, Dict[str, object]]] = []
    for scenario in REGISTRY.scenarios(STREAM):
        for set_name, mechanisms in (("append", APPEND_ONLY), ("lifecycle", LIFECYCLE)):
            variants: List[Tuple[str, Dict[str, object]]] = [
                ("plain", {}),
                ("epoch", {"epoch_every": EPOCH_EVERY}),
            ]
            if not scenario.expires:
                variants += [
                    ("window", {"window": WINDOW}),
                    ("window-epoch", {"window": WINDOW, "epoch_every": EPOCH_EVERY}),
                ]
            if mechanisms == APPEND_ONLY:
                variants.append(("timestamps", {"timestamps": True}))
                if not scenario.expires:
                    variants.append(
                        ("window-timestamps", {"window": WINDOW, "timestamps": True})
                    )
            for variant, extra in variants:
                fields: Dict[str, object] = dict(
                    BASE, scenario=scenario.name, mechanisms=list(mechanisms), **extra
                )
                cases.append((f"{scenario.name}/{set_name}/{variant}", fields))
    return cases


def _config(fields: Dict[str, object]) -> EngineConfig:
    return EngineConfig(**dict(fields, mechanisms=tuple(fields["mechanisms"])))


def _load() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_matrix():
    assert list(_load()) == [name for name, _ in golden_cases()]


@pytest.mark.parametrize("workers", [1, 2])
def test_fingerprints_reproduce_bit_for_bit(workers):
    golden = _load()
    mismatched = [
        name
        for name, entry in golden.items()
        if run_engine(replace(_config(entry["config"]), workers=workers)).fingerprint()
        != entry["fingerprint"]
    ]
    assert mismatched == []


if __name__ == "__main__":
    document = {
        name: {"config": fields, "fingerprint": run_engine(_config(fields)).fingerprint()}
        for name, fields in golden_cases()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    print(f"wrote {len(document)} fingerprints to {GOLDEN}")
