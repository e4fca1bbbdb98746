"""Golden simulator outputs: the one-pass stream driver, pinned to a file.

``tests/golden/simulator_outputs.json`` records SHA-256 digests of
:func:`~repro.online.simulator.compare_mechanisms_on_stream` results over
every registered stream scenario x {unwindowed, an imposed ``window`` on
the insert-only scenarios} x {no epoch, a counter ``epoch``} x two
mechanism sets (the append-only trio and the lifecycle-aware trio).  A
digest covers every field of every :class:`OnlineRunResult`, the
per-insert trajectories included.  Two more entries pin the callers
built on top: one ``compare_mechanisms(..., include_offline=True)``
graph case (the Figs. 4-7 path) and the text of one small
``format_ratio_sweep(ratio_sweep(...))``.

Regenerate (only when a change is *meant* to move numbers) with::

    PYTHONPATH=src python tests/test_golden_simulator.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis.experiments import EXTENDED_MECHANISMS, PAPER_MECHANISMS
from repro.analysis.ratio_sweep import format_ratio_sweep, ratio_sweep
from repro.computation.registry import REGISTRY, STREAM
from repro.graph.generators import uniform_bipartite
from repro.online import (
    compare_mechanisms,
    compare_mechanisms_on_stream,
    seed_mechanism_factories,
)
from repro.seeds import derive_seed

GOLDEN = Path(__file__).parent / "golden" / "simulator_outputs.json"

MECHANISM_SETS = (
    ("append", ("naive", "popularity", "hybrid")),
    ("lifecycle", ("popularity", "adaptive-popularity", "epoch-hybrid")),
)
NUM_EVENTS = 700
WINDOW = 80
EPOCH = 110
SEED = 2019


def _digest(results) -> str:
    document = {
        label: dataclasses.asdict(result) for label, result in sorted(results.items())
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _stream_case(scenario_name: str, labels, window, epoch) -> Callable[[], str]:
    def run() -> str:
        stream = REGISTRY.get(scenario_name, kind=STREAM).build(
            24, 24, 0.2, NUM_EVENTS, seed=derive_seed(SEED, scenario_name, "stream")
        )
        factories = seed_mechanism_factories(
            {label: EXTENDED_MECHANISMS[label] for label in labels},
            derive_seed(SEED, scenario_name, "mechanisms"),
        )
        return _digest(
            compare_mechanisms_on_stream(stream, factories, window=window, epoch=epoch)
        )

    return run


def _graph_case() -> str:
    graph = uniform_bipartite(30, 40, 0.15, seed=7)
    factories = seed_mechanism_factories(PAPER_MECHANISMS, 11)
    return _digest(compare_mechanisms(graph, factories, seed=5, include_offline=True))


def _ratio_sweep_case() -> str:
    text = format_ratio_sweep(
        ratio_sweep(
            densities=(0.2,), sizes=(12,), trials=2, window=40, burn_in=20,
            tail=20, num_events=200, epoch=60,
            labels=("naive", "popularity", "adaptive-popularity"),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def golden_cases() -> List[Tuple[str, Callable[[], str]]]:
    """The matrix as ``(case name, digest thunk)``."""
    cases: List[Tuple[str, Callable[[], str]]] = []
    for scenario in REGISTRY.scenarios(STREAM):
        windows = [("plain", None)]
        if not scenario.expires:
            windows.append(("window", WINDOW))
        for set_name, labels in MECHANISM_SETS:
            for window_name, window in windows:
                for epoch_name, epoch in (("", None), ("-epoch", EPOCH)):
                    cases.append((
                        f"{scenario.name}/{set_name}/{window_name}{epoch_name}",
                        _stream_case(scenario.name, labels, window, epoch),
                    ))
    cases.append(("compare_mechanisms/graph/offline", _graph_case))
    cases.append(("format_ratio_sweep/small", _ratio_sweep_case))
    return cases


def _load() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_matrix():
    assert list(_load()) == [name for name, _ in golden_cases()]


@pytest.mark.parametrize("name,run", golden_cases(), ids=[name for name, _ in golden_cases()])
def test_output_reproduces_bit_for_bit(name, run):
    assert run() == _load()[name]


if __name__ == "__main__":
    document = {name: run() for name, run in golden_cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {len(document)} digests to {GOLDEN}")
