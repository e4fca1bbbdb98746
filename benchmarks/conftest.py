"""Pytest fixtures for the benchmark harness.

Each benchmark module regenerates one table/figure of the paper's
evaluation (or one extra ablation).  Conventions:

* the expensive sweep is executed exactly once per benchmark via
  ``benchmark.pedantic(..., rounds=1, iterations=1)`` so that
  ``pytest benchmarks/ --benchmark-only`` reports the wall-clock cost of
  regenerating the figure;
* the resulting series/tables are printed and also written to
  ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote them.

Shared constants (sweep ranges, trial counts) live in ``_common.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _common import write_json_result, write_result  # noqa: E402


def pytest_addoption(parser):
    """Register ``--smoke``: shrink every sweep for a fast CI smoke pass.

    The flag itself is read by ``_common.py`` at import time (the sweep
    constants parametrise tests during collection); registering it here
    just keeps pytest from rejecting the unknown option.
    """
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run shrunken benchmark sweeps (harness smoke test)",
    )
    parser.addoption(
        "--json",
        default=None,
        metavar="PATH",
        help="directory for machine-readable BENCH_<name>.json results "
        "(default: benchmarks/results; read by _common.py at import time)",
    )


@pytest.fixture
def record_table():
    """Fixture handing benchmarks the :func:`_common.write_result` helper."""
    return write_result


@pytest.fixture
def record_json():
    """Fixture handing benchmarks the :func:`_common.write_json_result` helper."""
    return write_json_result
