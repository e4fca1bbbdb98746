"""Shared constants and helpers for the benchmark harness.

Kept outside ``conftest.py`` so benchmark modules can import them directly
(``from _common import ...``) regardless of how pytest was invoked.

Smoke mode
----------
Passing ``--smoke`` (or setting ``BENCH_SMOKE=1``) shrinks every sweep to
a few points and trials.  The shrunken runs keep the reference x-values
the shape assertions index into (density 0.05, 50 nodes per side), so the
benchmarks still *exercise* the full harness - they just stop being
statistically meaningful.  CI runs the suite this way to catch perf
harness breakage (import errors, fixture drift, API changes) without
paying for the real sweeps.  The flag is read at import time because the
sweep constants parametrise tests during collection.

Machine-readable results
------------------------
Every benchmark that measures a rate or a ratio also records it as JSON
via :func:`write_json_result`, which writes ``BENCH_<name>.json`` next to
the text tables under ``benchmarks/results`` - or under the directory
given by ``--json PATH`` (or the ``BENCH_JSON`` environment variable),
so CI can archive the perf trajectory as artifacts.  Each file carries
the payload plus ``{"benchmark": name, "smoke": bool}`` and an
``environment`` block (kernel backend, numpy version or null, Python
version, CPU count) so a collector can tell throwaway smoke numbers
from real ones and attribute rate shifts across PRs to hardware or
backend changes instead of code.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Version of the ``BENCH_<name>.json`` envelope.  Bumped whenever the
#: envelope keys change shape, so the perf-trajectory collector can parse
#: archives from different eras without sniffing.  Version 1: payload plus
#: ``{"schema": 1, "benchmark": name, "smoke": bool}``, sorted keys.
#: Version 2 adds the ``environment`` block (see :func:`bench_environment`).
#: Version 3 adds the optional ``metrics`` block - a telemetry document
#: (``repro.obs.exporters.metrics_document``) from an instrumented side
#: run, absent when the benchmark recorded none.
BENCH_SCHEMA_VERSION = 3

#: True when the harness should run a fast smoke pass (see module docstring).
SMOKE = "--smoke" in sys.argv or os.environ.get("BENCH_SMOKE", "") == "1"


def _json_dir() -> Path:
    """Where ``BENCH_<name>.json`` files go (see module docstring).

    Read at import time like ``SMOKE``: benchmarks write results during
    the test run, and the destination must not depend on pytest's
    argument plumbing.
    """
    for index, argument in enumerate(sys.argv):
        if argument == "--json" and index + 1 < len(sys.argv):
            return Path(sys.argv[index + 1])
        if argument.startswith("--json="):
            return Path(argument.split("=", 1)[1])
    env = os.environ.get("BENCH_JSON", "").strip()
    if env:
        return Path(env)
    return RESULTS_DIR


JSON_DIR = _json_dir()

if SMOKE:
    FIG4_DENSITIES = [0.01, 0.05, 0.5]
    FIG5_NODE_COUNTS = [10, 50, 70]
    TRIALS = 2
    MATCHING_SIZES = [50, 100]
    CHAIN_VERTICES = 2_000
    STREAM_EVENTS = 300
    STREAM_WINDOW = 60
    STREAM_SIZES = [12]
    STREAM_DENSITIES = [0.1]
    STREAM_TRIALS = 1
    STREAM_BURN_IN = 30
    STREAM_TAIL = 30
    ADAPTIVE_EPOCH = 50
    ADAPTIVE_EVENTS = 1_000
    ADAPTIVE_TAIL = 150
    ENGINE_EVENTS = 2_000
    ENGINE_SHARDS = 4
    ENGINE_CHUNK = 500
    ENGINE_WORKERS = [1, 2]
    ENGINE_NODES = 40
    PIPELINE_EVENTS = 100_000
    PIPELINE_NODES = 150
    PIPELINE_CHUNK = 25_000
    PIPELINE_MATRIX_EVENTS = 2_000
    PIPELINE_MATRIX_WORKERS = [1, 2]
    ROTATION_IDS = 600
    ROTATION_WINDOW = 300
    ROTATION_EVENTS = 900
    ROTATION_COVER_IDS = 300
    ROTATION_COVER_WINDOW = 150
    ROTATION_COVER_EVENTS = 600
    ROTATION_COVER_BOUNDARY = 30
    ROTATION_SCALING_WINDOWS = [30, 300]
else:
    #: Densities swept in Figs. 4 and 6.
    FIG4_DENSITIES = [0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50]
    #: Node counts (per side) swept in Figs. 5 and 7.
    FIG5_NODE_COUNTS = [10, 30, 50, 70, 90, 110, 130, 150]
    #: Trials averaged per data point.
    TRIALS = 3
    #: Nodes per side in the matching-scaling benchmark.
    MATCHING_SIZES = [50, 100, 200, 400]
    #: Total vertices in the chain-graph stress variant (E5).  Chains force
    #: ``O(V)``-hop augmenting paths; this size used to be unreachable with
    #: the recursive matchers.
    CHAIN_VERTICES = 10_000
    #: Insert events per trial in the sliding-window ratio sweep (E8).
    STREAM_EVENTS = 4_000
    #: Sliding-window length for insert-only stream scenarios.
    STREAM_WINDOW = 500
    #: Nodes per side swept in the streaming grid.
    STREAM_SIZES = [30, 60]
    #: Density knob values swept in the streaming grid.
    STREAM_DENSITIES = [0.05, 0.2]
    #: Independent streams per grid cell.
    STREAM_TRIALS = 3
    #: Leading events summarised as burn-in.
    STREAM_BURN_IN = 200
    #: Trailing events summarised as steady state.
    STREAM_TAIL = 200
    #: Epoch-boundary interval (inserts) for the adaptive-window benchmark.
    ADAPTIVE_EPOCH = 250
    #: Insert events per stream in the adaptive-window head-to-head.
    ADAPTIVE_EVENTS = 8_000
    #: Trailing events summarised as the adaptive steady state.
    ADAPTIVE_TAIL = 800
    #: Insert events in the engine-scaling run (the ROADMAP's million-event
    #: target; expires ride on top, so the stream is longer than this).
    ENGINE_EVENTS = 1_200_000
    #: Logical shards of the scaling run (fixed across worker counts - the
    #: shard structure is part of the result's identity, workers is not).
    ENGINE_SHARDS = 8
    #: Inserts per chunk (the checkpoint granularity).
    ENGINE_CHUNK = 100_000
    #: Pool sizes swept by the scaling benchmark's ``workers`` legs (one
    #: stream pass per worker; the first, 1, is the in-process baseline).
    ENGINE_WORKERS = [1, 2, 4, 8]
    #: Threads/objects per side of the engine-scaling stream.
    ENGINE_NODES = 200
    #: Insert events in the batched-pipeline head-to-head (the ROADMAP's
    #: 1M+ target; expires ride on top, roughly doubling the stream).
    PIPELINE_EVENTS = 1_200_000
    #: Threads/objects per side of the pipeline stream (sets the clock
    #: dimension the timestamping stage pays per event).
    PIPELINE_NODES = 200
    #: Inserts per chunk in the pipeline head-to-head.
    PIPELINE_CHUNK = 100_000
    #: Events of each run in the fingerprint equality matrix.
    PIPELINE_MATRIX_EVENTS = 4_000
    #: Worker counts crossed into the fingerprint matrix.
    PIPELINE_MATRIX_WORKERS = [1, 4]
    #: Thread/object ID space of the rotation-heavy churn stream.  Kept
    #: far above the window so most expiries kill their endpoints, which
    #: is what makes every retirement a pure-subset (delta-eligible)
    #: rotation and pushes the live clock dimension near the window size.
    ROTATION_IDS = 32_000
    #: Sliding-window length of the rotation stream (the live pair count
    #: a replay rotation re-observes; the clock dimension tracks it).
    ROTATION_WINDOW = 4_000
    #: Insert events of the rotation stream.  The first window's worth is
    #: warm-up (no expiries, no rotations); each event past it triggers
    #: an expiry and, nearly always, a retirement rotation - so this
    #: yields several hundred rotation-latency samples per strategy.
    ROTATION_EVENTS = 4_800
    #: ID space of the cover-repair churn stream (dense enough that the
    #: live graph keeps a non-trivial maximum matching to repair).
    ROTATION_COVER_IDS = 4_000
    #: Live-edge window of the cover-repair stream (the edge count a
    #: from-scratch rebuild re-inserts at every boundary).
    ROTATION_COVER_WINDOW = 2_000
    #: Edge events of the cover-repair stream (~440 boundary samples -
    #: enough that the recorded tail percentiles mean something, and the
    #: gated *median* is rock-stable).
    ROTATION_COVER_EVENTS = 24_000
    #: Events between epoch boundaries (cover queries) in the cover leg.
    ROTATION_COVER_BOUNDARY = 50
    #: Windows of the layout-change scaling leg: the lifecycle-rotation
    #: workload's window and ten times it.
    ROTATION_SCALING_WINDOWS = [300, 3_000]

#: Thread/object IDs per window slot in the scaling leg (the rotation
#: stream's ratio, so most expiries retire a component at every scale).
ROTATION_SCALING_ID_RATIO = 8

#: Nodes per side in the density sweeps (the paper uses 50 threads / 50 objects).
FIG4_NODES = 50
#: Fixed density in the node-count sweeps.
FIG5_DENSITY = 0.05


def write_result(name: str, text: str) -> Path:
    """Persist a rendered table under ``benchmarks/results`` and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n(written to {path})")
    return path


def bench_environment() -> dict:
    """The attribution block stamped into every ``BENCH_<name>.json``.

    A rate that moves between two PRs means nothing until the runs are
    known to share a backend and a machine class; this block records the
    variables that historically explained phantom regressions: the
    default kernel backend (numpy when it imports), the numpy version
    (or null when the accelerator is absent - the python fallback's
    numbers are not comparable to the numpy path's), the interpreter
    version, and the CPU count (``--workers`` speedups are meaningless
    on one core).
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core.kernel import default_backend_name

    return {
        "backend": default_backend_name(),
        "numpy_version": numpy_version,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def write_json_result(name: str, payload: dict, metrics: dict | None = None) -> Path:
    """Persist one benchmark's numbers as ``BENCH_<name>.json``.

    ``payload`` should hold plain JSON-safe scalars/lists/dicts
    (events/sec, ratios, parameter values); the envelope adds
    ``schema`` (:data:`BENCH_SCHEMA_VERSION`), the benchmark name,
    whether this was a smoke (throwaway-scale) run, and the
    :func:`bench_environment` attribution block.  ``metrics``, when
    given, is a telemetry document (counter/histogram/derived blocks
    from ``repro.obs.exporters.metrics_document``) captured by a
    *separate* instrumented pass - never by the timed legs themselves,
    so the published rates stay telemetry-free.  Keys are emitted
    sorted so reruns of identical numbers produce byte-identical files
    and archived results diff cleanly.
    """
    JSON_DIR.mkdir(parents=True, exist_ok=True)
    path = JSON_DIR / f"BENCH_{name}.json"
    document = {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": name,
        "smoke": SMOKE,
        "environment": bench_environment(),
        **payload,
    }
    if metrics is not None:
        document["metrics"] = metrics
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"(json results written to {path})")
    return path
