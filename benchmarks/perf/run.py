"""The repository's perf benchmark: one workload, measured outside-in.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload stamp-churn --seed 2019 \\
        --seconds 12 --trace 0 [--out DIR]

One invocation measures one workload of :mod:`workloads` in a closed
loop: the inputs are built from ``--seed`` (untimed), one warm-up job
runs and is checked against an oracle, and then jobs run back to back
until ``--seconds`` have passed.  Every job's output must equal the
warm-up's, and for the seeds in ``golden.json`` the committed record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates plain and traced jobs (the tracer's wrappers
installed around the layers' public calls, see :mod:`tracer`) and
reports the per-layer metrics.  Both print ``workload metric value unit``
lines, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--out DIR`` also writes the full results document (and,
traced, a Chrome trace) into ``DIR``; :mod:`compare` reads those.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402  (after the src path is set)

if __name__ == "__mp_main__" and os.environ.get(tracing.WORKER_TRACE_ENV):
    # A spawned engine pool worker of a traced job.
    tracing.install_worker(os.environ[tracing.WORKER_TRACE_ENV])

#: Scratch space inside the checkout (checkpoints, worker trace records).
WORK_ROOT = ROOT / ".perf-work"

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 5

#: The interpreter hash seed every measured process runs under.
HASH_SEED = "0"


class Clock:
    """Times the ticks of one job; traced, each tick is a root frame."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ticks = []
        self.events = 0

    def tick(self, fn, *args):
        tracer = self.tracer
        if tracer is None:
            began = perf_counter()
            result = fn(*args)
            self.ticks.append(perf_counter() - began)
            return result
        frame = tracer.push(tracing.ROOT)
        try:
            return fn(*args)
        finally:
            self.ticks.append(tracer.pop(frame))


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """The largest single process so far: this one or any waited-for child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def setup_seconds(name: str) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    began = perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
        check=True,
    )
    return perf_counter() - began


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The engine's spawn pool starts the tracker on first use, and the
    tracker is built to outlive the process that started it; left alone
    it lingers after the run has ended.
    """
    from multiprocessing import resource_tracker

    gc.collect()  # finalise the pool's queues: their semaphores unregister
    resource_tracker._resource_tracker._stop()


def run_job(workload, inputs, tracer, report_dir: Path):
    """One job, plain (``tracer`` None) or with the layer wrappers installed."""
    if tracer is None:
        clock = Clock()
        return clock, workload.job(inputs, clock)
    os.environ[tracing.WORKER_TRACE_ENV] = str(report_dir)
    replaced = tracing.install(tracer, report_dir)
    try:
        clock = Clock(tracer)
        output = workload.job(inputs, clock)
    finally:
        tracing.uninstall(replaced)
        del os.environ[tracing.WORKER_TRACE_ENV]
    tracer.job += 1
    return clock, output


def golden_record(workload: str, seed: int):
    table = json.loads((HERE / "golden.json").read_text())
    return table.get(workload, {}).get(str(seed))


def plain_ticks(jobs):
    return [tick for job in jobs if not job["traced"] for tick in job["ticks"]]


def end_to_end(jobs, setup, rss) -> dict:
    plain = [job for job in jobs if not job["traced"]]
    return {
        "events_per_s": statistics.median(job["events"] / job["wall_s"] for job in plain),
        "tick_p50_ms": percentile(plain_ticks(jobs), 50) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def per_layer(jobs, tracer) -> dict:
    """Per traced job means; worker-side time is added to its layer's row.

    Times are reported as shares of the traced job's wall time: a layer a
    workload never calls then reads 0 as a share, never as a constant
    0-second time.
    """
    traced = [job["wall_s"] for job in jobs if job["traced"]]
    plain = [job["wall_s"] for job in jobs if not job["traced"]]
    count = len(traced)
    total_wall = tracer.root_wall
    workers = tracer.workers
    values = {}
    for layer in tracing.LAYER_NAMES:
        self_s = tracer.layers[layer][0] + workers.layers[layer][0]
        values[f"{layer}.calls"] = (tracer.layers[layer][1] + workers.layers[layer][1]) / count
        values[f"{layer}.share"] = self_s / total_wall
    totals = {
        name: tracer.counters[name] + workers.counters[name]
        for name in tracing.COUNTERS
    }
    rotations = tracer.rotations + workers.rotations
    values.update({
        name: totals[name] / count
        for name in (
            "engine.checkpoint.bytes_written",
            "engine.checkpoint.bytes_read",
            "online.decisions",
            "core.kernel.events",
        )
    })
    values.update({
        "engine.executor.overhead_share": totals["engine.executor.overhead_s"] / total_wall,
        "graph.incremental.grow_ratio": (
            totals["graph.incremental.grows"] / totals["graph.incremental.adds"]
            if totals["graph.incremental.adds"] else 0.0
        ),
        "core.timestamping.rotations": len(rotations) / count,
        "core.timestamping.delta_share": (
            totals["core.kernel.delta_rotations"] / len(rotations) if rotations else 0.0
        ),
        "core.timestamping.rotate_share": sum(rotations) / total_wall,
        "traced_wall_s": total_wall / count,
        "unattributed_share": tracer.layers[tracing.ROOT][0] / total_wall,
        "trace_overhead": statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    return values


def measure(workload, args, work_dir: Path) -> dict:
    from workloads import Checks

    setup = [] if args.trace else [setup_seconds(workload.name) for _ in range(SETUP_PROBES)]
    inputs = workload.prepare(args.seed, args.scale, work_dir)
    checks = Checks()
    _, warm = run_job(workload, inputs, None, work_dir)
    workload.check_output(inputs, warm, checks)
    reference = workload.record(inputs, warm)
    del warm
    golden = golden_record(workload.name, args.seed) if args.scale == 1.0 else None
    if golden is not None:
        checks.expect(reference == golden, "warm-up record equals the golden record")

    tracer = tracing.Tracer(workload.name) if args.trace else None
    report_dir = work_dir / "workers"
    report_dir.mkdir()
    jobs = []
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of every collection
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        gc.collect()
        clock, output = run_job(workload, inputs, tracer if traced else None, report_dir)
        record = workload.record(inputs, output)
        del output
        checks.expect(record == reference, f"job {len(jobs)} record equals the warm-up's")
        jobs.append({
            "traced": traced,
            "wall_s": sum(clock.ticks),
            "events": clock.events,
            "ticks": clock.ticks,
        })
        enough = len(jobs) >= (2 if args.trace else 1)
        if enough and perf_counter() - started >= args.seconds:
            break
    rss = peak_rss_mb()
    gc.unfreeze()
    workload.check_reference(inputs, reference, checks)

    if args.trace:
        metrics = per_layer(jobs, tracer)
        spec_key = "per_layer"
    else:
        metrics = end_to_end(jobs, setup, rss)
        spec_key = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[spec_key]
    results = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "verified": golden is not None,
        "record": reference,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "setup_s": setup,
        "jobs": [
            {key: job[key] for key in ("traced", "wall_s", "events")} | {"ticks": len(job["ticks"])}
            for job in jobs
        ],
        # Recorded as data, not gated: only lifecycle-rotation has enough
        # ticks per run for its tail percentiles to mean anything.
        "tick_tail_ms": {
            f"p{q}": percentile(plain_ticks(jobs), q) * 1e3 for q in (90, 99)
        },
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec
        },
    }
    if args.trace:
        traced_jobs = tracer.job
        results["attribution"] = {
            "wall_s": tracer.root_wall / traced_jobs,
            "parent_self_s": sum(
                tracer.layers[layer][0] for layer in tracing.LAYER_NAMES
            ) / traced_jobs,
            "unattributed_s": tracer.layers[tracing.ROOT][0] / traced_jobs,
            "worker_self_s": sum(
                tracer.workers.layers[layer][0] for layer in tracing.LAYER_NAMES
            ) / traced_jobs,
            "worker_records": tracer.workers.records,
            "self_s": {
                layer: (tracer.layers[layer][0] + tracer.workers.layers[layer][0]) / traced_jobs
                for layer in tracing.LAYER_NAMES
            },
        }
        rotations = tracer.rotations + tracer.workers.rotations
        if rotations:
            results["rotate_ms"] = {
                f"p{q}": percentile(rotations, q) * 1e3 for q in (50, 99)
            }
        if args.out is not None:
            results["chrome_trace"] = tracing.chrome_trace(tracer)
    return results


def write_results(out_dir: Path, results: dict) -> Path:
    sys.path.insert(0, str(HERE.parent))
    from _common import bench_environment

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{results['workload']}.seed{results['seed']}.{'trace' if results['trace'] else 'plain'}"
    index = 0
    while (out_dir / f"{stem}.{index}.json").exists():
        index += 1
    trace = results.pop("chrome_trace", None)
    if trace is not None:
        (out_dir / f"{stem}.{index}.chrome.json").write_text(json.dumps(trace))
    path = out_dir / f"{stem}.{index}.json"
    document = dict(results, environment=bench_environment())
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the results document into this directory")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke run uses 0.01)")
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perf benchmark: no package at {SRC / 'repro'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The string-hash layout of dicts and sets moves throughput by a
        # few percent from one interpreter to the next; pin it so runs
        # differ only in what they measure.  Pool workers inherit it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    from workloads import WORKLOADS

    args = parse_args(argv)
    if args.setup_probe:
        WORKLOADS[args.setup_probe].probe()
        return 0
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        results = measure(workload, args, work_dir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if args.out is not None:
        written = write_results(args.out, results)
        print(f"# results written to {written}", file=sys.stderr)
    for failure in results["failures"]:
        print(f"# check failed: {failure}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} jobs={len(results['jobs'])} "
          f"ticks={sum(job['ticks'] for job in results['jobs'])} "
          f"verified={'true' if results['verified'] else 'false'}")
    for name, metric in results["metrics"].items():
        print(f"{workload.name} {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not results["failures"],
        "attempted": results["attempted"],
        "failed": len(results["failures"]),
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
