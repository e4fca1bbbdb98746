"""Command-line interface.

The package installs no console script (it is primarily a library), but the
module runner exposes the common workflows so that traces can be analysed
and the paper's sweeps regenerated without writing any Python:

```
python -m repro demo                         # the paper's running example
python -m repro generate --workload producer-consumer --out trace.json
python -m repro analyze trace.json           # optimal mixed clock for a trace
python -m repro sweep density --scenario nonuniform --trials 3
python -m repro sweep nodes --density 0.05
python -m repro sweep ratio --window 200     # burn-in vs steady-state ratios
python -m repro sweep ratio --jobs 4         # same numbers, four workers
python -m repro sweep ratio --epoch 200 \
    --mechanisms popularity,adaptive-popularity   # adaptive vs append-only
python -m repro engine run --scenario thread-churn --workers 2 \
    --events 1000000 --checkpoint-dir ckpt   # sharded, pooled, resumable
python -m repro engine run --scenario thread-churn --epoch 5000 \
    --mechanisms popularity,adaptive-popularity   # lifecycle-aware shards
python -m repro engine run --scenario thread-churn --metrics metrics.json \
    --trace trace.json                       # telemetry: metrics + Chrome trace
python -m repro engine inspect ckpt          # checkpoint progress summary
python -m repro engine clean ckpt            # prune unreferenced shard files
```

Every command prints plain text to stdout; ``analyze`` and ``generate``
read/write the JSON trace format of :mod:`repro.computation.serialization`.

Exit codes: 0 on success; 1 when a check the command ran failed
(``analyze --check``, ``lint`` findings); 2 on a usage or input error;
:data:`EXIT_BROKEN_PIPE` (141) when the reader of stdout went away
early, as in ``| head`` - the remaining output is discarded quietly.

Workload and scenario choices are not hard-coded here: they are derived
from the :mod:`~repro.computation.registry`, so a scenario registered
anywhere in the package shows up in ``--workload`` / ``--scenario``
choices, help text and error messages without touching this module.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis import (
    density_sweep,
    format_ratio_sweep,
    format_sweep,
    node_sweep,
    ratio_sweep,
    sweep_crossovers,
)
from repro.computation import GRAPH, HappenedBefore, REGISTRY, STREAM, TRACE
from repro.computation.serialization import dump_computation, load_computation
from repro.computation.workloads import paper_example_trace
from repro.engine import EngineConfig, run_engine
from repro.engine.sharding import STRATEGIES as ENGINE_STRATEGIES
from repro.exceptions import ReproError
from repro.lint.cli import add_lint_arguments, cmd_lint
from repro.obs import MetricsRegistry, install as obs_install
from repro.offline import optimal_components_for_computation

#: Trace workloads by name, derived from the scenario registry (kept as a
#: module attribute because it is the CLI's public lookup surface; the
#: registry remains the single source of truth).
WORKLOADS = {
    scenario.name: scenario.factory for scenario in REGISTRY.scenarios(TRACE)
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal mixed vector clocks for multithreaded systems "
        "(reproduction of Zheng & Garg, ICDCS 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="walk through the paper's running example")

    generate = subparsers.add_parser(
        "generate",
        help="generate a workload trace as JSON",
        description="Registered trace workloads:\n" + REGISTRY.describe(TRACE),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    generate.add_argument("--workload", choices=REGISTRY.names(TRACE), default="producer-consumer")
    generate.add_argument("--seed", type=int, default=2019)
    generate.add_argument("--out", required=True, help="output JSON path")

    analyze = subparsers.add_parser("analyze", help="compute the optimal mixed clock for a trace")
    analyze.add_argument("trace", help="JSON trace produced by 'generate' (or your own tooling)")
    analyze.add_argument(
        "--check",
        action="store_true",
        help="verify the produced timestamps against the happened-before oracle "
        "(quadratic in the number of events; intended for small traces)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="regenerate one of the paper's sweeps, or the streaming ratio sweep",
        description=(
            "Axes 'density' and 'nodes' regenerate the paper's Figs. 4-7 on a\n"
            "registered graph family; axis 'ratio' runs the streaming burn-in\n"
            "vs steady-state competitive-ratio grid over every registered\n"
            "stream scenario.\n\n"
            "Registered graph scenarios:\n" + REGISTRY.describe(GRAPH) + "\n\n"
            "Registered stream scenarios:\n" + REGISTRY.describe(STREAM)
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("axis", choices=["density", "nodes", "ratio"])
    sweep.add_argument(
        "--scenario",
        choices=REGISTRY.names(GRAPH) + REGISTRY.names(STREAM),
        default=None,
        help="graph scenario for density/nodes sweeps (default: uniform); "
        "stream scenario for the ratio sweep (default: all of them)",
    )
    sweep.add_argument(
        "--trials", type=int, default=3)
    sweep.add_argument(
        "--nodes", type=int, default=None,
        help="nodes per side (density sweep default: 50; ratio sweep default: 20 and 40)",
    )
    sweep.add_argument(
        "--density", type=float, default=None,
        help="graph density (nodes sweep default: 0.05; ratio sweep default: 0.05 and 0.2)",
    )
    sweep.add_argument("--seed", type=int, default=2019)
    sweep.add_argument(
        "--offline", action="store_true", help="include the offline optimum series (Figs. 6-7)"
    )
    sweep.add_argument(
        "--window", type=int, default=200,
        help="sliding-window length for insert-only stream scenarios (ratio sweep)",
    )
    sweep.add_argument(
        "--burn-in", type=int, default=50, dest="burn_in",
        help="events counted as burn-in (ratio sweep)",
    )
    sweep.add_argument(
        "--tail", type=int, default=50,
        help="trailing events counted as steady state (ratio sweep)",
    )
    sweep.add_argument(
        "--events", type=int, default=None,
        help="insert events per trial (ratio sweep; default scales with the window)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the ratio sweep's independent trials "
        "(results are identical for every value)",
    )
    sweep.add_argument(
        "--epoch", type=int, default=None,
        help="deliver an epoch tick to every mechanism after this many "
        "inserts (ratio sweep; window-aware mechanisms restructure their "
        "clocks at epoch boundaries)",
    )
    sweep.add_argument(
        "--mechanisms", default=None,
        help="comma-separated registered mechanism labels for the ratio "
        "sweep (e.g. popularity,adaptive-popularity); default: the "
        "paper's three",
    )
    sweep.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the ratio sweep's telemetry (spans, counters) as a "
        "metrics JSON document; telemetry never changes a sweep number",
    )

    engine = subparsers.add_parser(
        "engine",
        help="sharded, resumable streaming runs (million-event scale)",
        description=(
            "The sharded execution engine partitions a stream scenario into\n"
            "thread-affine shards, runs mechanisms + the dynamic offline\n"
            "optimum per shard (in-process or on a worker pool), and merges\n"
            "partial metrics deterministically: for a fixed configuration the\n"
            "printed result - including its fingerprint - is bit-identical\n"
            "across --workers values and interrupt/resume cycles.\n\n"
            "Registered stream scenarios:\n" + REGISTRY.describe(STREAM)
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    engine_run = engine_sub.add_parser(
        "run", help="run one sharded streaming scenario and print merged metrics"
    )
    engine_run.add_argument(
        "--scenario", choices=REGISTRY.names(STREAM), required=True
    )
    engine_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes: shards are dealt into this many contiguous "
        "groups and each worker generates the stream ONCE for all its "
        "shards (1 runs in-process; never changes the numbers, only the "
        "wall-clock)",
    )
    engine_run.add_argument(
        "--shards", type=int, default=8,
        help="logical shards; part of the run's identity, unlike --workers",
    )
    engine_run.add_argument(
        "--events", type=int, default=20_000, help="insert events in the base stream"
    )
    engine_run.add_argument(
        "--nodes", type=int, default=50, help="threads and objects per side"
    )
    engine_run.add_argument("--density", type=float, default=0.1)
    engine_run.add_argument("--seed", type=int, default=2019)
    engine_run.add_argument(
        "--window", type=int, default=None,
        help="per-shard sliding window for insert-only scenarios "
        "(default: append-only)",
    )
    engine_run.add_argument(
        "--epoch", type=int, default=None,
        help="per-shard epoch boundary every this many of the shard's "
        "inserts (adaptive mechanisms retire/rebuild components at "
        "boundaries; part of the run's identity, like --shards)",
    )
    engine_run.add_argument(
        "--skew-warn", type=float, default=4.0, dest="skew_warn",
        help="warn on stderr when max/min shard insert load exceeds this "
        "ratio (0 disables the check)",
    )
    engine_run.add_argument(
        "--chunk-size", type=int, default=10_000, dest="chunk_size",
        help="inserts per chunk; chunk boundaries are the checkpoint points",
    )
    engine_run.add_argument(
        "--checkpoint-dir", default=None, dest="checkpoint_dir",
        help="directory for chunk-boundary checkpoints; re-running with the "
        "same configuration resumes from the last completed chunk",
    )
    engine_run.add_argument(
        "--strategy", choices=list(ENGINE_STRATEGIES), default="hash",
        help="shard routing: stateless hash of the thread's repr, or "
        "round-robin by first appearance",
    )
    engine_run.add_argument(
        "--mechanisms", default="naive,random,popularity",
        help="comma-separated mechanism labels (registered names)",
    )
    engine_run.add_argument(
        "--stride", type=int, default=0, dest="stride",
        help="trajectory sampling stride (0 = auto, ~1k samples per run)",
    )
    engine_run.add_argument(
        "--no-offline", action="store_true", dest="no_offline",
        help="skip the dynamic offline optimum (mechanisms only)",
    )
    engine_run.add_argument(
        "--timestamps", action="store_true",
        help="mint real per-event timestamps per mechanism and carry a "
        "per-label stamp digest under the fingerprint (append-only "
        "mechanisms only)",
    )
    engine_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write run telemetry (kernel cache hit rates, per-shard "
        "loads, epoch-rotation latency percentiles, spans) as a metrics "
        "JSON document; the fingerprint is bit-identical with and "
        "without telemetry",
    )
    engine_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write run spans in Chrome trace-event format "
        "(chrome://tracing / Perfetto), one lane per shard worker",
    )
    engine_run.add_argument(
        "--metrics-log", default=None, dest="metrics_log", metavar="PATH",
        help="write run telemetry as a JSONL event log (one metric or "
        "span per line)",
    )
    engine_inspect = engine_sub.add_parser(
        "inspect",
        help="summarise a checkpoint directory's manifest and shard progress",
    )
    engine_inspect.add_argument(
        "checkpoint_dir", help="directory written by 'engine run --checkpoint-dir'"
    )
    engine_clean = engine_sub.add_parser(
        "clean",
        help="prune checkpoint files the manifest does not reference "
        "(out-of-range shard ids, superseded shard-<id>.<chunks>.pickle "
        "generations, unnumbered shard-<id>.pickle files of the older "
        "layout, orphaned temp files)",
    )
    engine_clean.add_argument(
        "checkpoint_dir", help="directory written by 'engine run --checkpoint-dir'"
    )
    engine_clean.add_argument(
        "--max-age", type=float, default=None, dest="max_age", metavar="SECONDS",
        help="additionally prune referenced shard checkpoints older than "
        "this many seconds (safe: a pruned shard is simply recomputed on "
        "the next resume)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="static determinism & contract checks (AST-based, stdlib-only)",
        description=(
            "Statically enforce the repo's bit-identity invariants: "
            "determinism rules (D1xx: hash-order set iteration, builtin "
            "hash(), global random state, wall-clock reads, unsorted "
            "directory listings, completion-order collection, set element "
            "picks, sets rendered into text) and contract rules (C2xx: "
            "observe_batch fallback guard, EngineConfig signature "
            "membership, scenario seed threading, no telemetry reads on "
            "result paths).  Exit 0 when clean or fully baselined, 1 on "
            "active findings."
        ),
    )
    add_lint_arguments(lint)
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _cmd_demo(_: argparse.Namespace) -> int:
    trace = paper_example_trace()
    result = optimal_components_for_computation(trace)
    stamped = result.protocol().timestamp_computation(trace)
    print("Paper running example (Fig. 1):")
    for event in trace:
        print(f"  {event.describe()}")
    print("\nOptimal mixed clock components:", sorted(map(str, result.cover)))
    print(f"Clock size {result.clock_size} vs {trace.num_threads} threads "
          f"/ {trace.num_objects} objects")
    print("\nTimestamps (Fig. 3):")
    print(stamped.format_table())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    # Resolved through the registry (not the WORKLOADS snapshot) so trace
    # scenarios registered after this module was imported still generate;
    # an unknown name surfaces as a ScenarioError -> clean CLI error.
    trace = REGISTRY.get(args.workload, kind=TRACE).build(args.seed)
    dump_computation(trace, args.out)
    print(f"wrote {trace.num_events} events "
          f"({trace.num_threads} threads, {trace.num_objects} objects) to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = load_computation(args.trace)
    result = optimal_components_for_computation(trace)
    summary = result.summary()
    print(f"trace: {args.trace}")
    print(f"  events:            {trace.num_events}")
    print(f"  threads:           {summary['threads']}")
    print(f"  objects:           {summary['objects']}")
    print(f"  graph density:     {summary['density']:.4f}")
    print(f"  optimal clock:     {summary['clock_size']} components "
          f"({summary['thread_components']} threads + {summary['object_components']} objects)")
    print(f"  thread-based size: {summary['threads']}")
    print(f"  object-based size: {summary['objects']}")
    print(f"  saving vs min(n,m): {summary['naive_size'] - summary['clock_size']}")
    print("  components:", ", ".join(sorted(map(str, result.cover))) or "(none)")
    if args.check:
        stamped = result.protocol().timestamp_computation(trace)
        oracle = HappenedBefore(trace)
        mismatches = sum(
            1
            for a in trace
            for b in trace
            if a != b and stamped.happened_before(a, b) != oracle.happened_before(a, b)
        )
        print(f"  oracle check:      {mismatches} mismatching pairs "
              f"out of {trace.num_events * (trace.num_events - 1)}")
        if mismatches:
            return 1
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    if args.engine_command == "inspect":
        return _cmd_engine_inspect(args)
    if args.engine_command == "clean":
        return _cmd_engine_clean(args)
    config = EngineConfig(
        scenario=args.scenario,
        num_threads=args.nodes,
        num_objects=args.nodes,
        density=args.density,
        num_events=args.events,
        seed=args.seed,
        num_shards=args.shards,
        chunk_size=args.chunk_size,
        window=args.window,
        epoch_every=args.epoch,
        mechanisms=tuple(
            label.strip() for label in args.mechanisms.split(",") if label.strip()
        ),
        include_offline=not args.no_offline,
        strategy=args.strategy,
        checkpoint_dir=args.checkpoint_dir,
        trajectory_stride=args.stride,
        timestamps=args.timestamps,
        workers=args.workers,
    )
    # One timing mechanism for the whole CLI: a telemetry registry is
    # always installed around the run (its disabled/enabled state never
    # changes a number - the fingerprint identity test pins that), and
    # the elapsed line reads the top-level span instead of a second
    # ad-hoc perf_counter pair.
    registry = MetricsRegistry(origin="engine")
    previous = obs_install(registry)
    schedule = f"workers={args.workers}"
    try:
        with registry.span(
            "cli.engine_run", workers=args.workers, scenario=args.scenario
        ) as timer:
            result = run_engine(config)
    finally:
        obs_install(previous)
    elapsed = timer.duration
    # The report is a pure function of the configuration (the bit-identity
    # contract); wall-clock facts go to stderr so stdout stays comparable
    # across --workers values.
    print(result.format())
    if args.skew_warn > 0:
        skew = result.shard_skew()
        if skew > args.skew_warn:
            loads = result.shard_loads()
            print(
                f"warning: shard load skew {skew:.1f}x exceeds "
                f"{args.skew_warn:.1f}x (insert counts "
                f"{min(loads.values())}..{max(loads.values())} across "
                f"{len(loads)} shards); consider --strategy round-robin "
                f"or fewer shards",
                file=sys.stderr,
            )
    events = result.inserts + result.expires
    if config.checkpoint_dir:
        # Resumed runs reload completed chunks from checkpoints, so the
        # merged event total over this invocation's elapsed time is not a
        # processing rate; report only what was measured.
        print(
            f"merged {events} events in {elapsed:.2f}s ({schedule}; "
            f"checkpointed chunks reload without reprocessing, so no "
            f"events/s is reported)",
            file=sys.stderr,
        )
    else:
        rate = events / elapsed if elapsed > 0 else float("inf")
        print(
            f"processed {events} events in {elapsed:.2f}s "
            f"({rate:,.0f} events/s, {schedule})",
            file=sys.stderr,
        )
    if args.metrics or args.trace or args.metrics_log:
        from repro.obs import exporters

        if args.metrics:
            path = exporters.write_metrics_json(registry, args.metrics)
            print(f"metrics written to {path}", file=sys.stderr)
        if args.metrics_log:
            path = exporters.write_spans_jsonl(registry, args.metrics_log)
            print(f"metrics log written to {path}", file=sys.stderr)
        if args.trace:
            path = exporters.write_chrome_trace(registry, args.trace)
            print(f"chrome trace written to {path}", file=sys.stderr)
        print(exporters.format_summary(registry), file=sys.stderr)
    return 0


def _cmd_engine_inspect(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.engine import EngineCheckpointManager

    manager = EngineCheckpointManager.open(args.checkpoint_dir)
    signature = manager.signature
    print(f"checkpoint directory: {manager.directory}")
    for key in sorted(signature):
        print(f"  {key}: {signature[key]}")
    rows = manager.describe()
    # Per-shard progress and checkpoint age as obs gauges.  The
    # registry's wall anchor is the one sanctioned wall-clock read (the
    # D104 carve-out lives inside repro.obs), so this command never
    # calls time.time() itself; the age column below is derived from the
    # gauges it just set.
    registry = MetricsRegistry(origin="inspect")
    files = manager.shard_files()
    for row in rows:
        shard = row["shard"]
        registry.gauge(f"checkpoint.shard[{shard}].chunks", row["chunks_done"])
        registry.gauge(f"checkpoint.shard[{shard}].inserts", row["inserts_done"])
        registry.gauge(f"checkpoint.shard[{shard}].bytes", row["bytes"])
        path = files.get(shard)
        if path is not None:
            registry.gauge(
                f"checkpoint.shard[{shard}].age_s",
                max(0.0, registry.wall_epoch - path.stat().st_mtime),
            )
    for row in rows:
        age = registry.gauge_value(f"checkpoint.shard[{row['shard']}].age_s", -1.0)
        row["age_s"] = f"{age:.1f}" if age >= 0 else "-"
    print()
    print(format_table(rows) if rows else "(no shards recorded)")
    total_inserts = sum(row["inserts_done"] for row in rows)
    target = signature.get("num_events")
    if isinstance(target, int) and target > 0:
        print(
            f"\nprogress: {total_inserts}/{target} inserts checkpointed "
            f"({100.0 * total_inserts / target:.1f}%)"
        )
    return 0


def _cmd_engine_clean(args: argparse.Namespace) -> int:
    from repro.engine import EngineCheckpointManager

    manager = EngineCheckpointManager.open(args.checkpoint_dir)
    removed = manager.prune(max_age=args.max_age)
    if removed:
        for path in removed:
            print(f"removed {path}")
    what = (
        "unreferenced/stale" if args.max_age is not None else "unreferenced"
    )
    print(f"pruned {len(removed)} {what} file(s) from {manager.directory}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis == "ratio":
        labels = None
        if args.mechanisms:
            labels = [
                label.strip()
                for label in args.mechanisms.split(",")
                if label.strip()
            ]
        # Same unified timing as `engine run`: one installed registry,
        # one top-level span, elapsed read back off the span.
        registry = MetricsRegistry(origin="sweep")
        previous = obs_install(registry)
        try:
            with registry.span("cli.sweep_ratio", jobs=args.jobs) as timer:
                result = ratio_sweep(
                    scenarios=[args.scenario] if args.scenario else None,
                    densities=(
                        [args.density] if args.density is not None else (0.05, 0.2)
                    ),
                    sizes=[args.nodes] if args.nodes is not None else (20, 40),
                    trials=args.trials,
                    window=args.window,
                    burn_in=args.burn_in,
                    tail=args.tail,
                    num_events=args.events,
                    base_seed=args.seed,
                    jobs=args.jobs,
                    epoch=args.epoch,
                    labels=labels,
                )
        finally:
            obs_install(previous)
        print(format_ratio_sweep(result))
        print(
            f"ratio sweep completed in {timer.duration:.2f}s "
            f"(jobs={args.jobs})",
            file=sys.stderr,
        )
        if args.metrics:
            from repro.obs import exporters

            path = exporters.write_metrics_json(registry, args.metrics)
            print(f"metrics written to {path}", file=sys.stderr)
            print(exporters.format_summary(registry), file=sys.stderr)
        return 0
    # A stream scenario passed to a graph-family axis fails the registry's
    # kind-constrained lookup inside the sweep, which surfaces as a clean
    # 'error: unknown graph scenario' exit rather than a silent ignore.
    scenario = args.scenario or "uniform"
    if args.axis == "density":
        result = density_sweep(
            [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5],
            num_threads=args.nodes if args.nodes is not None else 50,
            num_objects=args.nodes if args.nodes is not None else 50,
            scenario=scenario,
            trials=args.trials,
            base_seed=args.seed,
            include_offline=args.offline,
        )
    else:
        result = node_sweep(
            [10, 30, 50, 70, 90, 110],
            density=args.density if args.density is not None else 0.05,
            scenario=scenario,
            trials=args.trials,
            base_seed=args.seed,
            include_offline=args.offline,
        )
    print(format_sweep(result))
    print("\ncrossover vs flat Naive (=n) line:",
          sweep_crossovers(result, baseline="thread_clock"))
    return 0


#: Exit code when stdout's reader closes the pipe early: 128 + SIGPIPE,
#: what a shell reports for a process that SIGPIPE terminated.
EXIT_BROKEN_PIPE = 141

COMMANDS = {
    "demo": _cmd_demo,
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "engine": _cmd_engine,
    "lint": cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the unwritten rest cannot raise a second BrokenPipeError.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
