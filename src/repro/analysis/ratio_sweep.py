"""Burn-in vs steady-state competitive-ratio sweeps over streaming scenarios.

The ROADMAP asks *when* each online mechanism falls behind the offline
optimum, not just by how much at the end of a run.  The answer splits a
run into two regimes:

* **burn-in** - the first ``burn_in`` revealed events, where the optimum
  is still tiny and a single premature component commitment produces
  large ratios;
* **steady state** - the last ``tail`` revealed events, where (under a
  sliding window) the live graph has reached its stationary shape and
  the ratio measures the mechanism's persistent overhead.

:func:`ratio_sweep` runs a grid over densities x sizes for each
registered ``stream`` scenario: every cell streams mechanisms and the
dynamic offline optimum through
:func:`~repro.online.simulator.compare_mechanisms_on_stream` in a single
pass (no reveal list is ever materialised), computes the pointwise
competitive-ratio trajectory, and summarises the first-``burn_in`` and
last-``tail`` samples - pooled across trials - with the full
:class:`~repro.analysis.metrics.SummaryStats` (so medians and
percentiles are available, not just mean ± CI; ratio tails are skewed).

Scenarios that emit their own expire events (``expires=True``, e.g.
thread churn) run unwindowed; insert-only scenarios get the sweep's
sliding window imposed on top.  The full mechanism lifecycle flows
through every cell: expire events reach the mechanisms (so the adaptive
mechanisms of :mod:`repro.online.adaptive` retire dead components) and
``epoch`` adds a counter-based epoch tick every that-many inserts on top
of any markers the stream itself emits.  Alongside the two ratio
regimes, each cell reports the *steady-state live clock size* per
mechanism (and for the offline optimum) - the number that stays bounded
for window-aware mechanisms and grows monotonically for append-only
ones.

Parallelism and seeding: each (scenario, density, size, trial) stream is
an independent task, mapped over the execution engine's
:class:`~repro.engine.executor.WorkerPool` of ``jobs`` workers.
Every task derives its stream seed and its per-mechanism seeds from the
sweep's one ``base_seed`` via :func:`repro.seeds.derive_seed` paths, and
samples are pooled in fixed grid order, so the sweep's output is
bit-identical for every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    EXTENDED_MECHANISMS,
    MechanismFactory,
    PAPER_MECHANISMS,
)
from repro.analysis.metrics import (
    SummaryStats,
    competitive_ratio_trajectory,
    summarize,
)
from repro.analysis.report import format_table
from repro.computation.registry import REGISTRY, STREAM, Scenario
from repro.exceptions import ExperimentError, ScenarioError
from repro.obs.registry import span as _metrics_span
from repro.online.simulator import (
    OFFLINE_LABEL,
    compare_mechanisms_on_stream,
    seed_mechanism_factories,
)
from repro.seeds import derive_seed


@dataclass(frozen=True)
class RatioCell:
    """One grid cell: per-mechanism ratio and live-clock-size statistics.

    ``burn_in`` / ``steady`` summarise the competitive-ratio samples of
    the two regimes; ``steady_clock`` summarises the *live clock sizes*
    over the steady-state tail, keyed by mechanism label plus an
    ``"offline"`` entry for the windowed optimum - the pairing that shows
    whether a mechanism's state stays bounded or merely its ratio does.
    """

    scenario: str
    density: float
    size: int
    burn_in: Mapping[str, SummaryStats]
    steady: Mapping[str, SummaryStats]
    steady_clock: Mapping[str, SummaryStats]


@dataclass(frozen=True)
class RatioSweepResult:
    """A full ratio sweep: the grid axes plus one :class:`RatioCell` per point."""

    scenarios: Tuple[str, ...]
    densities: Tuple[float, ...]
    sizes: Tuple[int, ...]
    mechanisms: Tuple[str, ...]
    window: int
    burn_in_events: int
    steady_tail_events: int
    num_events: int
    trials: int
    cells: Tuple[RatioCell, ...]
    epoch: Optional[int] = None

    def cells_for(self, scenario: str) -> Tuple[RatioCell, ...]:
        """The grid cells of one scenario, in sweep order."""
        return tuple(cell for cell in self.cells if cell.scenario == scenario)


@dataclass(frozen=True)
class _TrialTask:
    """One independent cell-trial: everything a worker needs, picklable."""

    scenario: str
    density: float
    size: int
    trial: int
    labels: Tuple[str, ...]
    window: int
    burn_in: int
    tail: int
    num_events: int
    base_seed: int
    epoch: Optional[int] = None


#: Per-label outcome of one trial: burn-in ratios, steady ratios, steady
#: live clock sizes.
_TrialSamples = Dict[str, Tuple[List[float], List[float], List[float]]]


def _trial_samples(
    task: _TrialTask,
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
) -> _TrialSamples:
    """Run one cell-trial; per label the (burn-in, steady, size) samples.

    ``mechanisms`` is only passed on the in-process path (custom factories
    are not picklable by name); workers resolve ``task.labels`` against
    :data:`~repro.analysis.experiments.EXTENDED_MECHANISMS` instead.
    """
    chosen: Mapping[str, MechanismFactory] = (
        mechanisms
        if mechanisms is not None
        else {label: EXTENDED_MECHANISMS[label] for label in task.labels}
    )
    scenario = REGISTRY.get(task.scenario, kind=STREAM)
    trial_root = derive_seed(
        task.base_seed, task.scenario, task.density, task.size, task.trial
    )
    events = scenario.build(
        task.size,
        task.size,
        task.density,
        task.num_events,
        seed=derive_seed(trial_root, "stream"),
    )
    factories = seed_mechanism_factories(
        dict(chosen), derive_seed(trial_root, "mechanisms")
    )
    results = compare_mechanisms_on_stream(
        events,
        factories,
        include_offline=True,
        window=None if scenario.expires else task.window,
        epoch=task.epoch,
    )
    offline_sizes = results[OFFLINE_LABEL].size_trajectory
    samples: _TrialSamples = {}
    for label in task.labels:
        sizes = results[label].size_trajectory
        ratios = competitive_ratio_trajectory(sizes, offline_sizes)
        samples[label] = (
            ratios[: task.burn_in],
            ratios[-task.tail :],
            [float(s) for s in sizes[-task.tail :]],
        )
    samples[OFFLINE_LABEL] = (
        [],
        [],
        [float(s) for s in offline_sizes[-task.tail :]],
    )
    return samples


def _run_trial_task(task: _TrialTask) -> _TrialSamples:
    """Module-level pool entry point (labels resolved worker-side)."""
    return _trial_samples(task)


def ratio_sweep(
    scenarios: Optional[Sequence[str]] = None,
    densities: Sequence[float] = (0.05, 0.2),
    sizes: Sequence[int] = (20, 40),
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
    trials: int = 3,
    window: int = 200,
    burn_in: int = 50,
    tail: int = 50,
    num_events: Optional[int] = None,
    base_seed: int = 2019,
    jobs: int = 1,
    epoch: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
) -> RatioSweepResult:
    """Sweep burn-in / steady-state competitive ratios over a stream grid.

    Parameters
    ----------
    scenarios:
        Names of registered ``stream`` scenarios; defaults to every one in
        the registry.
    densities, sizes:
        The grid axes: each stream runs with ``size`` threads, ``size``
        objects and the given density knob.
    mechanisms:
        Seeded mechanism factories as in the classic sweeps; defaults to
        the paper's three (:data:`~repro.analysis.experiments.PAPER_MECHANISMS`).
        Custom factories run in-process only: with ``jobs > 1`` the
        mechanism set must stay registered-by-name (worker processes
        resolve labels, not closures) - select registered mechanisms with
        ``labels`` instead.
    labels:
        Mutually exclusive with ``mechanisms``: names from
        :data:`~repro.analysis.experiments.EXTENDED_MECHANISMS` (e.g.
        ``["popularity", "adaptive-popularity"]``).  Label sets work with
        any ``jobs`` value because workers resolve them by name.
    trials:
        Independent streams per cell; ratio samples are pooled across
        trials before summarisation.
    window:
        Sliding-window length imposed on insert-only scenarios
        (self-expiring scenarios run unwindowed).
    burn_in, tail:
        How many leading / trailing revealed events feed the two summaries.
    num_events:
        Inserts per stream; defaults to ``max(burn_in + tail, 4 * window)``
        so the tail is sampled well past the first window turnover.
    jobs:
        Worker processes for the independent cell-trials; results are
        identical for every value (see the module docstring).
    epoch:
        Deliver an epoch tick to every mechanism after this many inserts
        (on top of any markers the stream emits).  ``None`` leaves only
        the stream's own markers.
    """
    if mechanisms is not None and labels is not None:
        raise ExperimentError("pass either mechanisms or labels, not both")
    if labels is not None:
        unknown = [label for label in labels if label not in EXTENDED_MECHANISMS]
        if unknown:
            raise ExperimentError(
                f"unknown mechanism labels: {', '.join(map(repr, unknown))} "
                f"(expected from: {', '.join(sorted(EXTENDED_MECHANISMS))})"
            )
        chosen_mechanisms = {
            label: EXTENDED_MECHANISMS[label] for label in labels
        }
    else:
        chosen_mechanisms = dict(mechanisms or PAPER_MECHANISMS)
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if window < 1:
        raise ExperimentError("window must be >= 1")
    if burn_in < 1 or tail < 1:
        raise ExperimentError("burn_in and tail must be >= 1")
    if epoch is not None and epoch < 1:
        raise ExperimentError("epoch must be >= 1")
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if not densities or not sizes:
        raise ExperimentError("densities and sizes must not be empty")
    if jobs > 1 and mechanisms is not None:
        raise ExperimentError(
            "custom mechanism factories cannot cross process boundaries; "
            "run with jobs=1, use the default mechanism set, or select "
            "registered mechanisms with labels=..."
        )
    events_per_trial = (
        num_events if num_events is not None else max(burn_in + tail, 4 * window)
    )
    if events_per_trial < burn_in + tail:
        raise ExperimentError(
            f"num_events ({events_per_trial}) must cover burn_in + tail "
            f"({burn_in + tail})"
        )
    try:
        chosen_scenarios: List[Scenario] = [
            REGISTRY.get(name, kind=STREAM)
            for name in (scenarios if scenarios is not None else REGISTRY.names(STREAM))
        ]
    except ScenarioError as error:
        raise ExperimentError(str(error)) from None
    if not chosen_scenarios:
        raise ExperimentError("no stream scenarios selected")

    chosen_labels = tuple(chosen_mechanisms)
    grid: List[Tuple[Scenario, float, int]] = [
        (scenario, density, int(size))
        for scenario in chosen_scenarios
        for density in densities
        for size in sizes
    ]
    tasks: List[_TrialTask] = [
        _TrialTask(
            scenario=scenario.name,
            density=density,
            size=size,
            trial=trial,
            labels=chosen_labels,
            window=window,
            burn_in=burn_in,
            tail=tail,
            num_events=events_per_trial,
            base_seed=base_seed,
            epoch=epoch,
        )
        for scenario, density, size in grid
        for trial in range(trials)
    ]
    # The trial leg dominates the sweep's wall clock; the span (a no-op
    # when no registry is installed) gives `sweep ratio --metrics` its
    # cost breakdown without touching a single sweep number.
    with _metrics_span("sweep.trials", tasks=len(tasks), jobs=jobs):
        if mechanisms is not None:
            outcomes = [_trial_samples(task, chosen_mechanisms) for task in tasks]
        else:
            # Deferred import: analysis is a lower layer than the engine;
            # only this execution path reaches up to its worker pool.
            from repro.engine.executor import WorkerPool

            outcomes = WorkerPool(jobs).map(_run_trial_task, tasks)

    cells: List[RatioCell] = []
    clock_labels = chosen_labels + (OFFLINE_LABEL,)
    with _metrics_span("sweep.summarise", cells=len(grid)):
        for cell_index, (scenario, density, size) in enumerate(grid):
            burn_samples: Dict[str, List[float]] = {
                label: [] for label in chosen_labels
            }
            steady_samples: Dict[str, List[float]] = {
                label: [] for label in chosen_labels
            }
            clock_samples: Dict[str, List[float]] = {
                label: [] for label in clock_labels
            }
            for trial in range(trials):
                outcome = outcomes[cell_index * trials + trial]
                for label in chosen_labels:
                    burn, steady, clock = outcome[label]
                    burn_samples[label].extend(burn)
                    steady_samples[label].extend(steady)
                    clock_samples[label].extend(clock)
                clock_samples[OFFLINE_LABEL].extend(outcome[OFFLINE_LABEL][2])
            cells.append(
                RatioCell(
                    scenario=scenario.name,
                    density=density,
                    size=size,
                    burn_in={
                        label: summarize(values)
                        for label, values in burn_samples.items()
                    },
                    steady={
                        label: summarize(values)
                        for label, values in steady_samples.items()
                    },
                    steady_clock={
                        label: summarize(values)
                        for label, values in clock_samples.items()
                    },
                )
            )
    return RatioSweepResult(
        scenarios=tuple(scenario.name for scenario in chosen_scenarios),
        densities=tuple(densities),
        sizes=tuple(int(size) for size in sizes),
        mechanisms=chosen_labels,
        window=window,
        burn_in_events=burn_in,
        steady_tail_events=tail,
        num_events=events_per_trial,
        trials=trials,
        cells=tuple(cells),
        epoch=epoch,
    )


def format_ratio_sweep(result: RatioSweepResult) -> str:
    """Render one table per scenario: ratios and live sizes per mechanism.

    Each mechanism gets a ``burn`` and a ``steady`` column showing
    ``mean (median)`` of the pooled ratio samples - the pairing that makes
    the over-commitment story legible at a glance (a mechanism with high
    burn-in but near-1 steady state recovers; one high in both never does)
    - plus a ``size`` column with the mean steady-state live clock size.
    The trailing ``offline:size`` column is the windowed optimum's own
    steady size, the floor every mechanism is measured against.
    """
    sections: List[str] = []
    for name in result.scenarios:
        scenario = REGISTRY.get(name, kind=STREAM)
        regime = (
            "self-expiring (no window)"
            if scenario.expires
            else f"window {result.window}"
        )
        if result.epoch is not None:
            regime += f", epoch every {result.epoch}"
        elif scenario.epochs:
            regime += ", stream-marked epochs"
        header = (
            f"ratio-sweep-{name}  ({regime}, {result.num_events} events/trial, "
            f"burn-in first {result.burn_in_events}, steady last "
            f"{result.steady_tail_events}, trials per cell: {result.trials})"
        )
        rows = []
        for cell in result.cells_for(name):
            row: Dict[str, object] = {"density": cell.density, "nodes": cell.size}
            for label in result.mechanisms:
                burn = cell.burn_in[label]
                steady = cell.steady[label]
                row[f"{label}:burn"] = f"{burn.mean:.2f} ({burn.median:.2f})"
                row[f"{label}:steady"] = f"{steady.mean:.2f} ({steady.median:.2f})"
                row[f"{label}:size"] = f"{cell.steady_clock[label].mean:.1f}"
            row["offline:size"] = f"{cell.steady_clock[OFFLINE_LABEL].mean:.1f}"
            rows.append(row)
        sections.append(header + "\n" + format_table(rows))
    return "\n\n".join(sections)
