"""The experiment harness: the parameter sweeps behind Figs. 4-7.

Each experiment in the paper's Section V is a sweep over one parameter
(graph density or node count) of the average final vector clock size of
several mechanisms on randomly generated thread-object bipartite graphs.
This module implements those sweeps once, so every benchmark and example
calls the same code path:

* :func:`density_sweep`  - Fig. 4 (online mechanisms) and Fig. 6 (offline vs
  online) when ``include_offline=True``;
* :func:`node_sweep`     - Fig. 5 and Fig. 7 analogously;
* :func:`scenario_comparison` - extra: clock sizes on the structured runtime
  workloads (producer/consumer, work stealing, ...).

Results come back as :class:`SweepResult`, a list of
:class:`SweepPoint` rows that the report module renders as the tables
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    SummaryStats,
    competitive_ratio_trajectory,
    summarize,
)
from repro.computation.registry import GRAPH, REGISTRY
from repro.computation.trace import Computation
from repro.exceptions import ExperimentError, ScenarioError
from repro.graph.bipartite import BipartiteGraph
from repro.offline.algorithm import optimal_clock_size
from repro.online.adaptive import (
    EpochRotatingHybridMechanism,
    WindowedPopularityMechanism,
)
from repro.online.base import OnlineMechanism
from repro.online.hybrid import HybridMechanism
from repro.online.naive import NaiveMechanism
from repro.online.popularity import PopularityMechanism
from repro.online.random_choice import RandomMechanism
from repro.online.simulator import compare_mechanisms, reveal_order, run_mechanism

MechanismFactory = Callable[[int], OnlineMechanism]
GraphFactory = Callable[[int], BipartiteGraph]

#: The three mechanisms of the paper's Figs. 4-5.  Each factory receives the
#: trial seed so stochastic mechanisms draw independent randomness per trial.
PAPER_MECHANISMS: Dict[str, MechanismFactory] = {
    "naive": lambda seed: NaiveMechanism(),
    "random": lambda seed: RandomMechanism(seed=seed),
    "popularity": lambda seed: PopularityMechanism(),
}

#: Every registered-by-name mechanism: the paper's three, the hybrid of
#: Section V's closing recommendation, and the window-aware adaptive
#: mechanisms (the labels the ratio sweep and the sharded engine resolve
#: worker-side, so they must all live in this one table).
EXTENDED_MECHANISMS: Dict[str, MechanismFactory] = {
    **PAPER_MECHANISMS,
    "hybrid": lambda seed: HybridMechanism(),
    "adaptive-popularity": lambda seed: WindowedPopularityMechanism(),
    # The flagged windowed-degree variant (default-off in the class): the
    # per-event choice reads live-window degree counters instead of the
    # append-only revealed graph, so popularity under drift tracks the
    # live regime instead of chasing dead history.
    "adaptive-popularity-windowed": lambda seed: WindowedPopularityMechanism(
        windowed_degrees=True
    ),
    # The cost-model retirement policy: a dead component is retired only
    # once the slot rent it has paid (ticks spent dead) beats its decayed
    # re-add score, cutting rotation *frequency* on churny streams at the
    # price of a somewhat larger steady clock.
    "adaptive-popularity-cost": lambda seed: WindowedPopularityMechanism(
        retirement="cost"
    ),
    "epoch-hybrid": lambda seed: EpochRotatingHybridMechanism(),
}


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a sweep: per-mechanism clock size statistics."""

    x: float
    sizes: Mapping[str, SummaryStats]
    offline: Optional[SummaryStats] = None

    def mean_size(self, mechanism: str) -> float:
        if mechanism == "offline":
            if self.offline is None:
                raise ExperimentError("sweep did not include the offline optimum")
            return self.offline.mean
        return self.sizes[mechanism].mean


@dataclass(frozen=True)
class SweepResult:
    """A full sweep: the x-axis label, its values, and one row per value."""

    name: str
    x_label: str
    points: Tuple[SweepPoint, ...]
    mechanisms: Tuple[str, ...]
    trials: int

    @property
    def xs(self) -> Tuple[float, ...]:
        return tuple(point.x for point in self.points)

    def series(self, mechanism: str) -> Tuple[float, ...]:
        """The mean clock size of one mechanism across the sweep."""
        return tuple(point.mean_size(mechanism) for point in self.points)

    def as_rows(self) -> List[Dict[str, float]]:
        """Flat row dicts (one per x value), convenient for table rendering."""
        rows = []
        for point in self.points:
            row: Dict[str, float] = {self.x_label: point.x}
            for mechanism in self.mechanisms:
                row[mechanism] = point.sizes[mechanism].mean
            if point.offline is not None:
                row["offline"] = point.offline.mean
            rows.append(row)
        return rows


def _sweep(
    name: str,
    x_label: str,
    x_values: Sequence[float],
    graph_factory: Callable[[float, int], BipartiteGraph],
    mechanisms: Mapping[str, MechanismFactory],
    trials: int,
    base_seed: int,
    include_offline: bool,
    include_nominal_naive: bool = True,
) -> SweepResult:
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if not x_values:
        raise ExperimentError("x_values must not be empty")
    points: List[SweepPoint] = []
    labels = list(mechanisms)
    if include_nominal_naive:
        # The paper plots Naive as a flat line at n: a thread-based clock has
        # one slot per thread of the system whether or not the thread ever
        # acts.  The "naive" mechanism series above counts only threads that
        # actually appear, so both views are reported.
        labels.append("thread_clock")
    for x_index, x in enumerate(x_values):
        per_mechanism: Dict[str, List[int]] = {label: [] for label in labels}
        offline_sizes: List[int] = []
        for trial in range(trials):
            seed = base_seed + 10_000 * x_index + trial
            graph = graph_factory(x, seed)
            order = reveal_order(graph, seed=seed + 1)
            for label, factory in mechanisms.items():
                result = run_mechanism(factory(seed + 2), order)
                per_mechanism[label].append(result.final_size)
            if include_nominal_naive:
                per_mechanism["thread_clock"].append(graph.num_threads)
            if include_offline:
                offline_sizes.append(optimal_clock_size(graph))
        points.append(
            SweepPoint(
                x=x,
                sizes={label: summarize(values) for label, values in per_mechanism.items()},
                offline=summarize(offline_sizes) if include_offline else None,
            )
        )
    return SweepResult(
        name=name,
        x_label=x_label,
        points=tuple(points),
        mechanisms=tuple(labels),
        trials=trials,
    )


def density_sweep(
    densities: Sequence[float],
    num_threads: int = 50,
    num_objects: int = 50,
    scenario: str = "uniform",
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
    trials: int = 5,
    base_seed: int = 2019,
    include_offline: bool = False,
) -> SweepResult:
    """Sweep graph density at fixed size (Figs. 4 and 6).

    Parameters
    ----------
    scenario:
        ``"uniform"`` or ``"nonuniform"`` - the two scenarios of Section V.
    include_offline:
        Add the offline optimum series (turns a Fig.-4-style sweep into a
        Fig.-6-style one).
    """
    generator = _scenario_generator(scenario)

    def graph_factory(density: float, seed: int) -> BipartiteGraph:
        return generator(num_threads, num_objects, density, seed)

    return _sweep(
        name=f"density-sweep-{scenario}",
        x_label="density",
        x_values=list(densities),
        graph_factory=graph_factory,
        mechanisms=dict(mechanisms or PAPER_MECHANISMS),
        trials=trials,
        base_seed=base_seed,
        include_offline=include_offline,
    )


def node_sweep(
    node_counts: Sequence[int],
    density: float = 0.05,
    scenario: str = "uniform",
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
    trials: int = 5,
    base_seed: int = 2019,
    include_offline: bool = False,
) -> SweepResult:
    """Sweep the number of nodes per side at fixed density (Figs. 5 and 7)."""
    generator = _scenario_generator(scenario)

    def graph_factory(nodes: float, seed: int) -> BipartiteGraph:
        count = int(nodes)
        return generator(count, count, density, seed)

    return _sweep(
        name=f"node-sweep-{scenario}",
        x_label="nodes_per_side",
        x_values=[float(n) for n in node_counts],
        graph_factory=graph_factory,
        mechanisms=dict(mechanisms or PAPER_MECHANISMS),
        trials=trials,
        base_seed=base_seed,
        include_offline=include_offline,
    )


def scenario_comparison(
    computations: Mapping[str, Computation],
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
    base_seed: int = 2019,
) -> Dict[str, Dict[str, int]]:
    """Clock sizes of every mechanism (plus baselines) on concrete traces.

    Used by the extended evaluation on structured runtime workloads.  The
    returned mapping is ``workload name -> {mechanism: clock size}`` and
    always includes ``"offline"`` (optimum), ``"thread_clock"`` (= number of
    threads) and ``"object_clock"`` (= number of objects).
    """
    chosen = dict(mechanisms or PAPER_MECHANISMS)
    table: Dict[str, Dict[str, int]] = {}
    for name, computation in computations.items():
        graph = computation.bipartite_graph()
        row: Dict[str, int] = {
            "thread_clock": computation.num_threads,
            "object_clock": computation.num_objects,
            "offline": optimal_clock_size(graph),
        }
        for label, factory in chosen.items():
            mechanism = factory(base_seed)
            result = run_mechanism(mechanism, computation.to_pairs())
            row[label] = result.final_size
        table[name] = row
    return table


def competitive_ratio_over_time(
    graph: BipartiteGraph,
    mechanisms: Optional[Mapping[str, MechanismFactory]] = None,
    seed: int = 2019,
) -> Dict[str, List[float]]:
    """Per-event competitive ratio of each mechanism on one reveal order.

    Runs every mechanism and the incremental offline optimum on the same
    reveal order of ``graph`` and returns, per mechanism, the pointwise
    ratio of its clock-size trajectory to the optimum trajectory (see
    :func:`~repro.analysis.metrics.competitive_ratio_trajectory`).  This
    is the new over-time view of the Figs. 6-7 comparison: it shows *when*
    during a run each mechanism commits to components the optimum avoids,
    not just the final gap.
    """
    chosen = dict(mechanisms or PAPER_MECHANISMS)
    factories = {
        label: (lambda factory=factory: factory(seed)) for label, factory in chosen.items()
    }
    results = compare_mechanisms(graph, factories, seed=seed, include_offline=True)
    offline_sizes = results["offline"].size_trajectory
    return {
        label: competitive_ratio_trajectory(results[label].size_trajectory, offline_sizes)
        for label in chosen
    }


def _scenario_generator(scenario: str):
    """Resolve a graph-family scenario name through the scenario registry.

    The registry is the single source of workload truth (the CLI and the
    benchmarks resolve names through the same table); the lookup error is
    re-raised as :class:`ExperimentError` to keep this harness's error
    contract.
    """
    try:
        factory = REGISTRY.get(scenario, kind=GRAPH).factory
    except ScenarioError as error:
        raise ExperimentError(str(error)) from None
    return lambda n, m, density, seed: factory(n, m, density, seed=seed)
