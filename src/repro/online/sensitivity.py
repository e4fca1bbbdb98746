"""Reveal-order sensitivity analysis for the online mechanisms.

The paper evaluates each online mechanism on one random reveal order per
graph.  In practice the order in which a computation reveals its accesses
is not under anyone's control, so a natural robustness question - not
studied in the paper - is how much the final clock size depends on the
order.  This module estimates that empirically: it replays the same graph
under many independently shuffled reveal orders and reports the spread of
final clock sizes per mechanism, together with the seeds of the best and
worst orders found (so a specific order can be reproduced and inspected).

Used by the extra benchmark ``benchmarks/bench_order_sensitivity.py`` and
available to library users who want to stress their own access patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.analysis.metrics import SummaryStats, summarize
from repro.exceptions import ExperimentError
from repro.graph.bipartite import BipartiteGraph
from repro.offline.algorithm import optimal_clock_size
from repro.online.base import OnlineMechanism
from repro.online.simulator import reveal_order, run_mechanism

MechanismFactory = Callable[[int], OnlineMechanism]


@dataclass(frozen=True)
class SensitivityResult:
    """Spread of one mechanism's final clock size over random reveal orders."""

    mechanism: str
    stats: SummaryStats
    best_order_seed: int
    worst_order_seed: int
    offline_optimum: int

    @property
    def best(self) -> float:
        """Smallest final clock size observed."""
        return self.stats.minimum

    @property
    def worst(self) -> float:
        """Largest final clock size observed."""
        return self.stats.maximum

    @property
    def spread(self) -> float:
        """Worst minus best - how much the reveal order alone can cost."""
        return self.stats.maximum - self.stats.minimum

    def worst_case_ratio(self) -> float:
        """Worst observed size relative to the offline optimum."""
        if self.offline_optimum == 0:
            return 1.0
        return self.stats.maximum / self.offline_optimum


def order_sensitivity(
    graph: BipartiteGraph,
    factory: MechanismFactory,
    trials: int = 20,
    base_seed: int = 0,
    mechanism_name: Optional[str] = None,
) -> SensitivityResult:
    """Replay ``graph`` under ``trials`` shuffled reveal orders.

    ``factory`` receives the trial seed so stochastic mechanisms (Random)
    draw fresh randomness per trial; deterministic mechanisms simply ignore
    it.  The *same* seed also shuffles the reveal order, so a
    (mechanism seed, order) pair can be reproduced from the reported
    best/worst seeds.
    """
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if graph.num_edges == 0:
        raise ExperimentError("order sensitivity needs a graph with at least one edge")
    sizes = []
    best_seed = worst_seed = base_seed
    best_size = float("inf")
    worst_size = float("-inf")
    name = mechanism_name
    for trial in range(trials):
        seed = base_seed + trial
        mechanism = factory(seed)
        if name is None:
            name = mechanism.name
        result = run_mechanism(mechanism, reveal_order(graph, seed=seed))
        sizes.append(result.final_size)
        if result.final_size < best_size:
            best_size, best_seed = result.final_size, seed
        if result.final_size > worst_size:
            worst_size, worst_seed = result.final_size, seed
    return SensitivityResult(
        mechanism=name or "unknown",
        stats=summarize(sizes),
        best_order_seed=best_seed,
        worst_order_seed=worst_seed,
        offline_optimum=optimal_clock_size(graph),
    )


def compare_order_sensitivity(
    graph: BipartiteGraph,
    factories: Mapping[str, MechanismFactory],
    trials: int = 20,
    base_seed: int = 0,
) -> Dict[str, SensitivityResult]:
    """Run :func:`order_sensitivity` for several mechanisms on one graph."""
    return {
        label: order_sensitivity(
            graph, factory, trials=trials, base_seed=base_seed, mechanism_name=label
        )
        for label, factory in factories.items()
    }
