"""Extra experiment E8: sensitivity of the online mechanisms to reveal order.

The paper evaluates each mechanism on a single random reveal order per
graph.  This ablation replays the same Uniform and Nonuniform graphs under
many shuffled orders and reports, per mechanism, the best / mean / worst
final clock size and the worst-case ratio to the offline optimum - i.e.
how much of the observed performance is the mechanism and how much is luck
with the order.  Naive is provably order-insensitive and serves as the
control.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.graph import nonuniform_bipartite, uniform_bipartite
from repro.online import NaiveMechanism, PopularityMechanism, RandomMechanism
from repro.online.sensitivity import compare_order_sensitivity


NODES = 50
DENSITY = 0.05
ORDER_TRIALS = 15

MECHANISMS = {
    "naive": lambda seed: NaiveMechanism(),
    "random": lambda seed: RandomMechanism(seed=seed),
    "popularity": lambda seed: PopularityMechanism(),
}


def _run(scenario: str):
    generator = uniform_bipartite if scenario == "uniform" else nonuniform_bipartite
    graph = generator(NODES, NODES, DENSITY, seed=90)
    return graph, compare_order_sensitivity(
        graph, MECHANISMS, trials=ORDER_TRIALS, base_seed=900
    )


@pytest.mark.benchmark(group="order-sensitivity")
@pytest.mark.parametrize("scenario", ["uniform", "nonuniform"])
def test_order_sensitivity(benchmark, record_table, scenario):
    graph, results = benchmark.pedantic(_run, args=(scenario,), rounds=1, iterations=1)

    rows = []
    for label, result in results.items():
        rows.append(
            {
                "mechanism": label,
                "best": result.best,
                "mean": result.stats.mean,
                "worst": result.worst,
                "spread": result.spread,
                "worst/optimal": result.worst_case_ratio(),
            }
        )
    header = (
        f"{scenario}: {NODES}+{NODES} nodes, density {DENSITY}, "
        f"{ORDER_TRIALS} reveal orders, offline optimum = "
        f"{next(iter(results.values())).offline_optimum}"
    )
    record_table(f"order_sensitivity_{scenario}", header + "\n" + format_table(rows))

    # Naive is order-insensitive; the adaptive mechanisms are not.
    assert results["naive"].spread == 0
    assert results["random"].spread >= 0
    # Nobody beats the offline optimum on any order (weak duality).
    for result in results.values():
        assert result.best >= result.offline_optimum
