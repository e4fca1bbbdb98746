"""Extra experiment E7: ablation of the Hybrid mechanism's thresholds.

Section V closes with a practical recommendation: run Popularity while the
revealed graph is sparse/small and fall back to Naive once density or size
thresholds are exceeded.  This ablation sweeps the density threshold of
:class:`repro.online.HybridMechanism` on Uniform and Nonuniform graphs and
reports the final clock size against the pure mechanisms and the offline
optimum, showing that a moderate threshold captures most of Popularity's
benefit on sparse graphs while avoiding its blow-up on dense ones.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.analysis.metrics import summarize
from repro.graph import nonuniform_bipartite, uniform_bipartite
from repro.offline import optimal_clock_size
from repro.online import HybridMechanism, NaiveMechanism, PopularityMechanism
from repro.online.simulator import reveal_order, run_mechanism


DENSITIES = [0.02, 0.05, 0.10, 0.20, 0.40]
THRESHOLDS = [0.0, 0.05, 0.15, 0.30, 1.0]
NODES = 50
TRIALS = 3


def _ablation(scenario: str):
    generator = uniform_bipartite if scenario == "uniform" else nonuniform_bipartite
    rows = []
    for density in DENSITIES:
        row = {"density": density}
        per_label = {f"hybrid@{threshold:g}": [] for threshold in THRESHOLDS}
        per_label["popularity"] = []
        per_label["naive"] = []
        per_label["offline"] = []
        for trial in range(TRIALS):
            graph = generator(NODES, NODES, density, seed=8_000 + trial)
            order = reveal_order(graph, seed=trial)
            for threshold in THRESHOLDS:
                mechanism = HybridMechanism(density_threshold=threshold, node_threshold=10**6)
                per_label[f"hybrid@{threshold:g}"].append(
                    run_mechanism(mechanism, order).final_size
                )
            per_label["popularity"].append(
                run_mechanism(PopularityMechanism(), order).final_size
            )
            per_label["naive"].append(run_mechanism(NaiveMechanism(), order).final_size)
            per_label["offline"].append(optimal_clock_size(graph))
        for label, values in per_label.items():
            row[label] = summarize(values).mean
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="hybrid-ablation")
@pytest.mark.parametrize("scenario", ["uniform", "nonuniform"])
def test_hybrid_threshold_ablation(benchmark, record_table, scenario):
    rows = benchmark.pedantic(_ablation, args=(scenario,), rounds=1, iterations=1)
    record_table(f"hybrid_ablation_{scenario}", format_table(rows))

    by_density = {row["density"]: row for row in rows}
    # A density threshold of 1.0 can never be exceeded, so that hybrid is
    # exactly the Popularity mechanism.
    for row in rows:
        assert row["hybrid@1"] == pytest.approx(row["popularity"])
        assert row["offline"] <= min(row["popularity"], row["naive"]) + 1e-9
    # On dense graphs a finite threshold avoids Popularity's blow-up: the
    # hybrid with threshold 0.15 must not exceed pure Popularity at density 0.4.
    dense = by_density[0.40]
    assert dense["hybrid@0.15"] <= dense["popularity"] + 1e-9
    # On sparse Nonuniform graphs the same hybrid keeps most of Popularity's
    # advantage over Naive.
    if scenario == "nonuniform":
        sparse = by_density[0.05]
        assert sparse["hybrid@0.15"] < sparse["naive"]
