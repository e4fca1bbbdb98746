"""Extra experiment E7: competitive ratio over time (Figs. 6-7 extension).

The paper compares online mechanisms with the offline optimum only at the
*end* of a run.  With the incremental matching engine the offline optimum
is available after every revealed event, so the comparison becomes a
trajectory: ``online_size[i] / optimum[i]`` shows *when* during a run each
mechanism commits to components the optimum avoids, not just the final
gap.  This benchmark records those trajectories on a Fig.-6-style graph
(50 per side) for the uniform and nonuniform scenarios.
"""

from __future__ import annotations

import pytest

from repro.analysis import competitive_ratio_over_time, format_series
from repro.computation import GRAPH, REGISTRY

from _common import FIG4_NODES, FIG5_DENSITY


@pytest.mark.benchmark(group="competitive-ratio")
@pytest.mark.parametrize("scenario", REGISTRY.names(GRAPH))
def test_competitive_ratio_over_time(benchmark, record_table, scenario):
    # Registry-driven: a newly registered graph family automatically gets
    # its ratio-over-time table, with no benchmark edit.
    graph = REGISTRY.get(scenario, kind=GRAPH).build(
        FIG4_NODES, FIG4_NODES, FIG5_DENSITY, seed=8_000
    )

    def run():
        return competitive_ratio_over_time(graph, seed=8_001)

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = []
    for label, series in sorted(ratios.items()):
        # Every mechanism is at least as large as the optimum at every
        # event, so the ratio trajectory never dips below 1.
        assert all(value >= 1.0 - 1e-9 for value in series)
        assert len(series) == graph.num_edges
        step = max(1, len(series) // 16)
        events = list(range(1, len(series) + 1))[::step]
        lines.append(format_series(label, events, series[::step]))
        lines.append(f"{'':12s} final ratio: {series[-1]:.3f}")
    record_table(f"competitive_ratio_over_time_{scenario}", "\n".join(lines))
