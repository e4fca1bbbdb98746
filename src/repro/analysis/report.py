"""Rendering sweep results as plain-text tables and series.

The paper presents its evaluation as line plots (Figs. 4-7).  Since the
benchmark harness runs in a terminal, each figure is regenerated as (a) a
table with one row per x value and one column per mechanism, and (b) an
ASCII sparkline-style series summary, both of which are what EXPERIMENTS.md
records.  Nothing here depends on plotting libraries.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.experiments import SweepResult
from repro.analysis.metrics import crossover_point


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of row dicts as an aligned plain-text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for index, cells in enumerate(rendered):
        line = "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
        lines.append(line)
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_sweep(result: SweepResult, include_offline: bool = True) -> str:
    """Render a :class:`SweepResult` the way EXPERIMENTS.md records figures."""
    columns = [result.x_label, *result.mechanisms]
    rows = result.as_rows()
    if include_offline and rows and "offline" in rows[0]:
        columns.append("offline")
    header = (
        f"{result.name}  (trials per point: {result.trials})"
    )
    return header + "\n" + format_table(rows, columns=columns)


def sweep_crossovers(result: SweepResult, baseline: str = "naive") -> Dict[str, float]:
    """Where each non-baseline mechanism stops beating the baseline.

    Mirrors the thresholds the paper reads off Figs. 4-5 ("when the density
    of graph exceeds a certain threshold, their performance becomes worse
    than Naive").
    """
    xs = result.xs
    baseline_series = result.series(baseline)
    crossovers: Dict[str, float] = {}
    for mechanism in result.mechanisms:
        if mechanism == baseline:
            continue
        crossovers[mechanism] = crossover_point(
            xs, result.series(mechanism), baseline_series
        )
    return crossovers


def format_series(label: str, xs: Sequence[float], ys: Sequence[float]) -> str:
    """One series as `label: (x, y) (x, y) ...`, used in benchmark output."""
    points = " ".join(f"({x:g}, {y:.1f})" for x, y in zip(xs, ys))
    return f"{label}: {points}"


def format_comparison_table(table: Mapping[str, Mapping[str, object]]) -> str:
    """Render the scenario-comparison mapping (workload -> mechanism -> size)."""
    rows = []
    for name, metrics in table.items():
        row = {"workload": name}
        row.update(metrics)
        rows.append(row)
    return format_table(rows)
