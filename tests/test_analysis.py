"""Unit tests for the statistics, sweep harness and report rendering."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    PAPER_MECHANISMS,
    crossover_point,
    density_sweep,
    format_comparison_table,
    format_series,
    format_sweep,
    format_table,
    node_sweep,
    relative_reduction,
    scenario_comparison,
    summarize,
    summarize_by_key,
    sweep_crossovers,
)
from repro.computation import lock_hierarchy_trace, producer_consumer_trace
from repro.exceptions import ExperimentError


class TestMetrics:
    def test_summarize_basic(self):
        stats = summarize([1, 2, 3, 4])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1 and stats.maximum == 4
        assert stats.std == pytest.approx(1.2909944, rel=1e-5)
        assert stats.stderr > 0
        assert stats.confidence_halfwidth() == pytest.approx(1.96 * stats.stderr)
        assert "±" in str(stats)

    def test_summarize_single_value(self):
        stats = summarize([7])
        assert stats.mean == 7
        assert stats.std == 0.0
        assert stats.stderr == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summarize_by_key(self):
        stats = summarize_by_key([{"a": 1, "b": 2}, {"a": 3}])
        assert stats["a"].mean == 2
        assert stats["b"].count == 1

    def test_relative_reduction(self):
        assert relative_reduction(50, 35) == pytest.approx(0.3)
        assert relative_reduction(0, 5) == 0.0

    def test_crossover_point(self):
        xs = [0.1, 0.2, 0.3]
        assert crossover_point(xs, [1, 5, 9], [4, 4, 4]) == 0.2
        assert crossover_point(xs, [1, 2, 3], [4, 4, 4]) == math.inf
        with pytest.raises(ValueError):
            crossover_point([1], [1, 2], [1, 2])


class TestSweeps:
    def test_density_sweep_structure(self):
        result = density_sweep([0.02, 0.1], num_threads=15, num_objects=15, trials=2,
                               include_offline=True)
        assert result.x_label == "density"
        assert result.xs == (0.02, 0.1)
        assert set(result.mechanisms) == {"naive", "random", "popularity", "thread_clock"}
        assert len(result.series("naive")) == 2
        assert len(result.series("offline")) == 2
        rows = result.as_rows()
        assert rows[0]["density"] == 0.02
        assert "offline" in rows[0]

    def test_offline_is_never_above_any_mechanism(self):
        result = density_sweep([0.05, 0.2], num_threads=12, num_objects=12, trials=2,
                               include_offline=True)
        for point in result.points:
            for mechanism in ("naive", "random", "popularity"):
                assert point.offline.mean <= point.sizes[mechanism].mean + 1e-9

    def test_thread_clock_series_is_constant_n(self):
        result = density_sweep([0.05, 0.3], num_threads=13, num_objects=13, trials=2)
        assert result.series("thread_clock") == (13.0, 13.0)

    def test_node_sweep_structure(self):
        result = node_sweep([10, 20], density=0.1, trials=2, include_offline=True)
        assert result.x_label == "nodes_per_side"
        assert result.series("thread_clock") == (10.0, 20.0)

    def test_nonuniform_scenario_supported(self):
        result = density_sweep([0.05], scenario="nonuniform", num_threads=15,
                               num_objects=15, trials=2)
        assert result.points[0].sizes["popularity"].mean > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            density_sweep([0.05], scenario="bimodal", trials=1)

    def test_invalid_parameters(self):
        with pytest.raises(ExperimentError):
            density_sweep([0.1], trials=0)
        with pytest.raises(ExperimentError):
            density_sweep([], trials=1)

    def test_sweeps_are_deterministic(self):
        a = density_sweep([0.05], num_threads=10, num_objects=10, trials=2, base_seed=77)
        b = density_sweep([0.05], num_threads=10, num_objects=10, trials=2, base_seed=77)
        assert a.as_rows() == b.as_rows()

    def test_requesting_offline_series_when_absent_raises(self):
        result = density_sweep([0.05], num_threads=10, num_objects=10, trials=1)
        with pytest.raises(ExperimentError):
            result.series("offline")


class TestScenarioComparison:
    def test_structured_workload_table(self):
        table = scenario_comparison(
            {
                "producer-consumer": producer_consumer_trace(seed=1),
                "lock-hierarchy": lock_hierarchy_trace(seed=1),
            }
        )
        assert set(table) == {"producer-consumer", "lock-hierarchy"}
        for row in table.values():
            assert row["offline"] <= min(row["thread_clock"], row["object_clock"])
            for mechanism in PAPER_MECHANISMS:
                assert row[mechanism] >= row["offline"]


class TestReportRendering:
    def test_format_table_alignment_and_floats(self):
        text = format_table([{"x": 1.234, "label": "abc"}, {"x": 10.5, "label": "d"}])
        assert "1.23" in text and "10.50" in text
        assert "---" in text.splitlines()[1]

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_format_sweep_and_crossovers(self):
        result = density_sweep([0.02, 0.4], num_threads=12, num_objects=12, trials=2)
        text = format_sweep(result)
        assert "density-sweep-uniform" in text
        assert "popularity" in text
        crossings = sweep_crossovers(result, baseline="thread_clock")
        assert set(crossings) == {"naive", "random", "popularity"}

    def test_format_series(self):
        assert format_series("naive", [0.1, 0.2], [5, 6]) == "naive: (0.1, 5.0) (0.2, 6.0)"

    def test_format_comparison_table(self):
        text = format_comparison_table({"wl": {"offline": 3, "naive": 5}})
        assert "wl" in text and "offline" in text
