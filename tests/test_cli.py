"""Unit tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE, WORKLOADS, build_parser, main
from repro.computation.serialization import dump_computation, load_computation
from repro.computation.workloads import paper_example_trace


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_workloads_listed(self):
        assert "producer-consumer" in WORKLOADS
        assert "paper-example" in WORKLOADS

    def test_workloads_derived_from_registry(self):
        # The CLI no longer keeps its own workload table: choices, help
        # text and error messages all come from the scenario registry.
        from repro.computation import REGISTRY, TRACE

        assert tuple(sorted(WORKLOADS)) == REGISTRY.names(TRACE)
        for name in WORKLOADS:
            assert WORKLOADS[name] is REGISTRY.get(name, kind=TRACE).factory

    def test_generate_help_lists_registered_descriptions(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--help"])
        out = capsys.readouterr().out
        assert "producer-consumer:" in out  # description line from the registry


class TestDemo:
    def test_demo_prints_cover_and_timestamps(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "O2" in out and "O3" in out and "T2" in out
        assert "Clock size 3" in out
        assert "clock components" in out  # the timestamp table


class TestGenerateAndAnalyze:
    def test_generate_writes_loadable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["generate", "--workload", "work-stealing", "--seed", "3",
                     "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        trace = load_computation(out_path)
        assert trace.num_events > 0

    def test_analyze_reports_optimal_clock(self, tmp_path, capsys):
        path = tmp_path / "paper.json"
        dump_computation(paper_example_trace(), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "optimal clock:     3 components" in out
        assert "O2" in out and "O3" in out and "T2" in out

    def test_analyze_with_oracle_check(self, tmp_path, capsys):
        path = tmp_path / "paper.json"
        dump_computation(paper_example_trace(), path)
        assert main(["analyze", str(path), "--check"]) == 0
        assert "0 mismatching pairs" in capsys.readouterr().out

    def test_analyze_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_analyze_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_generates(self, workload, tmp_path):
        out_path = tmp_path / f"{workload}.json"
        assert main(["generate", "--workload", workload, "--out", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["format"] == "repro-trace"

    def test_closed_stdout_exits_quietly(self):
        # `generate --out /dev/stdout | head -c 10`, made deterministic:
        # the reader end is closed before the child writes a byte, so
        # every write hits a broken pipe.
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "generate", "--workload", "random",
             "--out", "/dev/stdout"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestSweep:
    def test_density_sweep_output(self, capsys):
        assert main(["sweep", "density", "--nodes", "12", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "density-sweep-uniform" in out
        assert "popularity" in out
        assert "crossover" in out

    def test_node_sweep_with_offline(self, capsys):
        assert main(["sweep", "nodes", "--density", "0.1", "--trials", "1",
                     "--scenario", "nonuniform", "--offline"]) == 0
        out = capsys.readouterr().out
        assert "node-sweep-nonuniform" in out
        assert "offline" in out

    def test_ratio_sweep_scopes_to_one_scenario_and_cell(self, capsys):
        assert main(["sweep", "ratio", "--scenario", "phase-change",
                     "--nodes", "10", "--density", "0.1", "--trials", "1",
                     "--window", "20", "--burn-in", "5", "--tail", "5",
                     "--events", "60"]) == 0
        out = capsys.readouterr().out
        assert "ratio-sweep-phase-change" in out
        assert "thread-churn" not in out
        assert "0.10" in out and "10" in out  # the requested grid cell

    def test_stream_scenario_on_graph_axis_fails_cleanly(self, capsys):
        assert main(["sweep", "density", "--scenario", "thread-churn",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "graph scenario" in err

    def test_graph_scenario_on_ratio_axis_fails_cleanly(self, capsys):
        assert main(["sweep", "ratio", "--scenario", "uniform",
                     "--trials", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ratio_sweep_prints_burn_in_vs_steady_tables(self, capsys):
        assert main(["sweep", "ratio", "--trials", "1", "--window", "20",
                     "--burn-in", "5", "--tail", "5", "--events", "60"]) == 0
        out = capsys.readouterr().out
        # One burn-in/steady-state table per registered stream scenario.
        for scenario in ("hot-object-drift", "phase-change", "thread-churn"):
            assert f"ratio-sweep-{scenario}" in out
        assert ":burn" in out and ":steady" in out
        assert "burn-in first 5" in out and "steady last 5" in out
