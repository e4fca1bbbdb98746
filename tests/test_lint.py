"""Tests for ``repro lint``: rules, suppression, baseline, CLI.

Each rule gets at least one positive fixture (a snippet that must be
flagged) and one negative fixture (the conforming shape that must not
be), plus shared tests for ``# repro: noqa[...]`` suppression and the
baseline workflow.  The final test is the self-application gate: the
repository's own ``src/``, ``benchmarks/`` and ``tests/`` must lint
clean against the committed baseline - the same invariant CI enforces.
"""

from __future__ import annotations

import json
import re
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import LintError
from repro.lint import (
    ALL_RULES,
    DEFAULT_BASELINE,
    Finding,
    apply_baseline,
    check_file,
    load_baseline,
    render_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, select=None):
    """Lint one dedented snippet; returns the list of findings."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [rule() for rule in ALL_RULES if select is None or rule.id in select]
    return check_file(path, rules)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# D101 - unsorted set iteration
# ---------------------------------------------------------------------------
class TestSetIteration:
    def test_for_over_set_literal_name_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            names = {"a", "b"}
            out = []
            for name in names:
                out.append(name)
            """,
        )
        assert rule_ids(findings) == ["D101"]

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def dedup(items):
                return [item for item in set(items)]
            """,
        )
        assert rule_ids(findings) == ["D101"]

    def test_set_operator_expression_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def shared(a):
                left = {"x"}
                for item in left & a:
                    print(item)
            """,
        )
        assert "D101" in rule_ids(findings)

    def test_list_materialisation_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            vertices = list({"a", "b"} | {"c"})
            """,
        )
        assert rule_ids(findings) == ["D101"]

    def test_sorted_iteration_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            names = {"a", "b"}
            for name in sorted(names):
                print(name)
            """,
        )
        assert findings == []

    def test_reassigned_to_sorted_not_flagged(self, tmp_path):
        # x = sorted(x) cleanses the name: every assignment must be set-shaped.
        findings = lint_source(
            tmp_path,
            """
            names = {"a", "b"}
            names = sorted(names)
            for name in names:
                print(name)
            """,
        )
        assert findings == []

    def test_membership_test_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            seen = set()
            def check(v):
                return v in seen
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D102 - builtin hash()
# ---------------------------------------------------------------------------
class TestBuiltinHash:
    def test_hash_call_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def route(key, shards):
                return hash(key) % shards
            """,
        )
        assert rule_ids(findings) == ["D102"]

    def test_hash_inside_dunder_hash_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Point:
                def __hash__(self):
                    return hash((self.x, self.y))
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D103 - process-global random state
# ---------------------------------------------------------------------------
class TestGlobalRandom:
    def test_module_level_random_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            value = random.random()
            random.shuffle([1, 2, 3])
            """,
        )
        assert rule_ids(findings) == ["D103", "D103"]

    def test_from_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from random import choice
            pick = choice([1, 2, 3])
            """,
        )
        assert rule_ids(findings) == ["D103"]

    def test_numpy_global_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            noise = np.random.rand(10)
            """,
        )
        assert rule_ids(findings) == ["D103"]

    def test_seeded_instance_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            from repro.seeds import derive_seed

            def build(seed):
                rng = random.Random(derive_seed(seed, "build"))
                return rng.random()
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D104 - wall-clock reads
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            stamp = time.time()
            """,
        )
        assert rule_ids(findings) == ["D104"]

    def test_datetime_now_flagged_through_from_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from datetime import datetime
            started = datetime.now()
            """,
        )
        assert rule_ids(findings) == ["D104"]

    def test_perf_counter_not_flagged(self, tmp_path):
        # Elapsed-time measurement is fine; only absolute wall time leaks.
        findings = lint_source(
            tmp_path,
            """
            import time
            t0 = time.perf_counter()
            elapsed = time.perf_counter() - t0
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D105 - unsorted directory listings
# ---------------------------------------------------------------------------
class TestUnsortedListing:
    def test_os_listdir_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os
            for name in os.listdir("."):
                print(name)
            """,
        )
        assert rule_ids(findings) == ["D105"]

    def test_path_glob_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def shard_files(directory):
                return [p for p in directory.glob("shard-*.pickle")]
            """,
        )
        assert rule_ids(findings) == ["D105"]

    def test_sorted_glob_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import glob
            paths = sorted(glob.glob("*.json"))

            def shard_files(directory):
                return sorted(directory.glob("shard-*.pickle"))
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D106 - completion-order multiprocessing collection
# ---------------------------------------------------------------------------
class TestUnorderedPool:
    def test_imap_unordered_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def run(pool, work):
                return [r for r in pool.imap_unordered(str, work)]
            """,
        )
        assert rule_ids(findings) == ["D106"]

    def test_as_completed_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import as_completed

            def collect(futures):
                return [f.result() for f in as_completed(futures)]
            """,
        )
        assert rule_ids(findings) == ["D106"]

    def test_submission_order_imap_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def run(pool, work):
                return list(pool.imap(str, work))
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D107 - arbitrary set element
# ---------------------------------------------------------------------------
class TestArbitrarySetElement:
    def test_next_iter_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            unknown = {"a", "b"}
            first = next(iter(unknown))
            """,
        )
        assert rule_ids(findings) == ["D107"]

    def test_set_pop_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            work = {"a", "b"}
            item = work.pop()
            """,
        )
        assert rule_ids(findings) == ["D107"]

    def test_min_with_key_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            unknown = {"a", "b"}
            first = min(unknown, key=lambda v: (type(v).__name__, repr(v)))
            """,
        )
        assert findings == []

    def test_next_iter_of_list_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            items = [1, 2, 3]
            first = next(iter(items))
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# D108 - set rendered into output
# ---------------------------------------------------------------------------
class TestSetInOutput:
    def test_fstring_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            missing = {"a", "b"}
            message = f"missing vertices: {missing!r}"
            """,
        )
        assert rule_ids(findings) == ["D108"]

    def test_join_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            labels = {"a", "b"}
            text = ", ".join(labels)
            """,
        )
        assert rule_ids(findings) == ["D108"]

    def test_sorted_render_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            missing = {"a", "b"}
            message = f"missing vertices: {sorted(missing)}"
            text = ", ".join(sorted(missing))
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# C201 - observe_batch fallback guard
# ---------------------------------------------------------------------------
class TestMechanismBatchGuard:
    def test_hoisted_batch_without_guard_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.online.base import OnlineMechanism

            class FastMechanism(OnlineMechanism):
                def observe_batch(self, pairs):
                    return [self._quick(t, o) for t, o in pairs]
            """,
        )
        assert rule_ids(findings) == ["C201"]

    def test_guarded_batch_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.online.base import OnlineMechanism

            class FastMechanism(OnlineMechanism):
                def observe_batch(self, pairs):
                    cls = type(self)
                    if cls._choose is not FastMechanism._choose:
                        return super().observe_batch(pairs)
                    return [self._quick(t, o) for t, o in pairs]
            """,
        )
        assert findings == []

    def test_non_mechanism_class_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Collector:
                def observe_batch(self, pairs):
                    return [len(pairs)]
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# C203 - EngineConfig signature membership
# ---------------------------------------------------------------------------
class TestEngineConfigSignature:
    def test_undecided_field_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class EngineConfig:
                scenario: str
                new_knob: int = 0

                def signature(self):
                    return {"scenario": self.scenario}
            """,
        )
        assert rule_ids(findings) == ["C203"]
        assert "new_knob" in findings[0].message

    def test_declared_exclusion_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            NON_SIGNATURE_FIELDS = ("new_knob",)

            @dataclass(frozen=True)
            class EngineConfig:
                scenario: str
                new_knob: int = 0

                def signature(self):
                    return {"scenario": self.scenario}
            """,
        )
        assert findings == []

    def test_repo_engine_config_is_fully_decided(self):
        # The real EngineConfig is the rule's reason to exist: every field
        # must have a recorded membership decision.
        rules = [rule() for rule in ALL_RULES if rule.id == "C203"]
        path = REPO_ROOT / "src" / "repro" / "engine" / "runner.py"
        assert check_file(path, rules) == []

    def test_workers_is_a_declared_non_signature_field(self):
        # The worker-pool size is physical scheduling, never identity:
        # checkpoints written at one --workers count must resume at any
        # other (and under the jobs mode).  Pinning the membership here
        # keeps a future signature() edit from silently invalidating
        # every existing checkpoint directory.
        from repro.engine.runner import NON_SIGNATURE_FIELDS, EngineConfig

        assert "workers" in NON_SIGNATURE_FIELDS
        assert "workers" not in EngineConfig(scenario="thread-churn").signature()


# ---------------------------------------------------------------------------
# C204 - scenario factories must consume their seed
# ---------------------------------------------------------------------------
class TestScenarioSeed:
    def test_unused_seed_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.computation.registry import register_scenario

            @register_scenario("fixed", kind="trace")
            def fixed_scenario(seed=None):
                return build_constant_trace()
            """,
        )
        assert rule_ids(findings) == ["C204"]

    def test_threaded_seed_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.computation.registry import register_scenario
            from repro.seeds import derive_seed

            @register_scenario("seeded", kind="trace")
            def seeded_scenario(seed=None):
                return build_trace(derive_seed(seed or 0, "seeded"))
            """,
        )
        assert findings == []

    def test_undecorated_function_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def helper(seed=None):
                return 42
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# H301 - unused imports
# ---------------------------------------------------------------------------
class TestUnusedImport:
    def test_unused_names_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os.path
            import json as js
            from typing import Dict, List

            def load(text) -> List[str]:
                return text.split()
            """,
            select={"H301"},
        )
        assert rule_ids(findings) == ["H301"] * 3
        assert [finding.line for finding in findings] == [2, 3, 4]
        assert ["'os'", "'js'", "'Dict'"] == [
            finding.message.split()[0] for finding in findings
        ]

    def test_referenced_names_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from __future__ import annotations

            import os.path
            from collections import deque as queue
            from typing import TYPE_CHECKING, List, Optional
            from repro.graph import BipartiteGraph
            from repro.online import OnlineMechanism
            from repro.online.base import Decision
            from repro.seeds import stable_hash

            __all__ = ["stable_hash"]

            if TYPE_CHECKING:
                pass

            def build(name: "Optional[BipartiteGraph]") -> "OnlineMechanism":
                decisions: List["Decision"] = []
                return queue([os.path.join(name, "x")] + decisions)
            """,
            select={"H301"},
        )
        assert findings == []

    def test_function_level_imports_checked(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def probe():
                from repro.engine import run_engine
                from repro.seeds import derive_seed
                return derive_seed(1, "x")
            """,
            select={"H301"},
        )
        assert rule_ids(findings) == ["H301"]
        assert "'run_engine'" in findings[0].message

    def test_noqa_keeps_a_side_effect_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import repro.analysis.experiments  # repro: noqa[H301] registers mechanisms
            from repro.online import adaptive  # noqa: F401  (defines the classes)
            import json  # noqa: E501
            """,
            select={"H301"},
        )
        assert rule_ids(findings) == ["H301"]
        assert "'json'" in findings[0].message

    def test_init_modules_exempt(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/newpkg/__init__.py",
            """
            from repro.seeds import derive_seed, stable_hash
            """,
            select={"H301"},
        )
        assert findings == []


def lint_at(tmp_path, monkeypatch, relpath, source, select=None):
    """Lint one snippet *at a given repo-relative path* (for path-scoped
    rules: C206's result-path prefixes, the D104 obs carve-out)."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [rule() for rule in ALL_RULES if select is None or rule.id in select]
    return check_file(Path(relpath), rules)


# ---------------------------------------------------------------------------
# C206 - telemetry reads stay out of result paths
# ---------------------------------------------------------------------------
class TestTelemetryReadInResultPath:
    def test_exporter_import_in_result_path_flagged(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/core/fastpath.py",
            """
            from repro.obs import exporters

            def report(registry):
                return exporters.metrics_document(registry)
            """,
        )
        assert rule_ids(findings) == ["C206"]
        assert "exporters" in findings[0].message

    def test_registry_read_in_result_path_flagged(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/engine/scheduler.py",
            """
            from repro.obs.registry import active

            def should_rechunk():
                registry = active()
                return registry.counter_value("engine.chunks") > 100
            """,
        )
        assert rule_ids(findings) == ["C206"]
        assert "counter_value" in findings[0].message

    def test_telemetry_writes_in_result_path_allowed(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/engine/scheduler.py",
            """
            from repro.obs.registry import active

            def run_chunk(registry=None):
                registry = active()
                if registry is not None:
                    registry.add("engine.chunks")
                    registry.observe("engine.chunk_s", 0.5)
                    with registry.span("engine.chunk"):
                        pass
            """,
        )
        assert findings == []

    def test_read_method_names_without_obs_import_not_flagged(
        self, tmp_path, monkeypatch
    ):
        # .percentile() on a QuantileSketch (analysis/metrics.py shape):
        # the module never imports repro.obs, so the name match must not
        # fire on unrelated objects.
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/analysis/summaries.py",
            """
            def summarise(sketch):
                return sketch.percentile(50.0), sketch.snapshot()
            """,
        )
        assert findings == []

    def test_bridge_module_exempt(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/engine/telemetry.py",
            """
            from repro.obs.registry import MetricsRegistry

            def capture(registry):
                return registry.snapshot()

            def absorb(registry, snapshots):
                for snapshot in snapshots:
                    registry.merge_snapshot(snapshot)
            """,
            select={"C206"},
        )
        assert findings == []

    def test_cli_layer_reads_freely(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/cli.py",
            """
            from repro.obs import MetricsRegistry
            from repro.obs import exporters

            def show(registry):
                print(exporters.format_summary(registry))
                return registry.counter_value("engine.chunks")
            """,
            select={"C206"},
        )
        assert findings == []

    def test_repo_result_paths_are_write_only(self):
        rules = [rule() for rule in ALL_RULES if rule.id == "C206"]
        from repro.lint import run_lint as _run_lint
        import os

        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            findings = _run_lint(["src"], rules)
        finally:
            os.chdir(cwd)
        assert findings == []


# ---------------------------------------------------------------------------
# D104 path policy - the obs subtree owns its wall-clock anchor
# ---------------------------------------------------------------------------
class TestWallClockPathPolicy:
    def test_wall_clock_in_obs_subtree_exempt(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/obs/registry.py",
            """
            import time

            def anchor():
                return time.time()
            """,
            select={"D104"},
        )
        assert findings == []

    def test_wall_clock_elsewhere_still_flagged(self, tmp_path, monkeypatch):
        findings = lint_at(
            tmp_path,
            monkeypatch,
            "src/repro/engine/runner.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            select={"D104"},
        )
        assert rule_ids(findings) == ["D104"]


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------
class TestNoqa:
    def test_targeted_noqa_suppresses_named_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            stamp = time.time()  # repro: noqa[D104] wall time is the feature here
            """,
        )
        assert findings == []

    def test_targeted_noqa_leaves_other_rules_active(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            stamp = hash(time.time())  # repro: noqa[D104] wall time is fine
            """,
        )
        assert rule_ids(findings) == ["D102"]

    def test_blanket_noqa_suppresses_everything_on_the_line(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            stamp = hash(time.time())  # repro: noqa
            """,
        )
        assert findings == []

    def test_noqa_on_other_line_does_not_leak(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            ok = 1  # repro: noqa[D104]
            stamp = time.time()
            """,
        )
        assert rule_ids(findings) == ["D104"]


# ---------------------------------------------------------------------------
# Baseline machinery
# ---------------------------------------------------------------------------
class TestBaseline:
    def _finding(self, message="m", path="pkg/mod.py", rule="D101", line=3):
        return Finding(path=path, line=line, col=0, rule=rule, message=message)

    def test_round_trip_and_matching(self, tmp_path):
        findings = [self._finding(), self._finding(line=9)]
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(render_baseline(findings), encoding="utf-8")
        entries = load_baseline(baseline_path)
        assert len(entries) == 1 and entries[0].count == 2
        active, suppressed, stale = apply_baseline(findings, entries)
        assert active == [] and len(suppressed) == 2 and stale == []

    def test_line_shift_still_matches(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            render_baseline([self._finding(line=3)]), encoding="utf-8"
        )
        entries = load_baseline(baseline_path)
        active, suppressed, _ = apply_baseline([self._finding(line=77)], entries)
        assert active == [] and len(suppressed) == 1

    def test_extra_occurrence_beyond_count_is_active(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            render_baseline([self._finding()]), encoding="utf-8"
        )
        entries = load_baseline(baseline_path)
        active, suppressed, _ = apply_baseline(
            [self._finding(line=3), self._finding(line=9)], entries
        )
        assert len(active) == 1 and len(suppressed) == 1

    def test_stale_entry_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            render_baseline([self._finding(message="gone")]), encoding="utf-8"
        )
        entries = load_baseline(baseline_path)
        active, suppressed, stale = apply_baseline([], entries)
        assert active == [] and suppressed == [] and len(stale) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("[]", encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(baseline_path)


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------
class TestCli:
    def _write_dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import time\nstamp = time.time()\nkey = hash('x')\n",
            encoding="utf-8",
        )
        return path

    def test_exit_one_on_findings_and_zero_when_clean(self, tmp_path, capsys):
        dirty = self._write_dirty(tmp_path)
        assert main(["lint", "--no-baseline", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "D104" in out and "D102" in out
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "--no-baseline", str(clean)]) == 0

    def test_select_and_ignore(self, tmp_path, capsys):
        dirty = self._write_dirty(tmp_path)
        assert main(["lint", "--no-baseline", "--select", "D102", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "D102" in out and "D104" not in out
        assert (
            main(
                ["lint", "--no-baseline", "--ignore", "D102,wall-clock", str(dirty)]
            )
            == 0
        )

    def test_unknown_rule_is_usage_error(self, tmp_path):
        dirty = self._write_dirty(tmp_path)
        assert main(["lint", "--select", "D999", str(dirty)]) == 2

    def test_json_format(self, tmp_path, capsys):
        dirty = self._write_dirty(tmp_path)
        assert main(["lint", "--no-baseline", "--format", "json", str(dirty)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["active"] == 2
        rules = {finding["rule"] for finding in document["findings"]}
        assert rules == {"D102", "D104"}

    def test_explain_and_list_rules(self, capsys):
        assert main(["lint", "--explain", "D101"]) == 0
        assert "PYTHONHASHSEED" in capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._write_dirty(tmp_path)
        assert main(["lint", "--write-baseline", "dirty.py"]) == 0
        assert Path(DEFAULT_BASELINE).is_file()
        capsys.readouterr()
        # The default baseline is picked up automatically; run is clean.
        assert main(["lint", "dirty.py"]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_changed_scopes_to_git_diff(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
        subprocess.run(["git", "init", "-q"], check=True)
        committed = tmp_path / "committed.py"
        committed.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        subprocess.run(["git", "add", "committed.py"], check=True)
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t",
             "commit", "-q", "-m", "seed"],
            check=True, env={**__import__("os").environ, **env},
        )
        # Nothing changed: the dirty committed file is out of scope.
        assert main(["lint", "--changed", "--no-baseline"]) == 0
        assert "no changed python files" in capsys.readouterr().out
        untracked = tmp_path / "fresh.py"
        untracked.write_text("key = hash('x')\n", encoding="utf-8")
        assert main(["lint", "--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out and "committed.py" not in out

    def test_nonexistent_path_is_usage_error(self):
        assert main(["lint", "no/such/dir"]) == 2


# ---------------------------------------------------------------------------
# Self-application: the repository must satisfy its own contracts
# ---------------------------------------------------------------------------
class TestSelfApplication:
    def test_repo_lints_clean_against_committed_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "benchmarks", "tests"]) == 0

    def test_src_is_clean_without_any_baseline(self, monkeypatch):
        # The baseline only covers tests/: the library itself has zero
        # accepted findings, so src must pass with the baseline disabled.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--no-baseline", "src", "benchmarks"]) == 0

    def test_every_rule_has_docs(self):
        for rule in ALL_RULES:
            assert rule.id and rule.name and rule.summary
            explanation = rule.explain()
            assert len(explanation.splitlines()) > 2, rule.id

    def test_readme_rule_table_matches_registered_rules(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| ([CDH]\d{3}) \|", readme, re.MULTILINE))
        assert documented == {rule.id for rule in ALL_RULES}
