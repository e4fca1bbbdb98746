"""The ``python -m repro lint`` command.

Thin argparse glue over :mod:`repro.lint.engine`: resolves rule
selections, runs the pass, applies the baseline, and renders text or
JSON.  Exit codes follow the usual linter convention:

* ``0`` - no active findings (clean, or everything baselined),
* ``1`` - at least one active finding,
* ``2`` - usage error (unknown rule, unreadable baseline, bad path),
  raised as :class:`~repro.exceptions.LintError` and mapped by the
  top-level CLI.

``--changed`` scopes the run to files git reports as modified/untracked
relative to ``HEAD`` - the fast pre-commit loop; CI runs the full tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Type

from repro.exceptions import LintError
from repro.lint.baseline import apply_baseline, load_baseline, render_baseline
from repro.lint.contracts import CONTRACT_RULES
from repro.lint.engine import Rule, run_lint
from repro.lint.hygiene import HYGIENE_RULES
from repro.lint.rules import DETERMINISM_RULES

#: Every registered rule class, in rule-id order.
ALL_RULES: Sequence[Type[Rule]] = tuple(
    sorted(
        DETERMINISM_RULES + CONTRACT_RULES + HYGIENE_RULES,
        key=lambda rule: rule.id,
    )
)

#: Paths linted when none are given: the whole enforced surface.
DEFAULT_PATHS = ("src", "benchmarks", "tests")

#: The committed burn-down file, used when present and no --baseline given.
DEFAULT_BASELINE = "lint-baseline.json"


def rules_by_selector() -> Dict[str, Type[Rule]]:
    """Rules keyed by both id (``D101``) and slug (``unsorted-set-iteration``)."""
    table: Dict[str, Type[Rule]] = {}
    for rule in ALL_RULES:
        table[rule.id.upper()] = rule
        table[rule.name.lower()] = rule
    return table


def _resolve_rules(
    select: Optional[str], ignore: Optional[str]
) -> List[Rule]:
    table = rules_by_selector()

    def lookup(raw: str) -> Type[Rule]:
        rule = table.get(raw.upper()) or table.get(raw.lower())
        if rule is None:
            known = ", ".join(r.id for r in ALL_RULES)
            raise LintError(f"unknown rule {raw!r} (known rules: {known})")
        return rule

    chosen: List[Type[Rule]] = list(ALL_RULES)
    if select:
        chosen = [lookup(part.strip()) for part in select.split(",") if part.strip()]
    if ignore:
        dropped = {lookup(part.strip()) for part in ignore.split(",") if part.strip()}
        chosen = [rule for rule in chosen if rule not in dropped]
    return [rule() for rule in chosen]


def _changed_python_files() -> List[str]:
    """Python files git sees as modified or untracked relative to HEAD."""
    try:
        tracked = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError) as error:
        raise LintError(f"--changed requires a git checkout: {error}")
    files = sorted(
        {line.strip() for line in tracked + untracked if line.strip().endswith(".py")}
    )
    return [path for path in files if Path(path).is_file()]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_",
        help="output format (json includes baselined findings, marked)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE} "
        "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding as active",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0 "
        "(justifications start as TODO and are meant to be edited)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only python files git reports changed vs HEAD "
        "(fast pre-commit loop); positional paths are ignored",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print a rule's full documentation and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule ids, names and summaries and exit",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name:28s} {rule.summary}")
        return 0
    if args.explain:
        table = rules_by_selector()
        rule = table.get(args.explain.upper()) or table.get(args.explain.lower())
        if rule is None:
            known = ", ".join(r.id for r in ALL_RULES)
            raise LintError(f"unknown rule {args.explain!r} (known rules: {known})")
        print(rule.explain())
        return 0

    rules = _resolve_rules(args.select, args.ignore)
    if args.changed:
        paths = _changed_python_files()
        if not paths:
            print("no changed python files")
            return 0
    else:
        paths = list(args.paths) if args.paths else list(DEFAULT_PATHS)
    findings = run_lint(paths, rules)

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    if args.write_baseline:
        baseline_path.write_text(render_baseline(findings), encoding="utf-8")
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    entries = []
    if not args.no_baseline and baseline_path.is_file():
        entries = load_baseline(baseline_path)
    # --changed lints a subset of the tree, so entries for unvisited files
    # are expected to go unmatched; suppress the stale warning there.
    active, suppressed, stale = apply_baseline(findings, entries)
    report_stale = stale if not args.changed else []

    if args.format_ == "json":
        document = {
            "version": 1,
            "findings": [
                dict(finding.to_json(), baselined=False) for finding in active
            ] + [
                dict(finding.to_json(), baselined=True) for finding in suppressed
            ],
            "stale_baseline_entries": [entry.to_json() for entry in report_stale],
            "counts": {
                "active": len(active),
                "baselined": len(suppressed),
                "stale": len(report_stale),
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for finding in active:
            print(finding.format())
        for entry in report_stale:
            print(
                f"warning: stale baseline entry {entry.rule} {entry.path} "
                f"({entry.message!r}) matches nothing; remove it",
                file=sys.stderr,
            )
        if active:
            noun = "finding" if len(active) == 1 else "findings"
            suffix = f" ({len(suppressed)} baselined)" if suppressed else ""
            print(f"{len(active)} {noun}{suffix}")
        elif suppressed:
            print(f"clean ({len(suppressed)} baselined)")
        else:
            print("clean")
    return 1 if active else 0
