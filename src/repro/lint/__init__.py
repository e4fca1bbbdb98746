"""Static enforcement of the repo's determinism & protocol contracts.

``python -m repro lint`` runs an ``ast``-based pass over the tree with
three rule families: generic determinism rules (``D1xx`` - hash-order
iteration, builtin ``hash()``, global RNG state, wall-clock reads,
unsorted directory listings, completion-order result collection, set
element picks, sets rendered into text), repo-specific contract
rules (``C2xx`` - the ``observe_batch`` fallback guard, ``EngineConfig``
signature membership, scenario seed threading, no telemetry reads on
result paths) and hygiene rules (``H3xx`` - unused imports).

See :mod:`repro.lint.engine` for the machinery, :mod:`repro.lint.rules`
/ :mod:`repro.lint.contracts` / :mod:`repro.lint.hygiene` for the rules
themselves, and
:mod:`repro.lint.baseline` for the burn-down workflow.
"""

from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.lint.cli import ALL_RULES, DEFAULT_BASELINE, DEFAULT_PATHS, cmd_lint
from repro.lint.contracts import CONTRACT_RULES
from repro.lint.engine import FileContext, Finding, Rule, check_file, run_lint
from repro.lint.hygiene import HYGIENE_RULES
from repro.lint.rules import DETERMINISM_RULES

__all__ = [
    "ALL_RULES",
    "BaselineEntry",
    "CONTRACT_RULES",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "DETERMINISM_RULES",
    "FileContext",
    "Finding",
    "HYGIENE_RULES",
    "Rule",
    "apply_baseline",
    "check_file",
    "cmd_lint",
    "load_baseline",
    "render_baseline",
    "run_lint",
]
