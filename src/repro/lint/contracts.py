"""Contract-conformance rules (``C2xx``): this repo's protocols, enforced.

Where the ``D1xx`` family guards against generic Python nondeterminism,
these rules encode agreements specific to this codebase - each one the
static form of a contract that already has a dynamic enforcement story
(property tests, fingerprint checks) and a history of being easy to
violate silently:

* ``C201`` - an ``observe_batch`` override in a mechanism must keep a
  ``super()`` fallback guard, or subclass hook overrides are silently
  skipped in batched runs (bit-identity between pipelines breaks);
* ``C203`` - every ``EngineConfig`` field needs an explicit decision
  about run-signature membership (the ``timestamps``-in-signature class
  of bug from PR 5);
* ``C204`` - a scenario factory that accepts a seed must consume it, or
  two differently-seeded runs silently produce the same stream;
* ``C206`` - result-path modules may *write* telemetry (counters,
  spans) but never *read* it back: a branch on a metrics value makes
  results a function of timing, breaking fingerprint identity between
  telemetry-on and telemetry-off runs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import FileContext, Finding, Rule

def _finding(ctx: FileContext, node: ast.AST, rule: Rule, message: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule.id,
        message=message,
    )


def _base_names(classdef: ast.ClassDef, ctx: FileContext) -> List[str]:
    """Last dotted segment of each base (``repro.x.Foo`` -> ``Foo``)."""
    names = []
    for base in classdef.bases:
        dotted = ctx.dotted_name(base)
        if dotted is not None:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def _methods(classdef: ast.ClassDef) -> dict:
    return {
        node.name: node
        for node in classdef.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class MechanismBatchGuardRule(Rule):
    """An ``observe_batch`` override must keep a ``super()`` fallback guard.

    ``OnlineMechanism.observe_batch`` promises bit-identity with the
    per-event ``observe`` loop.  The base class keeps that promise for
    every mechanism with one loop that inlines ``observe`` and still
    calls the ``_on_observe`` / ``_choose`` hooks; no mechanism
    overrides it.  A future override that hoists its own loop for a
    fixed policy would skip a subclass's ``observe``, ``_choose`` or
    ``_on_observe`` override unless a runtime guard routes such
    subclasses back to ``super().observe_batch(pairs)`` (the faithful
    loop).  Dropping the guard is invisible in tests of the class itself
    and only breaks when someone later subclasses it - the worst kind of
    contract violation.

    The rule requires every ``observe_batch`` override in an
    ``*Mechanism`` subclass to call ``super().observe_batch(...)``
    somewhere in its body.  A batch implementation that is correct for
    every possible subclass can ``noqa`` with its reasoning.
    """

    id = "C201"
    name = "mechanism-batch-guard"
    summary = "observe_batch override lacks the super() fallback guard"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(name.endswith("Mechanism") for name in _base_names(node, ctx)):
                continue
            batch = _methods(node).get("observe_batch")
            if batch is None:
                continue
            if not self._calls_super_observe_batch(batch):
                yield _finding(
                    ctx,
                    batch,
                    self,
                    f"{node.name}.observe_batch hoists the event loop without "
                    "a super().observe_batch(...) fallback; subclass hook "
                    "overrides would be silently skipped in batched runs",
                )

    @staticmethod
    def _calls_super_observe_batch(method: ast.AST) -> bool:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "observe_batch"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"
            ):
                return True
        return False


class EngineConfigSignatureRule(Rule):
    """Every ``EngineConfig`` field needs a signature-membership decision.

    ``EngineConfig.signature()`` defines a run's identity: checkpoints
    resume only when signatures match, and the fingerprint is a pure
    function of it.  A new field silently changes that calculus in one
    of two wrong ways - included when it is an execution knob
    (``timestamps`` landing in the signature in PR 5 made identical runs
    look different), or omitted when it shapes results (two different
    runs would share checkpoints and corrupt resume).

    The rule forces the decision to be written down: each dataclass
    field's name must appear either as a string literal inside
    ``signature()`` (identity) or in the module's
    ``NON_SIGNATURE_FIELDS`` tuple (explicitly excluded, with the
    reasoning kept next to that tuple).  Fields that enter the signature
    under a derived key (``trajectory_stride`` -> ``"stride"``) are
    listed in ``NON_SIGNATURE_FIELDS`` with a comment saying so.
    """

    id = "C203"
    name = "engine-config-signature"
    summary = "EngineConfig field with no signature-membership decision"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name != "EngineConfig":
                continue
            fields = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.dump(stmt.annotation)
            ]
            decided: Set[str] = set()
            signature = _methods(node).get("signature")
            if signature is not None:
                decided.update(_string_constants(signature))
            decided.update(_declared_exclusions(ctx.tree, "NON_SIGNATURE_FIELDS"))
            for name in fields:
                if name not in decided:
                    yield _finding(
                        ctx,
                        node,
                        self,
                        f"EngineConfig field '{name}' is neither named in "
                        "signature() nor declared in NON_SIGNATURE_FIELDS; "
                        "decide whether it is part of the run's identity",
                    )


def _string_constants(node: ast.AST) -> Set[str]:
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _declared_exclusions(tree: ast.AST, constant: str) -> Set[str]:
    """String entries of a module-level ``CONSTANT = ("...", ...)`` tuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == constant
            for target in node.targets
        ):
            return _string_constants(node.value)
    return set()


class ScenarioSeedRule(Rule):
    """A ``@register_scenario`` factory must consume the seed it accepts.

    Scenario factories receive the run's root seed and are expected to
    thread it into :func:`repro.seeds.derive_seed` (or an explicit
    ``random.Random(seed)``).  A factory that accepts ``seed`` and never
    reads it produces the *same* stream for every seed - sweeps quietly
    average one sample, and "change the seed" stops being a valid
    reproducibility check.  This is statically detectable: the parameter
    name appears nowhere in the function body.

    A constant scenario (e.g. a fixed worked example from the paper)
    should drop the parameter or ``noqa`` with a note that constancy is
    the point.
    """

    id = "C204"
    name = "scenario-unused-seed"
    summary = "@register_scenario factory accepts a seed it never uses"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_scenario_factory(node, ctx):
                continue
            params = [arg.arg for arg in node.args.args + node.args.kwonlyargs]
            if "seed" not in params:
                continue
            used = any(
                isinstance(child, ast.Name)
                and child.id == "seed"
                and isinstance(child.ctx, ast.Load)
                for stmt in node.body
                for child in ast.walk(stmt)
            )
            if not used:
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"scenario factory '{node.name}' accepts 'seed' but never "
                    "uses it; thread it through repro.seeds.derive_seed or "
                    "drop the parameter",
                )

    @staticmethod
    def _is_scenario_factory(node: ast.AST, ctx: FileContext) -> bool:
        for decorator in node.decorator_list:  # type: ignore[attr-defined]
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = ctx.dotted_name(target)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "register_scenario":
                return True
        return False


#: Module path prefixes whose code feeds the fingerprint (directly or via
#: merged partials).  Telemetry in these modules is write-only: counters
#: and spans may be *recorded*, never read back into control flow.
RESULT_PATH_PREFIXES = (
    "src/repro/analysis/",
    "src/repro/baselines/",
    "src/repro/computation/",
    "src/repro/core/",
    "src/repro/engine/",
    "src/repro/graph/",
    "src/repro/offline/",
    "src/repro/online/",
    "src/repro/runtime/",
)

#: The sanctioned crossings: modules whose whole job is to carry metrics
#: *out* of result paths (worker-side snapshotting for the spawn pool).
#: Everything they read is merged after the partial results are final, so
#: the reads cannot feed back into them.
TELEMETRY_BRIDGE_MODULES = ("src/repro/engine/telemetry.py",)

#: ``MetricsRegistry``/``MetricsSnapshot`` methods that *read* telemetry
#: state.  Write-side methods (``add``, ``gauge``, ``observe``, ``span``,
#: ``record_span``) are deliberately absent - recording is the point.
_TELEMETRY_READ_METHODS = frozenset(
    {
        "counter_value",
        "counters",
        "gauge_value",
        "gauges",
        "histogram",
        "histograms",
        "merge_snapshot",
        "percentile",
        "snapshot",
        "span_records",
        "span_totals",
    }
)


class TelemetryReadRule(Rule):
    """Result-path modules must not read telemetry back.

    The observability contract is one-directional: hot paths *emit*
    counters, histograms and spans, and only the CLI/exporter layer (and
    the engine's snapshot bridge) ever looks at them.  The moment a
    result-path module branches on a metrics value - "skip the cache
    when the hit rate is low", "rechunk when p99 regresses" - results
    become a function of wall-clock timing, and the telemetry-on and
    telemetry-off fingerprints diverge.  That failure is dynamic-test
    resistant (it needs the adaptive branch to actually fire), so it is
    enforced statically instead.

    In modules under :data:`RESULT_PATH_PREFIXES` the rule flags:

    * any import of ``repro.obs.exporters`` (the read/format layer has
      no business inside a result path), and
    * calls to registry/snapshot *read* methods (``snapshot``,
      ``merge_snapshot``, ``counter_value``, ``percentile``, ...) in
      modules that import ``repro.obs`` - the import gate keeps the
      method-name match from firing on unrelated objects.

    Modules in :data:`TELEMETRY_BRIDGE_MODULES` are exempt: they exist
    to snapshot worker registries for the merge, and run strictly after
    the partial results they travel with are sealed.
    """

    id = "C206"
    name = "telemetry-read-in-result-path"
    summary = "result-path module reads telemetry state back"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(ctx.path.startswith(prefix) for prefix in RESULT_PATH_PREFIXES):
            return
        if ctx.path in TELEMETRY_BRIDGE_MODULES:
            return
        imports_obs = any(
            dotted == "repro.obs" or dotted.startswith("repro.obs.")
            for dotted in ctx.aliases.values()
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for dotted in self._imported_modules(node):
                    if dotted == "repro.obs.exporters" or dotted.startswith(
                        "repro.obs.exporters."
                    ):
                        yield _finding(
                            ctx,
                            node,
                            self,
                            "repro.obs.exporters imported in a result-path "
                            "module; exporting/reading telemetry belongs in "
                            "the CLI layer, not where results are computed",
                        )
            elif (
                imports_obs
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TELEMETRY_READ_METHODS
            ):
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"telemetry read '.{node.func.attr}(...)' in a "
                    "result-path module; hot paths may record metrics but "
                    "never read them back (results must not depend on "
                    "timing) - route reads through the CLI layer or a "
                    "TELEMETRY_BRIDGE_MODULES entry",
                )

    @staticmethod
    def _imported_modules(node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for item in node.names:
                yield item.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                yield node.module
                yield f"{node.module}.{item.name}"


CONTRACT_RULES = (
    MechanismBatchGuardRule,
    EngineConfigSignatureRule,
    ScenarioSeedRule,
    TelemetryReadRule,
)
