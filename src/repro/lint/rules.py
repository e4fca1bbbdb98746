"""Determinism rules (``D1xx``): static guards for bit-identity.

Each rule encodes one way a Python program silently depends on
``PYTHONHASHSEED``, wall-clock time, process-global random state, or
filesystem/scheduler ordering - exactly the inputs the engine's SHA-256
fingerprint contract promises to be independent of.  The rules are the
static mirror of the dynamic guarantees:

* the fingerprint test proves ``--workers N`` equals ``--workers 1`` for runs
  that happened; these rules reject the *code shapes* that would break it;
* :func:`repro.seeds.stable_hash` exists because builtin ``hash()`` is
  randomised; ``D102`` points offenders at it;
* :func:`repro.seeds.derive_seed` exists because module-level ``random``
  calls share hidden global state; ``D103`` points offenders at it.

False-positive policy: rules only fire on shapes they can locally prove
suspicious (e.g. a name assigned from a set literal), never on guesses
(an attribute that merely *might* be a set).  The cost is missed
findings; the benefit is that a finding is always worth reading.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import FileContext, Finding, Rule

#: ``random`` module functions that read or write the hidden global PRNG.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
        "getrandbits",
        "seed",
    }
)

#: ``numpy.random`` module-level functions backed by the global RandomState.
_NUMPY_RANDOM_FUNCS = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "seed",
    }
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})

_UNORDERED_POOL_CALLS = frozenset(
    {"concurrent.futures.as_completed", "asyncio.as_completed"}
)


def _finding(ctx: FileContext, node: ast.AST, rule: "Rule", message: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule.id,
        message=message,
    )


def _describe_expr(expr: ast.AST) -> str:
    if isinstance(expr, ast.Name):
        return f"'{expr.id}'"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return f"'{expr.func.id}(...)'"
    return "a set expression"


class SetIterationRule(Rule):
    """Iterating a ``set``/``frozenset`` visits elements in hash order.

    For ``str`` elements, hash order changes with ``PYTHONHASHSEED`` -
    i.e. between *processes*, not just between runs.  Any set iteration
    whose per-element effects do not commute (appending to output,
    consuming RNG draws, inserting edges that an order-sensitive
    algorithm later reads, folding into a non-commutative digest) makes
    the result depend on the hash seed and breaks the engine's
    fingerprint contract.  This bit the repo for real: the uniform graph
    generator drew ``rng.random()`` once per (thread, object) pair while
    iterating two frozensets, so a fixed seed produced a different graph
    in every differently-seeded process.

    Fix: iterate a deterministically ordered sequence instead - wrap the
    set in ``sorted(...)`` (with a canonical key for mixed types), or
    iterate the ordered source collection the set was built from.  The
    rule fires on ``for``/comprehension iteration over, and
    ``list()``/``tuple()`` materialisation of, expressions it can locally
    prove set-typed; order-insensitive consumption (membership tests,
    ``len``, commutative folds like ``sum``) is out of scope and safe to
    ``noqa`` when flagged via materialisation.
    """

    id = "D101"
    name = "unsorted-set-iteration"
    summary = "iteration/materialisation of a set has hash-dependent order"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and not node.keywords
                and ctx.is_setish(node.args[0])
            ):
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"{node.func.id}() materialises {_describe_expr(node.args[0])} "
                    "in hash order; use sorted(...) with a canonical key",
                )
                continue
            for iter_expr in iters:
                if ctx.is_setish(iter_expr, at=node):
                    yield _finding(
                        ctx,
                        iter_expr,
                        self,
                        f"iteration over {_describe_expr(iter_expr)} has "
                        "PYTHONHASHSEED-dependent order; iterate sorted(...) "
                        "or an ordered source sequence",
                    )


class BuiltinHashRule(Rule):
    """Builtin ``hash()`` on ``str``/``bytes`` is randomised per process.

    Since Python 3.3, string hashing is salted with ``PYTHONHASHSEED``:
    the same value hashes differently in different processes.  Anything
    that must agree across workers or runs - shard routing, seed
    derivation, digests, stable sort keys - must not touch ``hash()``.
    Use :func:`repro.seeds.stable_hash` (pure FNV-1a over a typed repr)
    or ``hashlib`` instead.

    Defining ``__hash__`` for use in in-process dicts/sets is fine; the
    rule therefore skips calls inside ``__hash__`` method bodies, where
    delegating to ``hash()`` on members is the normal idiom.
    """

    id = "D102"
    name = "builtin-hash"
    summary = "builtin hash() is PYTHONHASHSEED-dependent"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                function = ctx.enclosing_function(node)
                if function is not None and function.name == "__hash__":
                    continue
                yield _finding(
                    ctx,
                    node,
                    self,
                    "builtin hash() is randomised per process "
                    "(PYTHONHASHSEED); use repro.seeds.stable_hash or hashlib",
                )


class UnseededRandomRule(Rule):
    """Module-level ``random``/``numpy.random`` calls share global state.

    ``random.random()``, ``random.shuffle()`` etc. read one hidden,
    process-global PRNG: results depend on every *other* consumer of that
    stream and on import/execution order, so two code paths that are
    individually deterministic interleave nondeterministically.
    ``random.seed()`` is flagged too - seeding the global stream papers
    over the sharing instead of removing it.

    Fix: construct an explicit ``random.Random(seed)`` (or numpy
    ``Generator``) whose seed comes from
    :func:`repro.seeds.derive_seed` keyed by *what* is being computed,
    and pass the instance down.  That is what makes the engine's serial
    and multiprocess runs agree bit-for-bit.
    """

    id = "D103"
    name = "global-random"
    summary = "module-level random/numpy.random call uses hidden global state"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted.startswith("random.") and dotted[7:] in _GLOBAL_RANDOM_FUNCS:
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"{dotted}() uses the process-global PRNG; use a "
                    "random.Random instance seeded via repro.seeds.derive_seed",
                )
            elif (
                dotted.startswith("numpy.random.")
                and dotted.rsplit(".", 1)[1] in _NUMPY_RANDOM_FUNCS
            ):
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"{dotted}() uses numpy's global RandomState; use an "
                    "explicit seeded Generator (numpy.random.default_rng)",
                )


class WallClockRule(Rule):
    """Wall-clock reads make results depend on *when* the code runs.

    ``time.time()``, ``datetime.now()`` and friends leak the execution
    moment into whatever consumes them; anything under the fingerprint
    (results, file contents, seeds, cache keys) must not read them.
    Elapsed-time measurement around the contract - ``time.perf_counter``
    spans reported to stderr - is fine and deliberately not flagged.

    When a wall-clock read is the *feature* (e.g. pruning checkpoints by
    age), suppress the finding at the call site with
    ``# repro: noqa[D104] <why>`` so the decision is recorded in code.
    """

    id = "D104"
    name = "wall-clock"
    summary = "wall-clock read (time.time/datetime.now) in a determinism path"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"{dotted}() reads the wall clock; results must not "
                    "depend on when they run (perf_counter spans to stderr "
                    "are fine; noqa with a reason if wall time is the feature)",
                )


class UnsortedListingRule(Rule):
    """Directory listings come back in filesystem order, not sorted.

    ``os.listdir``, ``glob.glob`` and ``Path.glob``/``iterdir`` return
    entries in whatever order the OS reports them - which differs across
    filesystems, platforms, and even repeated runs after file churn.  Any
    consumer whose behaviour depends on encounter order (first match
    wins, ordered processing, digesting) inherits that nondeterminism.

    Fix: wrap the call in ``sorted(...)`` at the call site.  The rule
    accepts exactly that shape; sorting later is invisible to a local
    analysis, so restructure or ``noqa`` with a reason if the order is
    provably irrelevant.
    """

    id = "D105"
    name = "unsorted-listing"
    summary = "os.listdir/glob/Path.glob without sorted(...)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            described: Optional[str] = None
            if dotted in _LISTING_CALLS:
                described = f"{dotted}()"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _LISTING_METHODS
            ):
                described = f".{node.func.attr}()"
            if described is None or ctx.is_sorted_arg(node):
                continue
            yield _finding(
                ctx,
                node,
                self,
                f"{described} yields entries in filesystem order; "
                "wrap the call in sorted(...)",
            )


class UnorderedPoolRule(Rule):
    """Completion-order result collection depends on the scheduler.

    ``Pool.imap_unordered`` and ``concurrent.futures.as_completed`` yield
    results in whatever order workers finish - a function of machine
    load, not of the computation.  Merging results in that order breaks
    the ``--workers N == --workers 1`` fingerprint contract.

    Fix: collect in submission order (``Pool.imap``, ``executor.map``,
    or index the futures and merge by index), the way
    :mod:`repro.engine` merges shard partials by shard id.
    """

    id = "D106"
    name = "unordered-pool"
    summary = "completion-order multiprocessing collection (imap_unordered/as_completed)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            flagged = dotted in _UNORDERED_POOL_CALLS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("imap_unordered", "as_completed")
            )
            if flagged:
                name = dotted or node.func.attr  # type: ignore[union-attr]
                yield _finding(
                    ctx,
                    node,
                    self,
                    f"{name} yields results in completion order (scheduler-"
                    "dependent); collect in submission order and merge by index",
                )


class ArbitrarySetElementRule(Rule):
    """``next(iter(s))`` / ``s.pop()`` picks a hash-order 'first' element.

    Which element a set yields first depends on ``PYTHONHASHSEED``, so
    the picked element - often fed into an error message, a tie-break,
    or a work-list - differs across processes.

    Fix: pick deterministically, e.g.
    ``min(s, key=lambda v: (type(v).__name__, repr(v)))`` (the
    canonical vertex key the simulator uses), or sort once and index.
    """

    id = "D107"
    name = "arbitrary-set-element"
    summary = "next(iter(set)) / set.pop() picks a hash-dependent element"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "iter"
                and len(node.args[0].args) == 1
                and ctx.is_setish(node.args[0].args[0])
            ):
                yield _finding(
                    ctx,
                    node,
                    self,
                    "next(iter(<set>)) picks a PYTHONHASHSEED-dependent "
                    "element; use min(...) with a canonical key",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args
                and not node.keywords
                and ctx.is_setish(node.func.value)
            ):
                yield _finding(
                    ctx,
                    node,
                    self,
                    "set.pop() removes a PYTHONHASHSEED-dependent element; "
                    "pick via min(...) with a canonical key and discard it",
                )


class SetInOutputRule(Rule):
    """Rendering a set into text bakes hash order into the output.

    ``f"{unknown!r}"``, ``str(some_set)`` and ``", ".join(some_set)``
    serialise elements in iteration (hash) order, so the same logical
    value prints differently across processes - poisoning error
    messages asserted by tests, logs that get diffed, and any persisted
    report.

    Fix: render ``sorted(...)`` (with a canonical key for mixed
    element types) instead of the set itself.
    """

    id = "D108"
    name = "set-in-output"
    summary = "set rendered into a string in hash order"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FormattedValue) and ctx.is_setish(node.value):
                yield _finding(
                    ctx,
                    node.value,
                    self,
                    "f-string renders a set in hash order; format "
                    "sorted(...) instead",
                )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("str", "repr", "format")
                    and len(node.args) >= 1
                    and ctx.is_setish(node.args[0])
                ):
                    yield _finding(
                        ctx,
                        node,
                        self,
                        f"{node.func.id}() renders a set in hash order; "
                        "render sorted(...) instead",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                    and ctx.is_setish(node.args[0])
                ):
                    yield _finding(
                        ctx,
                        node,
                        self,
                        "str.join over a set concatenates in hash order; "
                        "join sorted(...) instead",
                    )


DETERMINISM_RULES = (
    SetIterationRule,
    BuiltinHashRule,
    UnseededRandomRule,
    WallClockRule,
    UnsortedListingRule,
    UnorderedPoolRule,
    ArbitrarySetElementRule,
    SetInOutputRule,
)
