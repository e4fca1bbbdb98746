"""Hygiene rules (``H3xx``): dead code the determinism rules do not see.

* ``H301`` - a name imported but never referenced.  Dead imports hide
  which modules a file really depends on, and they kept turning up in
  one-off scans; the rule makes the scan permanent.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.lint.engine import FileContext, Finding, Rule

#: flake8's marker for the same check (``# noqa: F401``), which H301
#: honours as well as its own ``# repro: noqa[H301]``.
_FLAKE8_UNUSED_IMPORT = re.compile(r"#\s*noqa:[^#]*\bF401\b", re.IGNORECASE)


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside an annotation's strings (``x: "Foo"``, ``List["Bar"]``)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _referenced_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads: plain names, string annotations, ``__all__``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
    return names


class UnusedImportRule(Rule):
    """A name imported but never referenced in the file.

    An import binds a name; if nothing in the module reads that name -
    no expression, no string annotation, no ``__all__`` entry - the
    import is dead weight that misstates the file's dependencies.
    ``__init__.py`` files are exempt (their imports are re-exports), as
    is ``from __future__ import ...``.

    Fix: delete the import.  An import kept for its side effect (a
    module that registers something when loaded) takes a ``# repro:
    noqa[H301]`` with the reason; flake8's ``# noqa: F401`` marks it
    just as well.
    """

    id = "H301"
    name = "unused-import"
    summary = "name imported but never referenced"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.rsplit("/", 1)[-1] == "__init__.py":
            return
        used = _referenced_names(ctx.tree)
        lines = ctx.source.splitlines()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                bound = [
                    (alias, alias.asname or alias.name.split(".")[0])
                    for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [
                    (alias, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                ]
            else:
                continue
            for alias, name in bound:
                line = getattr(alias, "lineno", node.lineno)
                if name not in used and not _FLAKE8_UNUSED_IMPORT.search(lines[line - 1]):
                    yield Finding(
                        path=ctx.path,
                        line=line,
                        col=getattr(alias, "col_offset", node.col_offset),
                        rule=self.id,
                        message=f"'{name}' is imported but never referenced; "
                        "remove the import",
                    )


HYGIENE_RULES = (UnusedImportRule,)
