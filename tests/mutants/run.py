"""Mutation check: every catalogued mutant must fail its selected tests.

Usage, from the repository root (stdlib only; the tests it runs need
the test dependencies)::

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py NAME ...   # the named ones
    python tests/mutants/run.py --list

For each mutant of :data:`catalog.MUTANTS` the harness copies ``src/``
and ``tests/`` into a temporary directory, replaces the mutant's
original text (which must occur exactly once), and runs pytest on its
selectors there, with the copy first on ``PYTHONPATH`` and the
``mutants`` hypothesis profile (``tests/conftest.py``: no shrinking, as
a failure need not be minimal).  The selected
tests are first run once on the unmodified copy and must pass, so a
mutant is only counted as killed by a test that tells it apart.  Exits
1 if a baseline test fails, an original text is not found exactly once,
or any mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import MUTANTS, Mutant  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)


def _pytest(workdir: Path, selectors) -> int:
    path = os.pathsep.join(filter(None, (str(workdir / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-profile=mutants", *selectors,
    ]
    return subprocess.run(
        command, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def _apply(workdir: Path, mutant: Mutant) -> None:
    target = workdir / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.original)
    if count != 1:
        raise SystemExit(
            f"{mutant.name}: original text occurs {count} times in {mutant.path}, expected 1"
        )
    target.write_text(text.replace(mutant.original, mutant.mutant), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path}")
        return 0
    known = {mutant.name for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    selectors = sorted({selector for mutant in chosen for selector in mutant.selectors})
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        start = time.perf_counter()
        if _pytest(baseline, selectors) != 0:
            print("baseline: the selected tests fail on the unmodified tree")
            return 1
        print(f"baseline: {len(selectors)} selectors pass ({time.perf_counter() - start:.1f} s)")
        survivors = []
        for mutant in chosen:
            workdir = Path(scratch) / mutant.name
            _copy_tree(workdir)
            _apply(workdir, mutant)
            start = time.perf_counter()
            killed = _pytest(workdir, mutant.selectors) != 0
            verdict = "killed" if killed else "SURVIVED"
            print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if not killed:
                survivors.append(mutant.name)
            shutil.rmtree(workdir)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
