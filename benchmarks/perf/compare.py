"""Compare two sets of perf runs against the bounds in ``BENCHMARK.json``.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced results documents that
``run.py --out DIR`` wrote, any number of runs per workload.  Runs pair
up in (seed, run index) order.  One row per (workload, metric) shows each
side's median and quartiles (``statistics.quantiles(values, n=4)``), the
change's gap to the parent as a share of the parent's median (positive
is better), and a verdict:

* ``worse`` - the change's median is worse by more than the bound;
* ``unresolved`` - the parent's quartile spread is wider than the bound,
  and not every change run beats every parent run;
* ``better`` - the claim rule holds: at least 10 pairs, the change wins
  at least 9 in 10 of them (ties count for neither), and the medians
  differ by more than the parent's quartile spread;
* ``same`` - none of the above.

Exits 1 when any row is ``worse`` or any run of the change failed a
check, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: The claim rule (see the module docstring).
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """Untraced results documents per workload, in (seed, index) order."""
    runs = {}
    for path in sorted(directory.glob("*.plain.*.json")):
        document = json.loads(path.read_text())
        index = int(path.name.split(".")[-2])
        runs.setdefault(document["workload"], []).append((document["seed"], index, document))
    return {
        workload: [document for _, _, document in sorted(entries, key=lambda e: e[:2])]
        for workload, entries in runs.items()
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better: str, bound: float):
    """``(verdict, gap)`` for one (workload, metric); see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gap = sign * (c_median - p_median) / p_median
    all_beat = all(sign * (c - p) > 0 for c in change for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (p_q3 - p_q1) / p_median > bound and not all_beat:
        return "unresolved", gap
    if gap < -bound:
        return "worse", gap
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= MIN_WIN_SHARE * len(pairs)
        and abs(c_median - p_median) > p_q3 - p_q1
        and gap > 0
    ):
        return "better", gap
    return "same", gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    status = 0
    header = (f"{'workload':<20} {'metric':<14} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'gap':>8}  verdict")
    print(header)
    for workload in (entry["name"] for entry in spec["workloads"]):
        parent_docs = parent_runs.get(workload, [])
        change_docs = change_runs.get(workload, [])
        if not parent_docs or not change_docs:
            print(f"{workload:<20} (missing runs: parent {len(parent_docs)}, "
                  f"change {len(change_docs)})")
            continue
        failed = sum(len(document["failures"]) for document in change_docs)
        if failed:
            print(f"{workload:<20} {failed} failed check(s) in the change's runs")
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [document["metrics"][name]["value"] for document in parent_docs]
            change = [document["metrics"][name]["value"] for document in change_docs]
            outcome, gap = verdict(parent, change, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            p_q1, p_median, p_q3 = quartiles(parent)
            c_q1, c_median, c_q3 = quartiles(change)
            print(
                f"{workload:<20} {name:<14} "
                f"{p_median:>12.5g} [{p_q1:>9.5g}, {p_q3:>9.5g}] "
                f"{c_median:>12.5g} [{c_q1:>9.5g}, {c_q3:>9.5g}] "
                f"{gap:>+8.1%}  {outcome} (bound {metric['bound']:.0%}, "
                f"n={len(parent)}/{len(change)})"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
