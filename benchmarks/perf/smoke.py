"""Harness check of the perf benchmark: every workload at 1% scale.

Usage, from the repository root::

    python3 benchmarks/perf/smoke.py

Runs each workload once plain and once traced (``--scale 0.01``, one
second each) and asserts that:

* every ``BENCHMARK.json`` metric is printed with its unit, and every
  run passes its checks;
* the traced run's output record (fingerprint or digests) equals the
  plain run's - the wrappers change no result;
* in the traced run the layers' self times plus the unattributed root
  time add up to the traced wall time within 1%;
* ``sharded-resume`` reports layer rows from its pool workers.

Timings at this scale mean nothing; this only catches harness breakage.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run(workload: str, trace: int, out_dir: Path):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2019", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.01", "--out", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    printed = {
        tuple(line.split()[1::2])
        for line in lines[:-1]
        if line.startswith(workload + " ")
    }
    (path,) = sorted(out_dir.glob(f"{workload}.*.{'trace' if trace else 'plain'}.*[0-9].json"))
    return json.loads(lines[-1]), printed, json.loads(path.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".perf-work"
    work_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="smoke-", dir=work_root))
    try:
        for entry in spec["workloads"]:
            workload = entry["name"]
            plain_line, plain_printed, plain = run(workload, 0, out_dir)
            traced_line, traced_printed, traced = run(workload, 1, out_dir)
            for kind, line, printed in (("end_to_end", plain_line, plain_printed),
                                        ("per_layer", traced_line, traced_printed)):
                expected = {(metric["name"], metric["unit"]) for metric in spec[kind]}
                assert printed == expected, (
                    f"{workload}: {kind} lines differ: {sorted(printed ^ expected)}"
                )
                assert line["correct"] and line["failed"] == 0, f"{workload}: failed checks"
            assert traced["record"] == plain["record"], f"{workload}: traced output differs"
            attribution = traced["attribution"]
            total = attribution["parent_self_s"] + attribution["unattributed_s"]
            assert abs(total - attribution["wall_s"]) <= 0.01 * attribution["wall_s"], (
                f"{workload}: self times sum to {total}, traced wall {attribution['wall_s']}"
            )
            if workload == "sharded-resume":
                assert attribution["worker_records"] > 0 and attribution["worker_self_s"] > 0, (
                    "sharded-resume: no worker-side layer rows"
                )
            print(f"ok {workload}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
