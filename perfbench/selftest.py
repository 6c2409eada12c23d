"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about half a minute:
  1. every workload's output check rejects a deliberately corrupted output;
  2. small-size runs of all three workloads complete with no failed op;
  3. two traced runs of one seed report identical counts and digests.
Exits nonzero on the first check that does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from setavg import intervals  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SHIFT = Fraction(1, 64)


def grown(s):
    """s with its last interval longer by 1/64."""
    a, b = s.intervals[-1]
    return intervals.canonicalize(list(s.intervals[:-1]) + [(a, b + SHIFT)])


def corrupt(name, out):
    """A wrong output of the kind each check must catch."""
    if name == "bernstein-sweep":
        last = out[-1]
        return out[:-1] + [dataclasses.replace(last, measure=last.measure + SHIFT)]
    if name == "multivar-table":
        tri, approx, error = out[-1]
        return out[:-1] + [(tri, grown(approx), error)]
    avg = out.average
    half = frozenset(sorted(avg.cells)[: len(avg.cells) // 2])
    return dataclasses.replace(out, average=dataclasses.replace(avg, cells=half))


def check_corruption(scratch):
    for name, cls in WORKLOADS.items():
        workload = cls(7, True, scratch)
        op = workload.block(0)[0]
        out = workload.run(op)
        if not workload.check(op, out):
            sys.exit(f"{name}: the check rejects a correct output")
        if workload.check(op, corrupt(name, out)):
            sys.exit(f"{name}: the check accepts a corrupted output")
        print(f"ok  {name}: corrupted output is counted as a failure")


def run(name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{name}: run failed\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{name}: {result['failed']} failed ops\n{out.stdout}\n{out.stderr}")
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest "))
    return result["metrics"], digest


def counts(metrics):
    return {
        k: v["value"] for k, v in metrics.items()
        if v["unit"] != "ms" and k not in ("trace.ops_per_s", "trace.overhead_pct")
    }


def main():
    outdir = ROOT / ".perfbench-out"
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as scratch:
        check_corruption(scratch)
    for name in WORKLOADS:
        _, digest = run(name, 0)
        first, first_digest = run(name, 1)
        second, second_digest = run(name, 1)
        if counts(first) != counts(second):
            diff = {k for k in counts(first) if counts(first)[k] != counts(second).get(k)}
            sys.exit(f"{name}: traced counts differ between runs: {sorted(diff)}")
        if not digest == first_digest == second_digest:
            sys.exit(f"{name}: digests differ between runs of one seed")
        print(f"ok  {name}: small runs pass; traced counts and digest repeat exactly")


if __name__ == "__main__":
    main()
