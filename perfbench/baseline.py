"""Run every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload, runs the untraced benchmark once per seed and reports,
per end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median); then one traced
run on the first seed gives the per-layer metrics and the tracing
overhead.  The output also records the machine: nproc, CPU model, Python
and click versions.  Run it on the parent and on the change, with the same
seeds and --seconds, to compare two commits.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: benchmark failed\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct\n{out.stdout}")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "click": importlib.metadata.version("click"),
        },
        "seeds": args.seeds,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            result = bench(workload, seed, args.seconds, 0)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            end_to_end[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }
            print(f"  {name:14s} median {median:.5g} spread {(q3 - q1) / median:.4f}", flush=True)
        traced = bench(workload, args.seeds[0], args.seconds, 1)["metrics"]
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
