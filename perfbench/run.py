"""setavg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bernstein-sweep --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory.  With --trace 0 the last line of standard output is a
JSON object holding every end-to-end metric of BENCHMARK.json, and with
--trace 1 every per-layer metric.  The lines before it repeat the metrics
for people, with the op sample count, the fail ratio and the digest of
the exact outputs.  The exit code is nonzero, and no JSON is printed,
when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# set-up is timed this many times, each in a fresh process; the median counts
SETUP_SAMPLES = 7
TIMEOUT_S = 170


def start_worker(args, setup_only):
    """Start a worker process and wait for its "ready" line; return the
    process and the seconds from start to ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--small"] * args.small + ["--setup-only"] * setup_only
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        sys.exit(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("worker ran out of time")
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the self-test; no digest check")
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIMEOUT_S
    if not (ROOT / "src" / "setavg" / "__init__.py").is_file():
        sys.exit(f"no setavg sources under {ROOT / 'src'}; run from a checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(args, setup_only=True)
        finish(proc, deadline)
        setup.append(ready)
    proc, ready = start_worker(args, setup_only=False)
    setup.append(ready)
    result = json.loads(finish(proc, deadline).splitlines()[-1])

    measured = dict(result["metrics"], setup_s=statistics.median(setup))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit(f"benchmark does not measure {missing}")
    failed = len(result["failures"])
    for failure in result["failures"][:3]:
        print(failure.rstrip(), file=sys.stderr)
    expected = None
    if args.seed == DEFAULT_SEED and not args.small:
        expected = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    digest_ok = expected is None or expected == result["digest"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  measured {result['seconds']:.2f} s")
    for m in wanted:
        print(f"  {m['name']:40s} {measured[m['name']]:14.6g} {m['unit']}")
    if "op_p50_ms" in measured:
        # printed, not bounded: the median op flips between the host's two
        # speed modes from run to run (see README, Limits)
        print(f"  {'op_p50_ms (not bounded)':40s} {measured['op_p50_ms']:14.6g} ms")
    print(f"  {'fail_ratio':40s} {failed / result['attempted']:14.6g} ({failed}/{result['attempted']})")
    print(f"  digest {result['digest']} "
          + ("(no committed digest for this seed)" if expected is None
             else "matches the committed digest" if digest_ok else f"DIFFERS from committed {expected}"))
    for name in result.get("missing", []):
        print(f"  missing traced name: {name}")
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
