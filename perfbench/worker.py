"""One benchmark process: set up one workload, print "ready", run it, and
print one JSON line with the results.  Started by run.py, which times the
start-up up to "ready" as the set-up time.

Untraced mode runs the seed's blocks as a closed loop with one caller
until the next block would take the ops past the given seconds, in whole
blocks and never fewer than the op deck (the first `prefix_blocks`
blocks).  Traced mode runs the op deck in passes, each op once untraced
and once traced; every pass holds the same ops, so its counts repeat
exactly.  Output checks and the digest run between ops, outside the
timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import setavg  # noqa: E402

from tracing import Tracer, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Outcome:
    """What the benchmark keeps of the ops it ran: each op's time, the
    failures, and the digest of the first `digest_ops` ops' exact outputs.
    An op's output is checked and hashed as soon as the op ends, outside
    its timing, and then dropped, so the heap does not grow with the run."""

    def __init__(self, workload, digest_ops):
        self.workload = workload
        self.digest_ops = digest_ops
        self.times = []
        self.failures = []
        self._hash = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def add(self, op, out, err, seconds):
        self.times.append(seconds)
        if err is None:
            try:
                if not self.workload.check(op, out):
                    err = f"output check failed for {op!r}"
            except Exception:
                err = traceback.format_exc(limit=3)
        if err is not None:
            self.failures.append(err)
        if len(self.times) <= self.digest_ops:
            text = "error" if err else self.workload.digest_text(op, out)
            self._hash.update(text.encode() + b"\n")


def run_pass(workload, deck, outcome, tracer=None) -> float:
    """Run every op of `deck` once; return the seconds spent in the ops."""
    busy = 0.0
    for op in deck:
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.run(op)
            else:
                out = tracer.op(len(outcome.times), workload.run, op)
            err = None
        except Exception:
            out, err = None, traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        busy += seconds
        if tracer is not None:
            tracer.end_op()
        outcome.add(op, out, err, seconds)
    return busy


def timed_phase(workload, deck, seconds):
    outcome = Outcome(workload, len(deck))
    busy, block = 0.0, 0
    # the op deck's blocks always run; after them, another block only if it
    # fits in the time left, so that a run never measures much more than
    # the given seconds
    while block < workload.prefix_blocks or busy + last <= seconds:
        ops = workload.block(block)
        last = run_pass(workload, ops, outcome)
        busy += last
        block += 1
    times = outcome.times
    return {
        "attempted": len(times),
        "failures": outcome.failures,
        "digest": outcome.digest,
        "metrics": {
            "ops_per_s": len(times) / busy,
            "op_p50_ms": 1000 * statistics.median(times),
            "op_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "seconds": busy,
    }


def traced_phase(workload, deck, seconds, spans_path):
    untraced, traced = Outcome(workload, len(deck)), Outcome(workload, 0)
    tracers, untraced_s, traced_s = [], 0.0, 0.0
    # another pass only if it fits in the time left
    while not tracers or (untraced_s + traced_s) * (1 + 1 / len(tracers)) <= seconds:
        tracer = Tracer()
        # each op runs untraced and then traced, so that drift in the
        # host's speed cancels out of the overhead
        for op in deck:
            untraced_s += run_pass(workload, [op], untraced)
            with patched(tracer):
                traced_s += run_pass(workload, [op], traced, tracer)
        tracers.append(tracer)
    metrics = layer_metrics(tracers, len(deck))
    metrics["trace.ops_per_s"] = len(traced.times) / traced_s
    metrics["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    tracers[0].write_spans(spans_path)
    return {
        "attempted": len(untraced.times) + len(traced.times),
        "failures": untraced.failures + traced.failures,
        "digest": untraced.digest,
        "metrics": metrics,
        "missing": tracers[0].missing,
        "seconds": untraced_s + traced_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(setavg.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"setavg imported from {setavg.__file__}, not from {ROOT / 'src'}")

    outdir = ROOT / ".perfbench-out"
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as scratch:
        workload = WORKLOADS[args.workload](args.seed, args.small, scratch)
        # warm-up: one op of the small size, so lazy imports and first-call
        # costs land in set-up, not in the first timed op
        warm = WORKLOADS[args.workload](args.seed, True, scratch)
        warm.run(warm.block(0)[0])
        # the op deck: the first blocks, which every run holds
        deck = [op for b in range(workload.prefix_blocks) for op in workload.block(b)]
        print("ready", flush=True)
        if args.setup_only:
            return
        if args.trace:
            spans = outdir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            result = traced_phase(workload, deck, args.seconds, spans)
        else:
            result = timed_phase(workload, deck, args.seconds)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
