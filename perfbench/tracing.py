"""Span tracing for the traced benchmark run, from outside the library.

`patched` rebinds each traced public function of setavg, in every setavg
module namespace and module-level dict that holds it, to a wrapper that
records one span per call: name, op id, parent span, start and end.  The
built-in sampled SVFs and `catalog.plane_svf` are wrapped as the
operators layer's sample evaluation.  A traced name that a later
refactor removed is listed in `Tracer.missing` instead of failing the run.
Spans stay in memory until the run ends.  The counts are folded in after
each op, outside its timing, and `layer_metrics` turns them into per-op
numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute) of every wrapped public function.
TRACED = (
    ("intervals.canonicalize", "setavg.intervals", "canonicalize"),
    ("intervals.centroid", "setavg.intervals", "centroid"),
    ("intervals.sym_diff_distance", "setavg.intervals", "sym_diff_distance"),
    ("partition.partition_average", "setavg.partition", "partition_average"),
    ("partition.partition_of_union", "setavg.partition", "partition_of_union"),
    ("partition.subset_generate", "setavg.partition", "subset_generate"),
    ("operators.bernstein_weights", "setavg.operators", "bernstein_weights"),
    ("operators.sample_eval", "setavg.catalog", "plane_svf"),
    ("catalog.run_convergence", "setavg.catalog", "run_convergence"),
    ("multivariate.triangulate", "setavg.multivariate", "triangulate"),
    ("multivariate.refine", "setavg.multivariate", "refine"),
    ("multivariate.barycentric_weights", "setavg.multivariate", "barycentric_weights"),
    ("raster.rasterize", "setavg.raster", "rasterize"),
    ("raster.raster_partition_average", "setavg.raster", "raster_partition_average"),
    ("raster.cell_signatures", "setavg.raster", "cell_signatures"),
    ("raster.write_pgm", "setavg.raster", "write_pgm"),
)

# Spans whose arguments and results feed a count; the others keep none.
COUNTED = {
    "partition.partition_average",
    "partition.partition_of_union",
    "operators.sample_eval",
    "multivariate.triangulate",
    "multivariate.refine",
    "raster.raster_partition_average",
    "raster.write_pgm",
}

CALL_COUNTS = (
    "intervals.canonicalize",
    "partition.partition_average",
    "partition.partition_of_union",
    "partition.subset_generate",
    "operators.sample_eval",
)


class Tracer:
    """Spans of one pass over the op deck, and the layer counts folded in
    after each op, outside the op's timing."""

    def __init__(self):
        self.spans = []  # (span id, name, op id, parent span id, start, end, self seconds)
        self.missing = []
        self.op_id = None
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.totals = defaultdict(int)  # count sums over the pass
        self.max_bits = defaultdict(int)
        self._kept = defaultdict(list)  # name -> (args, kwargs, result) of this op's COUNTED spans
        self._stack = []  # [span id, seconds covered by child spans]

    def _record(self, name, fn, args, kwargs):
        if self.op_id is None:  # a call from the benchmark's own checks
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self_s = end - start - frame[1]
            self.spans[span_id] = (
                span_id, name, self.op_id, parent and parent[0], start, end, self_s
            )
            self.self_s[name] += self_s
            self.calls[name] += 1
        if name in COUNTED:
            self._kept[name].append((args, kwargs, result))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return wrapper

    def op(self, op_id, fn, *args):
        """Run one op under a root span named "op"."""
        self.op_id = op_id
        try:
            return self._record("op", fn, args, {})
        finally:
            self.op_id = None

    def end_op(self):
        """Fold the finished op's kept arguments and results into the
        counts and drop them, so the pass holds no op's data."""
        kept, self._kept = self._kept, defaultdict(list)
        add = self.totals
        union_sets = [tuple(_arg(a, k, 0, "sets")) for a, k, _ in kept["partition.partition_of_union"]]
        add["union.sets"] += sum(len(s) for s in union_sets)
        add["union.breakpoints"] += sum(
            len({e for s in sets for iv in s.intervals for e in iv}) for sets in union_sets
        )
        add["union.elements"] += sum(len(r.elements) for _, _, r in kept["partition.partition_of_union"])
        add["union.distinct"] += len(set(union_sets))
        for a, k, r in kept["partition.partition_average"]:
            weights = tuple(_arg(a, k, 1, "weights"))
            add["average.out_intervals"] += len(r.intervals)
            add["average.weights"] += len(weights)
            add["average.zero_weights"] += sum(1 for w in weights if w == 0)
            bits = max((_bits(w) for w in weights), default=0)
            self.max_bits["weights"] = max(self.max_bits["weights"], bits)
            self.max_bits["partition"] = max(self.max_bits["partition"], bits, _set_bits(r))
        add["sample.distinct"] += len({a for a, _, _ in kept["operators.sample_eval"]})
        meshes = kept["multivariate.triangulate"] + kept["multivariate.refine"]
        add["mesh.points"] += max((len(r.points) for _, _, r in meshes), default=0)
        add["mesh.triangles"] += max((len(r.triangles) for _, _, r in meshes), default=0)
        for a, k, _ in kept["raster.raster_partition_average"]:
            add["raster.cells"] += len(frozenset().union(*(r.cells for r in _arg(a, k, 0, "sets"))))
        for a, k, _ in kept["raster.write_pgm"]:
            add["raster.pgm_bytes"] += os.path.getsize(_arg(a, k, 1, "path"))

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,op,parent,start_s,end_s,self_s\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")


def _bindings(original):
    """Every (namespace dict, key) in the loaded setavg modules that refers
    to `original`, including values of module-level dicts."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "setavg" or modname.startswith("setavg.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                found.append((namespace, key))
            elif type(value) is dict:
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


@contextlib.contextmanager
def patched(tracer: Tracer):
    undo = []
    tracer.missing = []

    def rebind(namespace, key, value):
        undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    for name, modname, attr in TRACED:
        original = getattr(importlib.import_module(modname), attr, None)
        if original is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        wrapper = tracer.wrap(name, original)
        for namespace, key in _bindings(original):
            rebind(namespace, key, wrapper)
    svfs = getattr(importlib.import_module("setavg.catalog"), "BUILTIN_SVFS", {})
    for key, svf in list(svfs.items()):
        try:
            traced = dataclasses.replace(
                svf, evaluate=tracer.wrap("operators.sample_eval", svf.evaluate)
            )
        except (TypeError, AttributeError):
            tracer.missing.append(f"setavg.catalog.BUILTIN_SVFS[{key!r}].evaluate")
            continue
        rebind(svfs, key, traced)
    try:
        yield tracer
    finally:
        for namespace, key, value in reversed(undo):
            namespace[key] = value


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _set_bits(s) -> int:
    return max((_bits(e) for iv in s.intervals for e in iv), default=0)


def layer_metrics(tracers, ops: int) -> dict[str, float]:
    """Per-op layer metrics from traced passes over one fixed op deck.

    Self times are averaged over every pass; counts come from the first
    pass, and every pass runs the same ops, so they repeat exactly."""
    first = tracers[0]
    metrics = {
        f"{name}.self_ms": 1000 * sum(t.self_s[name] for t in tracers) / (ops * len(tracers))
        for name, _, _ in TRACED
    }
    metrics.update({f"{name}.calls": first.calls[name] / ops for name in CALL_COUNTS})
    total = first.totals

    def ratio(num, den):
        return num / den if den else 0

    unions = first.calls["partition.partition_of_union"]
    averages = first.calls["partition.partition_average"]
    metrics.update({
        "partition.sets": ratio(total["union.sets"], unions),
        "partition.breakpoints": ratio(total["union.breakpoints"], unions),
        "partition.elements": ratio(total["union.elements"], unions),
        "partition.distinct_inputs_ratio": ratio(total["union.distinct"], unions),
        "partition.out_intervals": ratio(total["average.out_intervals"], averages),
        "partition.zero_weight_share": ratio(total["average.zero_weights"], total["average.weights"]),
        "partition.max_bits": first.max_bits["partition"],
        "operators.weights.max_bits": first.max_bits["weights"],
        "operators.sample_eval.distinct_ratio": ratio(
            total["sample.distinct"], first.calls["operators.sample_eval"]
        ),
        "multivariate.points": total["mesh.points"] / ops,
        "multivariate.triangles": total["mesh.triangles"] / ops,
        "raster.cells": total["raster.cells"] / ops,
        "raster.pgm_bytes": total["raster.pgm_bytes"] / ops,
        "trace.missing_names": len(first.missing),
    })
    return metrics
