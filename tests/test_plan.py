"""Differential tests of the partition plan and the overlap-walk distance.

The oracles below are the earlier kernels: the subset walk that evaluates
mu([p-r, p+r] & a) by scanning every interval at every candidate radius,
and the distance and containment tests built on `difference`.  They share
no code with `PartitionPlan` or the overlap walk, so they stay an
independent reference.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from setavg import catalog
from setavg.intervals import (
    EMPTY,
    canonicalize,
    centroid,
    contains_ae,
    difference,
    intersect,
    measure,
    sym_diff_distance,
)
from setavg.operators import SampledSVF, bernstein_svf, uniform_nodes
from setavg.partition import (
    CENTROID_OF_UNION,
    PER_ELEMENT_CENTROID,
    PartitionPlan,
    coverage_values,
    fixed_point,
    partition_average,
    partition_of_union,
    subset_generate,
)

from conftest import random_interval_set, random_weights

ALL_CFGS = [CENTROID_OF_UNION, fixed_point(F(7, 3)), PER_ELEMENT_CENTROID]


def scan_subset(a, t, p):
    """Ball subset of measure t*mu(a) around p, found by evaluating the
    covered measure at every breakpoint radius."""
    if a.is_empty or t == 0:
        return EMPTY
    target = t * measure(a)

    def covered(r):
        lo, hi = p - r, p + r
        return sum((max(F(0), min(x1, hi) - max(x0, lo)) for x0, x1 in a.intervals), F(0))

    radii = sorted({abs(e - p) for x0, x1 in a.intervals for e in (x0, x1)} | {F(0)})
    prev_r, prev_m = radii[0], covered(radii[0])
    r = None
    if prev_m >= target:
        r = prev_r
    else:
        for cand in radii[1:]:
            m = covered(cand)
            if m >= target:
                slope = (m - prev_m) / (cand - prev_r)
                r = prev_r + (target - prev_m) / slope
                break
            prev_r, prev_m = cand, m
    clipped = [
        (max(x0, p - r), min(x1, p + r))
        for x0, x1 in a.intervals
        if min(x1, p + r) > max(x0, p - r)
    ]
    return canonicalize(clipped)


def scan_average(sets, weights, cfg):
    """Partition average with per-element coverage summed directly and the
    scanning subset walk."""
    part = partition_of_union(sets)
    shared_p = None
    if cfg.kind != "per-element" and part.elements:
        union = canonicalize([iv for s in sets for iv in s.intervals])
        shared_p = cfg.point if cfg.kind == "fixed" else centroid(union)
    pieces = []
    for el in part.elements:
        t = sum((weights[i] for i in el.signature), F(0))
        p = centroid(el.region) if shared_p is None else shared_p
        pieces.extend(scan_subset(el.region, t, p).intervals)
    return canonicalize(pieces)


def difference_distance(a, b):
    return measure(difference(a, b)) + measure(difference(b, a))


def difference_contains(a, b):
    return measure(difference(b, a)) == 0


def pairwise_intersect(a, b):
    return canonicalize(
        (max(x0, y0), min(x1, y1))
        for x0, x1 in a.intervals
        for y0, y1 in b.intervals
        if max(x0, y0) < min(x1, y1)
    )


def sparse_weights(rng, n):
    """Random weights with some entries exactly zero (at least one not)."""
    keep = rng.sample(range(n), rng.randint(1, n))
    raw = random_weights(rng, len(keep))
    w = [F(0)] * n
    for i, x in zip(keep, raw):
        w[i] = x
    return w


def random_sets(rng):
    sets = [random_interval_set(rng, span=8) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        sets.append(rng.choice(sets))
    if rng.random() < 0.2:
        sets.append(EMPTY)
    return sets


def related_pair(rng):
    """Two sets that are equal, nested, touching, disjoint or unrelated."""
    a = random_interval_set(rng, span=8, max_intervals=4)
    kind = rng.choice(["equal", "subset", "touching", "empty", "random"])
    if kind == "equal":
        b = a
    elif kind == "subset":
        b = subset_generate(a, F(rng.randint(0, 8), 8), F(rng.randint(0, 32), 4))
    elif kind == "touching":
        x0, x1 = rng.choice(a.intervals)
        b = canonicalize([(x1, x1 + F(rng.randint(1, 8), 4)), (x0 - F(rng.randint(1, 8), 4), x0)])
    elif kind == "empty":
        b = EMPTY
    else:
        b = random_interval_set(rng, span=8, max_intervals=4)
    return (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize("seed", range(4))
def test_plan_average_matches_scan(seed):
    rng = random.Random(seed)
    for _ in range(40):
        sets = random_sets(rng)
        w = sparse_weights(rng, len(sets)) if rng.random() < 0.5 else random_weights(rng, len(sets))
        for cfg in ALL_CFGS:
            assert PartitionPlan(sets, cfg).average(w) == scan_average(sets, w, cfg)


@pytest.mark.parametrize("seed", range(4))
def test_reused_plan_matches_fresh_averages(seed):
    rng = random.Random(100 + seed)
    for _ in range(15):
        sets = random_sets(rng)
        vectors = [sparse_weights(rng, len(sets)) for _ in range(4)]
        vectors += [random_weights(rng, len(sets)), vectors[0]]
        for cfg in ALL_CFGS:
            plan = PartitionPlan(sets, cfg)
            for w in vectors:
                assert plan.average(w) == partition_average(sets, w, cfg)
                assert plan.average(w) == scan_average(sets, w, cfg)


def test_subset_generate_matches_scan(rng):
    for _ in range(200):
        a = random_interval_set(rng, span=8, max_intervals=4)
        t = F(rng.randint(0, 12), 12)
        p = F(rng.randint(-8, 40), 4)
        assert subset_generate(a, t, p) == scan_subset(a, t, p)


@pytest.mark.parametrize("seed", range(3))
def test_overlap_walk_matches_difference_oracles(seed):
    rng = random.Random(200 + seed)
    for _ in range(150):
        a, b = related_pair(rng)
        assert sym_diff_distance(a, b) == difference_distance(a, b)
        assert contains_ae(a, b) == difference_contains(a, b)
        assert contains_ae(b, a) == difference_contains(b, a)
        assert intersect(a, b) == pairwise_intersect(a, b)


def test_run_convergence_evaluates_each_node_once_per_degree(monkeypatch):
    calls = Counter()
    grow = catalog.BUILTIN_SVFS["grow"]

    def counted(x):
        calls[x] += 1
        return grow.evaluate(x)

    svf = SampledSVF(counted, grow.holder_constant, grow.holder_exponent, "counted")
    monkeypatch.setitem(catalog.BUILTIN_SVFS, "counted", svf)
    grid = [F(0), F(1, 3), F(1, 2), F(1)]
    ns = [2, 5]
    rows = catalog.run_convergence("counted", "bernstein", ns, grid)
    expected = Counter(grid)
    for n in ns:
        expected.update(uniform_nodes(n))
    assert calls == expected
    for row in rows:
        approx = bernstein_svf(grow, row.n, row.x)
        assert row.measure == measure(approx)
        assert row.error == sym_diff_distance(grow(row.x), approx)


def with_duplicates(rng):
    """Random sets in which some occur several times, in shuffled order."""
    base = [random_interval_set(rng, span=8) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        base.append(EMPTY)
    sets = base + [rng.choice(base) for _ in range(rng.randint(1, 5))]
    rng.shuffle(sets)
    return sets


def dedupe_and_fold(sets, weights):
    """The distinct sets in order of first occurrence, each with the summed
    weight of its copies."""
    folded = {}
    for s, w in zip(sets, weights):
        folded[s] = folded.get(s, F(0)) + w
    return list(folded), list(folded.values())


@pytest.mark.parametrize("seed", range(4))
def test_plan_over_duplicated_sets(seed):
    rng = random.Random(300 + seed)
    for _ in range(15):
        sets = with_duplicates(rng)
        vectors = [sparse_weights(rng, len(sets)) for _ in range(3)]
        vectors += [random_weights(rng, len(sets)), vectors[0]]
        for cfg in ALL_CFGS:
            plan = PartitionPlan(sets, cfg)
            assert plan.partition.sets == tuple(dict.fromkeys(sets))
            for w in vectors:
                distinct, folded = dedupe_and_fold(sets, w)
                got = plan.average(w)
                assert got == scan_average(sets, w, cfg)
                assert got == PartitionPlan(distinct, cfg).average(folded)


@pytest.mark.parametrize("seed", range(2))
def test_coverage_values_match_direct_sums(seed):
    # sparse vectors take the sum over the nonzero weights, dense ones the
    # sum over the signature
    rng = random.Random(400 + seed)
    for _ in range(30):
        sets = with_duplicates(rng)
        part = partition_of_union(sets)
        for w in (sparse_weights(rng, len(sets)), random_weights(rng, len(sets))):
            assert coverage_values(part, w) == [
                (el.signature, sum((w[i] for i in el.signature), F(0))) for el in part.elements
            ]
