"""Partition of the union of interval sets and the partition average.

The partition of the union decomposes the union of sets A_0..A_n into
regions, each labelled by the subset of indices of the sets covering it.
The partition average takes, from each region, a subset whose measure is
the region measure scaled by the summed weights of the covering sets; the
subset is cut by a metric ball growing around a reference point, so the
whole construction stays exact over the rationals.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .intervals import (
    EMPTY,
    IntervalSet,
    as_rational,
    canonicalize,
    centroid,
    measure,
    sym_diff_distance,
)


@dataclass(frozen=True)
class PartitionElement:
    signature: frozenset[int]
    region: IntervalSet


@dataclass(frozen=True)
class Partition:
    sets: tuple[IntervalSet, ...]
    elements: tuple[PartitionElement, ...]


@dataclass(frozen=True)
class AverageConfig:
    """Reference-point policy for the ball-based subset generator.

    kind is one of "centroid" (centroid of the union of all averaged sets,
    shared by every partition element), "fixed" (a user-supplied point), or
    "per-element" (centroid of each region separately).
    """

    kind: str = "centroid"
    point: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("centroid", "fixed", "per-element"):
            raise ValueError(f"unknown reference-point kind: {self.kind!r}")
        if self.kind == "fixed" and self.point is None:
            raise ValueError("fixed reference point requires a value")
        if self.point is not None:
            object.__setattr__(self, "point", as_rational(self.point))


CENTROID_OF_UNION = AverageConfig("centroid")
PER_ELEMENT_CENTROID = AverageConfig("per-element")


def fixed_point(p) -> AverageConfig:
    return AverageConfig("fixed", p)


def check_weights(weights: Sequence[Fraction], count: int) -> tuple[Fraction, ...]:
    """The one weight check: exactly `count` exact rationals, each >= 0,
    summing to 1 exactly.  Floats raise TypeError."""
    w = tuple(as_rational(x) for x in weights)
    if len(w) != count:
        raise ValueError(f"need one weight per input: {len(w)} weights for {count} inputs")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if sum(w) != 1:
        raise ValueError(f"weights must sum to 1 exactly, got {sum(w)}")
    return w


def group_by_signature(covers: Iterable[Iterable[Hashable]]) -> dict[frozenset[int], list]:
    """Group atoms by their covering signature.  Input i lists the atoms it
    covers, each at most once; the result maps each nonempty set of covering
    indices to the atoms carrying exactly that signature."""
    owners: dict[Hashable, list[int]] = {}
    for i, atoms in enumerate(covers):
        for atom in atoms:
            owners.setdefault(atom, []).append(i)
    groups: dict[frozenset[int], list] = {}
    for atom, indices in owners.items():
        groups.setdefault(frozenset(indices), []).append(atom)
    return groups


def partition_of_union(sets: Sequence[IntervalSet]) -> Partition:
    """Sweep over sorted interval endpoints; each elementary segment gets
    the signature of the sets covering it.  Segments sharing a signature
    are grouped into one canonical region.  Empty signatures (the
    complement of the union) are never materialized."""
    sets = tuple(sets)
    if not sets:
        raise ValueError("partition of an empty collection of sets")
    breakpoints = sorted({e for s in sets for a, b in s.intervals for e in (a, b)})
    index = {e: k for k, e in enumerate(breakpoints)}
    # segment k is [breakpoints[k], breakpoints[k + 1]]
    groups = group_by_signature(
        [k for a, b in s.intervals for k in range(index[a], index[b])] for s in sets
    )
    elements = tuple(
        PartitionElement(sig, canonicalize((breakpoints[k], breakpoints[k + 1]) for k in segs))
        for sig, segs in sorted(groups.items(), key=lambda kv: sorted(kv[0]))
    )
    return Partition(sets, elements)


def _int_weights(w: Sequence[Fraction]) -> tuple[list[int], int]:
    """Checked weights as integer numerators over their least common
    denominator, so that coverage sums stay in int arithmetic."""
    denom = math.lcm(*(x.denominator for x in w))
    return [x.numerator * (denom // x.denominator) for x in w], denom


def _coverage_sums(signatures: Sequence[frozenset[int]], nums: Sequence[int]) -> list[int]:
    """Per signature, the sum of nums over its indices.  Each sum runs over
    the shorter of the signature and the list of nonzero entries: long
    signatures with sparse weights and dense weights with short signatures
    both stay cheap."""
    nonzero = [i for i, v in enumerate(nums) if v]
    return [
        sum(nums[i] for i in sig) if len(sig) <= len(nonzero)
        else sum(nums[i] for i in nonzero if i in sig)
        for sig in signatures
    ]


def coverage_values(
    partition: Partition, weights: Sequence[Fraction]
) -> list[tuple[frozenset[int], Fraction]]:
    """Per-element coverage: the summed weight of the covering sets."""
    nums, denom = _int_weights(check_weights(weights, len(partition.sets)))
    signatures = [el.signature for el in partition.elements]
    return [
        (sig, Fraction(total, denom))
        for sig, total in zip(signatures, _coverage_sums(signatures, nums))
    ]


class _RadiusTable:
    """The map r -> mu([p-r, p+r] & a), which is piecewise linear with
    breakpoints at the distances from p to the endpoints of a: the sorted
    breakpoints r_k, the measure m(r_k) at each, and the slope after each."""

    def __init__(self, a: IntervalSet, p: Fraction):
        self.a, self.p = a, p
        # each half of each interval, as seen from p, adds slope 1 between
        # the radii of its near and far ends
        steps: dict[Fraction, int] = {Fraction(0): 0}
        for x0, x1 in a.intervals:
            halves = []
            if x0 < p:
                halves.append((p - min(x1, p), p - x0))
            if x1 > p:
                halves.append((max(x0, p) - p, x1 - p))
            for near, far in halves:
                steps[near] = steps.get(near, 0) + 1
                steps[far] = steps.get(far, 0) - 1
        self.radii = sorted(steps)
        self.measures, self.slopes = [], []
        m, slope, prev = Fraction(0), 0, Fraction(0)
        for r in self.radii:
            m += slope * (r - prev)
            slope += steps[r]
            self.measures.append(m)
            self.slopes.append(slope)
            prev = r

    def ball_subset(self, t: Fraction) -> list[tuple[Fraction, Fraction]]:
        """The intervals of a & [p-r, p+r] for the smallest r giving measure
        t*mu(a), for 0 < t <= 1: find the first m(r_k) >= t*mu(a) and
        invert the linear piece before it (m(r_0) = 0, so k >= 1)."""
        target = t * self.measures[-1]
        k = bisect_left(self.measures, target)
        if k == len(self.measures):
            raise ValueError("target measure exceeds the measure of the set")
        r = self.radii[k - 1] + (target - self.measures[k - 1]) / self.slopes[k - 1]
        lo, hi = self.p - r, self.p + r
        return [
            (max(x0, lo), min(x1, hi))
            for x0, x1 in self.a.intervals
            if min(x1, hi) > max(x0, lo)
        ]


def subset_generate(a: IntervalSet, t, p) -> IntervalSet:
    """Subset of a with measure exactly t*mu(a), cut by the smallest closed
    ball around p achieving that measure."""
    t, p = as_rational(t), as_rational(p)
    if not (0 <= t <= 1):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if a.is_empty or t == 0:
        return EMPTY
    return canonicalize(_RadiusTable(a, p).ball_subset(t))


def _tiling_centroid(elements: Sequence[PartitionElement]) -> Fraction:
    """Centroid of the union of the sets from its first moment, summed over
    the element regions, which tile the union."""
    pieces = [iv for el in elements for iv in el.region.intervals]
    mass = sum((b - a for a, b in pieces), Fraction(0))
    return sum((b * b - a * a for a, b in pieces), Fraction(0)) / (2 * mass)


class PartitionPlan:
    """The weight-independent part of partition averages over one
    collection of sets: the partition of the union, the reference point,
    and one radius table per partition element.  Build it once and call
    `average` for every weight vector; a table is built the first time its
    element gets a nonzero coverage.

    Equal sets cover the same segments, so they yield the same elements and
    the same reference point: the partition is built over the distinct sets
    only, and `average` adds the weights of equal sets together."""

    def __init__(self, sets: Sequence[IntervalSet], cfg: AverageConfig = CENTROID_OF_UNION):
        self.sets = tuple(sets)
        classes: dict[IntervalSet, int] = {}
        self._class_of = [classes.setdefault(s, len(classes)) for s in self.sets]
        self.partition = partition_of_union(list(classes))
        self._signatures = [el.signature for el in self.partition.elements]
        self._shared_p = None
        if cfg.kind != "per-element" and self.partition.elements:
            self._shared_p = (
                cfg.point if cfg.kind == "fixed" else _tiling_centroid(self.partition.elements)
            )
        self._tables: list[_RadiusTable | None] = [None] * len(self.partition.elements)

    def _table(self, k: int) -> _RadiusTable:
        table = self._tables[k]
        if table is None:
            region = self.partition.elements[k].region
            p = centroid(region) if self._shared_p is None else self._shared_p
            table = self._tables[k] = _RadiusTable(region, p)
        return table

    def average(self, weights: Sequence[Fraction]) -> IntervalSet:
        """Weighted average of the plan's sets: from each element, the ball
        subset whose measure is the element's coverage times its measure."""
        nums, denom = _int_weights(check_weights(weights, len(self.sets)))
        folded = [0] * len(self.partition.sets)
        for c, v in zip(self._class_of, nums):
            folded[c] += v
        pieces = []
        for k, total in enumerate(_coverage_sums(self._signatures, folded)):
            if total:
                pieces.extend(self._table(k).ball_subset(Fraction(total, denom)))
        return canonicalize(pieces)


def partition_average(
    sets: Sequence[IntervalSet],
    weights: Sequence[Fraction],
    cfg: AverageConfig = CENTROID_OF_UNION,
) -> IntervalSet:
    """Weighted average of interval sets built on the partition of the union."""
    return PartitionPlan(sets, cfg).average(weights)


def expected_pairwise_distance(
    sets: Sequence[IntervalSet],
    weights_a: Sequence[Fraction],
    weights_b: Sequence[Fraction],
) -> Fraction:
    """E(d(X1, X2)) for independent discrete random sets over the same
    collection: the double sum of pairwise distances weighted by the product
    distribution."""
    wa, wb = check_weights(weights_a, len(sets)), check_weights(weights_b, len(sets))
    total = Fraction(0)
    n = len(sets)
    dist = {}
    for i in range(n):
        for j in range(n):
            if wa[i] == 0 or wb[j] == 0:
                continue
            key = (i, j) if i <= j else (j, i)
            if key not in dist:
                dist[key] = sym_diff_distance(sets[key[0]], sets[key[1]])
            total += wa[i] * wb[j] * dist[key]
    return total


def _coverage_integral(
    sets: Sequence[IntervalSet],
    weights_a: Sequence[Fraction],
    weights_b: Sequence[Fraction],
    integrand: Callable[[Fraction, Fraction], Fraction],
) -> Fraction:
    """Integral over the union of integrand(a, b), where a and b are the
    coverage functions of the two weight vectors."""
    part = partition_of_union(sets)
    cov_a, cov_b = coverage_values(part, weights_a), coverage_values(part, weights_b)
    total = Fraction(0)
    for el, (_, a), (_, b) in zip(part.elements, cov_a, cov_b):
        total += integrand(a, b) * measure(el.region)
    return total


def expected_pairwise_distance_integral(
    sets: Sequence[IntervalSet],
    weights_a: Sequence[Fraction],
    weights_b: Sequence[Fraction],
) -> Fraction:
    """Same expectation computed as the integral of the coverage-function
    expression a(1-b) + b(1-a) over the partition elements; must agree
    exactly with the double-sum form."""
    return _coverage_integral(sets, weights_a, weights_b, lambda a, b: a * (1 - b) + b * (1 - a))


def average_distance_integral(
    sets: Sequence[IntervalSet],
    weights_a: Sequence[Fraction],
    weights_b: Sequence[Fraction],
) -> Fraction:
    """d(avg_a, avg_b) computed as the integral of the absolute coverage
    difference over the partition elements.  Equals the distance between the
    two partition averages when both use the same reference-point config."""
    return _coverage_integral(sets, weights_a, weights_b, lambda a, b: abs(a - b))
