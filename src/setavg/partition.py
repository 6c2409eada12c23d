"""Partition of the union of interval sets and the partition average.

The partition of the union decomposes the union of sets A_0..A_n into
regions, each labelled by the subset of indices of the sets covering it.
The partition average takes, from each region, a subset whose measure is
the region measure scaled by the summed weights of the covering sets; the
subset is cut by a metric ball growing around a reference point, so the
whole construction stays exact over the rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .intervals import (
    EMPTY,
    IntervalSet,
    _common_denominator,
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


def _checked_weights(
    weights: Sequence[Fraction], count: int
) -> tuple[tuple[Fraction, ...], list[int], int]:
    """The weights as Fractions and as integer numerators over their least
    common denominator, checked in ints: exactly `count` exact rationals,
    each >= 0, summing to 1 exactly.  Floats raise TypeError."""
    w = tuple(as_rational(x) for x in weights)
    if len(w) != count:
        raise ValueError(f"need one weight per input: {len(w)} weights for {count} inputs")
    nums, denom = _common_denominator(w)
    if any(v < 0 for v in nums):
        raise ValueError("weights must be nonnegative")
    if sum(nums) != denom:
        raise ValueError(f"weights must sum to 1 exactly, got {Fraction(sum(nums), denom)}")
    return w, nums, denom


def check_weights(weights: Sequence[Fraction], count: int) -> tuple[Fraction, ...]:
    """The one weight check: exactly `count` exact rationals, each >= 0,
    summing to 1 exactly.  Floats raise TypeError."""
    return _checked_weights(weights, count)[0]


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
    _, nums, denom = _checked_weights(weights, len(partition.sets))
    signatures = [el.signature for el in partition.elements]
    return [
        (sig, Fraction(total, denom))
        for sig, total in zip(signatures, _coverage_sums(signatures, nums))
    ]


class _RadiusTable:
    """The map r -> mu([p-r, p+r] & a), which is piecewise linear with
    breakpoints at the distances from p to the endpoints of a: the sorted
    breakpoints r_k, the measure m(r_k) at each, and the slope after each.
    p and the endpoints are scaled by their common denominator, so radii,
    measures and slopes are ints."""

    def __init__(self, a: IntervalSet, p: Fraction):
        self.a = a
        scaled, self.denom = _common_denominator([p, *(e for iv in a.intervals for e in iv)])
        self.p = p = scaled[0]
        self.ends = list(zip(scaled[1::2], scaled[2::2]))
        # each half of each interval, as seen from p, adds slope 1 between
        # the radii of its near and far ends
        steps: dict[int, int] = {0: 0}
        for x0, x1 in self.ends:
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
        m, slope, prev = 0, 0, 0
        for r in self.radii:
            m += slope * (r - prev)
            slope += steps[r]
            self.measures.append(m)
            self.slopes.append(slope)
            prev = r

    def ball_subset(self, num: int, den: int) -> list[tuple[Fraction, Fraction]]:
        """The intervals of a & [p-r, p+r] for the smallest r giving measure
        t*mu(a), where t = num/den and 0 < t <= 1: find the first m(r_k) >=
        t*mu(a), which is the first m(r_k) >= its ceiling as the measures
        are ints, and invert the linear piece before it (m(r_0) = 0, so
        k >= 1).  The ball is [lo/rd, hi/rd] in scaled units; a Fraction is
        built only for a ball end that cuts an interval."""
        target = num * self.measures[-1]
        k = bisect_left(self.measures, -(-target // den))
        if k == len(self.measures):
            raise ValueError("target measure exceeds the measure of the set")
        slope = self.slopes[k - 1]
        rd = slope * den
        rn = self.radii[k - 1] * rd + target - self.measures[k - 1] * den
        lo, hi = self.p * rd - rn, self.p * rd + rn
        out_den = rd * self.denom
        pieces = []
        for (x0, x1), (y0, y1) in zip(self.a.intervals, self.ends):
            y0, y1 = y0 * rd, y1 * rd
            if min(y1, hi) > max(y0, lo):
                pieces.append((x0 if y0 >= lo else Fraction(lo, out_den),
                               x1 if y1 <= hi else Fraction(hi, out_den)))
        return pieces


def subset_generate(a: IntervalSet, t, p) -> IntervalSet:
    """Subset of a with measure exactly t*mu(a), cut by the smallest closed
    ball around p achieving that measure."""
    t, p = as_rational(t), as_rational(p)
    if not (0 <= t <= 1):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if a.is_empty or t == 0:
        return EMPTY
    return canonicalize(_RadiusTable(a, p).ball_subset(t.numerator, t.denominator))


def _tiling_centroid(elements: Sequence[PartitionElement]) -> Fraction:
    """Centroid of the union of the sets from its first moment, summed in
    ints over the element regions, which tile the union."""
    ends, denom = _common_denominator(
        [e for el in elements for iv in el.region.intervals for e in iv]
    )
    lo, hi = ends[::2], ends[1::2]
    moment = sum(b * b - a * a for a, b in zip(lo, hi))
    return Fraction(moment, 2 * denom * (sum(hi) - sum(lo)))


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
        _, nums, denom = _checked_weights(weights, len(self.sets))
        folded = [0] * len(self.partition.sets)
        for c, v in zip(self._class_of, nums):
            folded[c] += v
        pieces = []
        for k, total in enumerate(_coverage_sums(self._signatures, folded)):
            if total:
                pieces.extend(self._table(k).ball_subset(total, denom))
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
