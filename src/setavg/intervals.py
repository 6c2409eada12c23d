"""Exact algebra of finite unions of rational intervals on the real line.

An IntervalSet is the canonical representative of a bounded 1-D set modulo
null sets: a sorted tuple of pairwise disjoint closed intervals of positive
length.  All arithmetic is done with `fractions.Fraction`, so every measure
and distance computed here is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


class EmptySetError(ValueError):
    """Raised when an operation needs a nonempty set (e.g. centroid)."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and exact strings ("5/2", "0.75") to Fraction.
    Floats and booleans raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of positive-length closed rational intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self) -> None:
        prev_end = None
        for a, b in self.intervals:
            for end in (a, b):
                if not isinstance(end, Fraction):
                    raise TypeError(f"not an exact rational: {end!r}")
            if not (a < b):
                raise ValueError(f"degenerate interval ({a}, {b}) in canonical set")
            if prev_end is not None and not (a > prev_end):
                raise ValueError("intervals must be sorted with positive gaps")
            prev_end = b

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self):
        return iter(self.intervals)

    def __contains__(self, point: RationalLike) -> bool:
        x = as_rational(point)
        return any(a <= x <= b for a, b in self.intervals)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(f"[{a}, {b}]" for a, b in self.intervals)


EMPTY = IntervalSet()


def canonicalize(raw: Iterable[tuple[RationalLike, RationalLike]]) -> IntervalSet:
    """Canonical form of a list of rational pairs: drop degenerate points,
    merge overlapping or touching intervals.  Realizes closure-of-interior
    for finite unions of 1-D intervals."""
    pairs = []
    for a, b in raw:
        a, b = as_rational(a), as_rational(b)
        if a > b:
            raise ValueError(f"interval ({a}, {b}) has negative length")
        if a < b:
            pairs.append((a, b))
    pairs.sort()
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return IntervalSet(tuple(merged))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return canonicalize(list(a.intervals) + list(b.intervals))


def _overlaps(a: IntervalSet, b: IntervalSet):
    """The positive-length pieces of a & b, in order, from one two-pointer
    walk over the two sorted interval lists: O(|a| + |b|)."""
    xs, ys = a.intervals, b.intervals
    i = j = 0
    while i < len(xs) and j < len(ys):
        (x0, x1), (y0, y1) = xs[i], ys[j]
        lo, hi = max(x0, y0), min(x1, y1)
        if lo < hi:
            yield lo, hi
        if x1 < y1:
            i += 1
        else:
            j += 1


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return canonicalize(_overlaps(a, b))


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    for x0, x1 in a.intervals:
        pieces = [(x0, x1)]
        for y0, y1 in b.intervals:
            next_pieces = []
            for p0, p1 in pieces:
                if y1 <= p0 or y0 >= p1:
                    next_pieces.append((p0, p1))
                    continue
                if p0 < y0:
                    next_pieces.append((p0, y0))
                if y1 < p1:
                    next_pieces.append((y1, p1))
            pieces = next_pieces
        out.extend(pieces)
    return canonicalize(out)


def measure(a: IntervalSet) -> Fraction:
    return sum((b - x for x, b in a.intervals), Fraction(0))


def _overlap_measure(a: IntervalSet, b: IntervalSet) -> Fraction:
    return sum((hi - lo for lo, hi in _overlaps(a, b)), Fraction(0))


def sym_diff_distance(a: IntervalSet, b: IntervalSet) -> Fraction:
    """mu(a - b) + mu(b - a), computed as mu(a) + mu(b) - 2 mu(a & b)."""
    return measure(a) + measure(b) - 2 * _overlap_measure(a, b)


def contains_ae(a: IntervalSet, b: IntervalSet) -> bool:
    """True iff b is a subset of a modulo a null set: mu(a & b) = mu(b)."""
    return _overlap_measure(a, b) == measure(b)


def centroid(a: IntervalSet) -> Fraction:
    if a.is_empty:
        raise EmptySetError("centroid of the empty set is undefined")
    first_moment = sum(((b * b - x * x) / 2 for x, b in a.intervals), Fraction(0))
    return first_moment / measure(a)


# -- text literal format -----------------------------------------------------
#
# A set literal is a JSON array of two-element arrays with rational entries
# written as exact strings, e.g. [["0","1"],["5/2","3"]].


def parse_set_literal(text: str) -> IntervalSet:
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("set literal must be a JSON array of pairs")
    pairs = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"bad interval entry: {item!r}")
        pairs.append((as_rational(item[0]), as_rational(item[1])))
    return canonicalize(pairs)


def format_set_literal(a: IntervalSet) -> str:
    return json.dumps([[str(x), str(y)] for x, y in a.intervals])


def from_pairs(pairs: Sequence[tuple[RationalLike, RationalLike]]) -> IntervalSet:
    """Convenience constructor used heavily in tests and fixtures."""
    return canonicalize(pairs)
