import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from setavg.intervals import (
    EMPTY,
    EmptySetError,
    IntervalSet,
    canonicalize,
    centroid,
    contains_ae,
    difference,
    format_set_literal,
    from_pairs,
    intersect,
    measure,
    parse_set_literal,
    sym_diff_distance,
    union,
)


def test_endpoints_must_be_fractions():
    for pair in ((0.1, F(1, 2)), (F(1, 10), 0.5), (0, F(1))):
        with pytest.raises(TypeError, match="not an exact rational"):
            IntervalSet((pair,))
    assert measure(IntervalSet(((F(1, 10), F(1, 2)),))) == F(2, 5)


def test_canonicalize_merges_touching():
    assert canonicalize([(0, 1), (1, 2)]) == from_pairs([(0, 2)])


def test_canonicalize_drops_degenerate():
    assert canonicalize([(3, 3)]) == EMPTY


def test_canonicalize_merges_overlap():
    assert canonicalize([(0, 2), (1, 3)]) == from_pairs([(0, 3)])


def test_canonicalize_idempotent():
    a = canonicalize([(0, 2), (1, 3), (5, 5), (6, 7)])
    assert canonicalize(a.intervals) == a


def test_union():
    assert union(from_pairs([(0, 1)]), from_pairs([(2, 3)])) == from_pairs([(0, 1), (2, 3)])
    a = from_pairs([(0, 1), (4, 6)])
    assert union(a, EMPTY) == a
    assert union(from_pairs([(0, 2)]), from_pairs([(1, 3)])) == from_pairs([(0, 3)])


def test_intersect_difference():
    assert intersect(from_pairs([(0, 2)]), from_pairs([(1, 3)])) == from_pairs([(1, 2)])
    assert difference(from_pairs([(0, 2)]), from_pairs([(1, 3)])) == from_pairs([(0, 1)])
    # touching intervals intersect in a null set only
    assert intersect(from_pairs([(0, 1)]), from_pairs([(1, 2)])) == EMPTY


def test_measure():
    assert measure(from_pairs([(0, 1), (2, 4)])) == 3
    assert measure(EMPTY) == 0
    assert measure(from_pairs([(0, F(1, 3))])) == F(1, 3)


def test_sym_diff_distance():
    assert sym_diff_distance(from_pairs([(0, 1)]), from_pairs([(F(1, 2), F(3, 2))])) == 1
    a = from_pairs([(0, 3), (5, 9)])
    assert sym_diff_distance(a, a) == 0
    assert sym_diff_distance(a, EMPTY) == measure(a)


def test_contains_ae():
    assert contains_ae(from_pairs([(0, 2)]), from_pairs([(0, 1)]))
    assert not contains_ae(from_pairs([(0, 1)]), from_pairs([(0, 2)]))
    a = from_pairs([(0, 1), (2, 3)])
    assert contains_ae(a, a)


def test_centroid():
    assert centroid(from_pairs([(0, 2)])) == 1
    assert centroid(from_pairs([(0, 1), (3, 4)])) == 2
    assert centroid(union(from_pairs([(0, 1)]), from_pairs([(0, 3)]))) == F(3, 2)
    with pytest.raises(EmptySetError):
        centroid(EMPTY)


def test_set_literal_round_trip():
    a = from_pairs([(0, 1), (F(5, 2), 3)])
    assert parse_set_literal(format_set_literal(a)) == a
    assert parse_set_literal('[["0","1"],["5/2","3"]]') == a
    assert parse_set_literal('[["0.5","1.5"]]') == from_pairs([(F(1, 2), F(3, 2))])


# -- randomized exact properties --------------------------------------------

rational = st.fractions(min_value=0, max_value=10, max_denominator=8)
raw_pairs = st.lists(st.tuples(rational, rational).map(sorted), min_size=0, max_size=4)
interval_sets = raw_pairs.map(canonicalize)


@given(interval_sets, interval_sets)
def test_inclusion_exclusion(a, b):
    assert measure(union(a, b)) + measure(intersect(a, b)) == measure(a) + measure(b)


@given(interval_sets, interval_sets, interval_sets)
def test_metric_axioms(a, b, c):
    assert sym_diff_distance(a, b) == sym_diff_distance(b, a)
    assert (sym_diff_distance(a, b) == 0) == (a == b)
    assert sym_diff_distance(a, c) <= sym_diff_distance(a, b) + sym_diff_distance(b, c)


@given(interval_sets, interval_sets)
def test_nested_distance_is_measure_difference(a, b):
    inner = intersect(a, b)
    if contains_ae(a, inner):
        assert sym_diff_distance(a, inner) == measure(a) - measure(inner)


@given(interval_sets, interval_sets)
def test_boolean_ops_canonical(a, b):
    for result in (union(a, b), intersect(a, b), difference(a, b)):
        assert canonicalize(result.intervals) == result


# -- integer length sums against plain Fraction sums --------------------------


def fraction_length(pieces):
    return sum((b - a for a, b in pieces), F(0))


def fraction_overlap(a, b):
    return fraction_length(
        (max(x0, y0), min(x1, y1))
        for x0, x1 in a.intervals
        for y0, y1 in b.intervals
        if max(x0, y0) < min(x1, y1)
    )


def mixed_denominator_set(rng):
    """A random set whose endpoints mix small, odd, dyadic and large
    denominators, so their common denominator is not one of them."""
    dens = [1, 3, 4, 7, 2**60, 3**40, 64**20 * 5]
    points = sorted({F(rng.randint(0, 40 * d), d) / 4 for d in rng.sample(dens, 3)
                     for _ in range(rng.randint(0, 3))})
    if len(points) % 2:
        points.pop()
    return canonicalize(zip(points[::2], points[1::2]))


def test_lengths_match_fraction_sums():
    rng = random.Random(5)
    sets = [EMPTY] + [mixed_denominator_set(rng) for _ in range(80)]
    for a in sets:
        assert measure(a) == fraction_length(a.intervals)
        assert type(measure(a)) is F
        b = rng.choice(sets)
        overlap = fraction_overlap(a, b)
        assert sym_diff_distance(a, b) == fraction_length(a.intervals + b.intervals) - 2 * overlap
        assert contains_ae(a, b) == (overlap == fraction_length(b.intervals))
        assert contains_ae(a, intersect(a, b))
        assert sym_diff_distance(a, EMPTY) == measure(a)
        assert contains_ae(a, EMPTY)
