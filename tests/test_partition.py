import itertools
import random
from fractions import Fraction as F

import pytest

from setavg.intervals import (
    EMPTY,
    canonicalize,
    contains_ae,
    from_pairs,
    intersect,
    measure,
    sym_diff_distance,
    union,
)
from setavg.multivariate import Point2
from setavg.operators import REAL_SPACE
from setavg.partition import (
    CENTROID_OF_UNION,
    PER_ELEMENT_CENTROID,
    average_distance_integral,
    coverage_values,
    expected_pairwise_distance,
    expected_pairwise_distance_integral,
    fixed_point,
    partition_average,
    partition_of_union,
    subset_generate,
)
from setavg.raster import Rectangle, raster_average_measure_1d, raster_partition_average, rasterize

from conftest import random_interval_set, random_weights

A01 = from_pairs([(0, 1)])
A02 = from_pairs([(0, 2)])
ALL_CFGS = [CENTROID_OF_UNION, fixed_point(F(1, 3)), PER_ELEMENT_CENTROID]


class TestPartitionOfUnion:
    def test_two_overlapping(self):
        part = partition_of_union([from_pairs([(0, 2)]), from_pairs([(1, 3)])])
        by_sig = {el.signature: el.region for el in part.elements}
        assert by_sig == {
            frozenset([0]): from_pairs([(0, 1)]),
            frozenset([0, 1]): from_pairs([(1, 2)]),
            frozenset([1]): from_pairs([(2, 3)]),
        }

    def test_single_set(self):
        a = from_pairs([(0, 1), (2, 5)])
        part = partition_of_union([a])
        assert len(part.elements) == 1
        assert part.elements[0].signature == frozenset([0])
        assert part.elements[0].region == a

    def test_identical_sets(self):
        part = partition_of_union([A01, A01])
        assert len(part.elements) == 1
        assert part.elements[0].signature == frozenset([0, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            partition_of_union([])

    def test_partition_lemma_properties(self, rng):
        # disjoint regions; union of regions = union of inputs; per-index
        # union of regions recovers each input (all modulo null sets)
        for _ in range(25):
            sets = [random_interval_set(rng) for _ in range(rng.randint(1, 4))]
            part = partition_of_union(sets)
            for el1, el2 in itertools.combinations(part.elements, 2):
                assert measure(intersect(el1.region, el2.region)) == 0
            total = EMPTY
            for el in part.elements:
                total = union(total, el.region)
            full = canonicalize([iv for s in sets for iv in s.intervals])
            assert total == full
            for j, s in enumerate(sets):
                covered = canonicalize(
                    [iv for el in part.elements if j in el.signature for iv in el.region.intervals]
                )
                assert covered == s


class TestCoverage:
    def test_values(self):
        part = partition_of_union([from_pairs([(0, 2)]), from_pairs([(1, 3)])])
        vals = dict(coverage_values(part, [F(1, 2), F(1, 2)]))
        assert vals == {
            frozenset([0]): F(1, 2),
            frozenset([0, 1]): F(1),
            frozenset([1]): F(1, 2),
        }
        indicator = dict(coverage_values(part, [F(1), F(0)]))
        assert indicator[frozenset([1])] == 0

    def test_robbins_identity(self, rng):
        # integral of the coverage function = expected measure
        for _ in range(30):
            sets = [random_interval_set(rng) for _ in range(rng.randint(1, 4))]
            w = random_weights(rng, len(sets))
            part = partition_of_union(sets)
            lhs = sum(
                (val * measure(next(el.region for el in part.elements if el.signature == sig))
                 for sig, val in coverage_values(part, w)),
                F(0),
            )
            rhs = sum((wi * measure(s) for wi, s in zip(w, sets)), F(0))
            assert lhs == rhs

    def test_length_mismatch(self):
        part = partition_of_union([A01])
        with pytest.raises(ValueError):
            coverage_values(part, [F(1, 2), F(1, 2)])


class TestSubsetGenerate:
    def test_half_from_left_edge(self):
        assert subset_generate(from_pairs([(0, 2)]), F(1, 2), F(0)) == from_pairs([(0, 1)])

    def test_zero_fraction(self):
        assert subset_generate(from_pairs([(3, 7), (9, 11)]), F(0), F(5)) == EMPTY

    def test_two_components(self):
        a = from_pairs([(0, 1), (3, 4)])
        assert subset_generate(a, F(3, 4), F(1, 2)) == from_pairs([(0, 1), (3, F(7, 2))])

    def test_full_fraction_returns_set(self):
        a = from_pairs([(0, 1), (5, 6)])
        assert subset_generate(a, F(1), F(100)) == a

    def test_out_of_range_t(self):
        with pytest.raises(ValueError):
            subset_generate(A01, F(3, 2), F(0))

    def test_measure_and_nesting(self, rng):
        for _ in range(40):
            a = random_interval_set(rng)
            p = F(rng.randint(-4, 14), 3)
            ts = sorted(F(rng.randint(0, 12), 12) for _ in range(3))
            prev = EMPTY
            for t in ts:
                cur = subset_generate(a, t, p)
                assert measure(cur) == t * measure(a)
                assert contains_ae(a, cur)
                assert contains_ae(cur, prev)
                prev = cur


class TestPartitionAverage:
    def test_half_half_nested_intervals(self):
        got = partition_average([A01, A02], [F(1, 2), F(1, 2)], CENTROID_OF_UNION)
        assert got == from_pairs([(0, F(3, 2))])

    def test_indicator_weight_interpolates(self, rng):
        for _ in range(10):
            sets = [random_interval_set(rng) for _ in range(3)]
            for j in range(3):
                w = [F(0)] * 3
                w[j] = F(1)
                for cfg in ALL_CFGS:
                    assert partition_average(sets, w, cfg) == sets[j]

    def test_identical_sets_fixed(self):
        a = from_pairs([(0, 1), (2, 3)])
        for cfg in ALL_CFGS:
            assert partition_average([a, a, a], [F(1, 6), F(1, 3), F(1, 2)], cfg) == a

    def test_measure_linearity(self, rng):
        for _ in range(30):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 4))]
            w = random_weights(rng, len(sets))
            for cfg in ALL_CFGS:
                avg = partition_average(sets, w, cfg)
                assert measure(avg) == sum((wi * measure(s) for wi, s in zip(w, sets)), F(0))

    def test_commutativity(self, rng):
        for _ in range(15):
            sets = [random_interval_set(rng) for _ in range(3)]
            w = random_weights(rng, 3)
            perm = [2, 0, 1]
            for cfg in (CENTROID_OF_UNION, fixed_point(F(7, 2))):
                direct = partition_average(sets, w, cfg)
                permuted = partition_average([sets[i] for i in perm], [w[i] for i in perm], cfg)
                assert direct == permuted

    def test_sandwich(self, rng):
        for _ in range(20):
            sets = [random_interval_set(rng) for _ in range(3)]
            w = random_weights(rng, 3)
            avg = partition_average(sets, w)
            inner = sets[0]
            outer = EMPTY
            for s in sets:
                inner = intersect(inner, s)
                outer = union(outer, s)
            assert contains_ae(avg, inner)
            assert contains_ae(outer, avg)

    def test_distance_equality_to_each_set(self, rng):
        # the central identity: distance from any averaged set to the
        # average equals the weighted average of pairwise distances
        for _ in range(25):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 4))]
            w = random_weights(rng, len(sets))
            for cfg in ALL_CFGS:
                avg = partition_average(sets, w, cfg)
                for j, aj in enumerate(sets):
                    expect = sum((wi * sym_diff_distance(aj, s) for wi, s in zip(w, sets)), F(0))
                    assert sym_diff_distance(aj, avg) == expect

    def test_metric_property_two_sets(self, rng):
        for _ in range(20):
            a, b = random_interval_set(rng), random_interval_set(rng)
            alpha = F(rng.randint(0, 8), 8)
            beta = F(rng.randint(0, 8), 8)
            avg_a = partition_average([a, b], [alpha, 1 - alpha])
            avg_b = partition_average([a, b], [beta, 1 - beta])
            assert sym_diff_distance(avg_a, avg_b) == abs(alpha - beta) * sym_diff_distance(a, b)

    def test_all_empty(self):
        assert partition_average([EMPTY, EMPTY], [F(1, 2), F(1, 2)]) == EMPTY

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_average([A01], [F(1, 2), F(1, 2)])


class TestWeightCheck:
    """Every entry point that takes weights rejects floats, a wrong count,
    negative weights and sums other than 1 with the same typed errors."""

    ENTRY_POINTS = {
        "partition_average": lambda w: partition_average([A01, A02], w),
        "coverage_values": lambda w: coverage_values(partition_of_union([A01, A02]), w),
        "expected_pairwise_distance": lambda w: expected_pairwise_distance([A01, A02], w, w),
        "expected_pairwise_distance_integral":
            lambda w: expected_pairwise_distance_integral([A01, A02], w, w),
        "average_distance_integral": lambda w: average_distance_integral([A01, A02], w, w),
        "real_space": lambda w: REAL_SPACE.plan([F(1), F(2)])(w),
        "raster_partition_average": lambda w: raster_partition_average(
            [rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), (F(0), F(0)), F(1, 2), 4, 4)] * 2,
            w, Point2(0, 0)),
        "raster_average_measure_1d":
            lambda w: raster_average_measure_1d([A01, A02], w, F(0), F(1, 4), 8),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_rejections(self, name):
        call = self.ENTRY_POINTS[name]
        call([F(1, 2), F(1, 2)])
        with pytest.raises(TypeError):
            call([0.5, 0.5])
        for bad in ([F(1)], [F(1, 3)] * 3, [F(3, 2), F(-1, 2)], [F(1, 2), F(1, 4)]):
            with pytest.raises(ValueError):
                call(bad)


class TestExpectedDistances:
    def test_half_half_nested_intervals(self):
        sets = [A01, A02]
        w = [F(1, 2), F(1, 2)]
        assert expected_pairwise_distance(sets, w, w) == F(1, 2)

    def test_point_masses(self):
        sets = [from_pairs([(0, 1)]), from_pairs([(5, 7)])]
        one_zero = [F(1), F(0)]
        zero_one = [F(0), F(1)]
        assert expected_pairwise_distance(sets, one_zero, one_zero) == 0
        assert expected_pairwise_distance(sets, one_zero, zero_one) == sym_diff_distance(*sets)

    def test_double_sum_equals_integral_form(self, rng):
        for _ in range(25):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 4))]
            wa = random_weights(rng, len(sets))
            wb = random_weights(rng, len(sets))
            assert expected_pairwise_distance(sets, wa, wb) == \
                expected_pairwise_distance_integral(sets, wa, wb)

    def test_average_distance_integral_examples(self):
        sets = [from_pairs([(0, 1)]), from_pairs([(2, 3)])]
        assert average_distance_integral(sets, [F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]) == 1
        w = [F(2, 5), F(3, 5)]
        assert average_distance_integral(sets, w, w) == 0
        assert average_distance_integral(sets, [F(1), F(0)], [F(0), F(1)]) == 2

    def test_integral_matches_actual_average_distance(self, rng):
        for _ in range(20):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 3))]
            wa = random_weights(rng, len(sets))
            wb = random_weights(rng, len(sets))
            for cfg in ALL_CFGS:
                lhs = sym_diff_distance(
                    partition_average(sets, wa, cfg), partition_average(sets, wb, cfg)
                )
                assert lhs == average_distance_integral(sets, wa, wb)

    def test_expectation_inequality(self, rng):
        for _ in range(20):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 4))]
            wa = random_weights(rng, len(sets))
            wb = random_weights(rng, len(sets))
            lhs = sym_diff_distance(
                partition_average(sets, wa), partition_average(sets, wb)
            )
            assert lhs <= expected_pairwise_distance(sets, wa, wb)


class TestRemarks:
    # regression fixtures found by seeded random search, pinned here

    def test_not_associative(self):
        a = from_pairs([(0, 6)])
        b = from_pairs([(7, 8)])
        c = from_pairs([(4, 7)])
        third = [F(1, 3)] * 3
        flat = partition_average([a, b, c], third)
        ab = partition_average([a, b], [F(1, 2), F(1, 2)])
        nested = partition_average([ab, c], [F(2, 3), F(1, 3)])
        assert flat != nested

    def test_zero_weight_changes_result(self):
        a, b = A01, A02
        c = from_pairs([(F(1, 2), F(3, 2))])
        half = [F(1, 2), F(1, 2)]
        two = partition_average([a, b], half)
        three = partition_average([a, b, c], half + [F(0)])
        assert two != three
        # measure is preserved either way
        assert measure(two) == measure(three)
