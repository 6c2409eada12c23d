import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from setavg import operators
from setavg.catalog import (
    BUILTIN_SVFS,
    MonotoneReport,
    dyadic_sqrt,
    run_convergence,
    run_monotone_check,
    uniform_grid,
)
from setavg.intervals import as_rational, contains_ae, from_pairs, measure, sym_diff_distance
from setavg.multivariate import Point2
from setavg.operators import (
    BERNSTEIN_SCHEME,
    PIECEWISE_LINEAR_SCHEME,
    REAL_SPACE,
    IntervalSetSpace,
    SampledSVF,
    bernstein_real,
    bernstein_svf,
    bernstein_weights,
    decasteljau_naive,
    decasteljau_svf,
    dominance_holds,
    measure_profile_secants,
    operator_on_grid,
    positive_operator,
    speed_profile,
    uniform_nodes,
)
from setavg.partition import (
    CENTROID_OF_UNION,
    PER_ELEMENT_CENTROID,
    AverageConfig,
    check_weights,
    fixed_point,
    partition_average,
    subset_generate,
)
from setavg.raster import Ellipse, Rectangle, raster_average_measure_1d, rasterize, rasterize_1d

from conftest import random_interval_set

GROW = BUILTIN_SVFS["grow"]
SPLIT = BUILTIN_SVFS["split"]


def step_svf(sets):
    """SVF jumping through the given sets at equispaced thresholds."""
    sets = list(sets)

    def evaluate(x):
        idx = min(int(x * len(sets)), len(sets) - 1)
        return sets[idx]

    return SampledSVF(evaluate)


class TestBernsteinWeights:
    def test_symmetric_midpoint(self):
        assert bernstein_weights(2, F(1, 2)) == (F(1, 4), F(1, 2), F(1, 4))

    def test_endpoint(self):
        assert bernstein_weights(3, F(0)) == (1, 0, 0, 0)

    def test_sum_to_one(self):
        for n in (1, 4, 9):
            for x in (F(1, 7), F(2, 3), F(1)):
                assert sum(bernstein_weights(n, x)) == 1

    def test_domain_check(self):
        with pytest.raises(ValueError):
            bernstein_weights(3, F(3, 2))


class TestBernsteinReal:
    def test_constant(self):
        assert bernstein_real(lambda t: F(7), 5, F(1, 3)) == 7

    def test_reproduces_linear(self):
        assert bernstein_real(lambda t: t, 4, F(1, 3)) == F(1, 3)

    def test_square(self):
        assert bernstein_real(lambda t: t * t, 2, F(1, 2)) == F(3, 8)


class TestSchemes:
    def test_pl_hat_weights(self):
        assert PIECEWISE_LINEAR_SCHEME.weights(2, F(1, 4)) == (F(1, 2), F(1, 2), 0)

    def test_pl_node_interpolation(self):
        assert PIECEWISE_LINEAR_SCHEME.weights(4, F(1, 2)) == (0, 0, 1, 0, 0)
        assert PIECEWISE_LINEAR_SCHEME.weights(2, F(1)) == (0, 0, 1)

    def test_nodes(self):
        assert BERNSTEIN_SCHEME.nodes(2) == [0, F(1, 2), 1]
        assert PIECEWISE_LINEAR_SCHEME.nodes(3) == [0, F(1, 3), F(2, 3), 1]

    def test_degree_zero_rejected(self):
        for scheme in (BERNSTEIN_SCHEME, PIECEWISE_LINEAR_SCHEME):
            with pytest.raises(ValueError):
                scheme.nodes(0)
            with pytest.raises(ValueError):
                scheme.weights(0, F(1, 2))


def never(x):
    raise AssertionError(f"sample evaluated at {x}")


@pytest.mark.parametrize("op", [bernstein_svf, decasteljau_svf, decasteljau_naive])
def test_operator_degree_zero_rejected_before_sampling(op):
    with pytest.raises(ValueError, match="degree"):
        op(SampledSVF(never), 0, F(1, 2))


@pytest.mark.parametrize("op", [
    bernstein_svf,
    decasteljau_svf,
    decasteljau_naive,
    lambda G, n, x: positive_operator(G, PIECEWISE_LINEAR_SCHEME, n, x, REAL_SPACE),
], ids=["bernstein_svf", "decasteljau_svf", "decasteljau_naive", "pl_real_operator"])
@pytest.mark.parametrize("x", [F(3, 2), F(-1, 4)], ids=["3/2", "-1/4"])
def test_operator_point_outside_unit_interval_rejected_before_sampling(op, x):
    with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
        op(SampledSVF(never), 2, x)


UNIT = from_pairs([(0, 1)])
SQUARE = Rectangle(Point2(1, 1), Point2(2, 2))

# Every entry point that takes a point x, a grid, a reference point, a
# coordinate, a length or a weight vector, called with that argument set to q.
POINT_ENTRY_POINTS = {
    "positive_operator":
        lambda q: positive_operator(GROW, BERNSTEIN_SCHEME, 2, q, IntervalSetSpace()),
    "bernstein_weights": lambda q: bernstein_weights(2, q),
    "bernstein_real": lambda q: bernstein_real(lambda t: t, 2, q),
    "pl_weights": lambda q: PIECEWISE_LINEAR_SCHEME.weights(2, q),
    "decasteljau_svf": lambda q: decasteljau_svf(GROW, 2, q),
    "decasteljau_naive": lambda q: decasteljau_naive(GROW, 2, q),
    "sampled_svf": lambda q: GROW(q),
    "fixed_point": lambda q: fixed_point(q),
    "average_config_point": lambda q: AverageConfig("fixed", q),
    "dyadic_sqrt": lambda q: dyadic_sqrt(q),
    "subset_generate_t": lambda q: subset_generate(from_pairs([(0, 2)]), q, F(0)),
    "subset_generate_p": lambda q: subset_generate(from_pairs([(0, 2)]), F(1, 2), q),
    "speed_profile": lambda q: speed_profile(GROW, BERNSTEIN_SCHEME, 2, [F(0), q]),
    "measure_profile_secants":
        lambda q: measure_profile_secants(GROW, BERNSTEIN_SCHEME, 2, [F(0), q]),
    "run_convergence": lambda q: run_convergence("grow", "bernstein", [2], [F(0), q]),
    "run_monotone_check": lambda q: run_monotone_check("grow", "bernstein", 2, [F(0), q]),
    "point2_x": lambda q: Point2(q, 0),
    "point2_y": lambda q: Point2(0, q),
    "dominance_holds_a": lambda q: dominance_holds([q], [1]),
    "dominance_holds_b": lambda q: dominance_holds([0], [q]),
    "ellipse_semi_x": lambda q: Ellipse(Point2(2, 2), q, 1),
    "ellipse_semi_y": lambda q: Ellipse(Point2(2, 2), 1, q),
    "rasterize_origin_x": lambda q: rasterize(SQUARE, (q, 0), F(1, 2), 8, 8),
    "rasterize_origin_y": lambda q: rasterize(SQUARE, (0, q), F(1, 2), 8, 8),
    "rasterize_cell_size": lambda q: rasterize(SQUARE, (0, 0), q, 30, 30),
    "rasterize_1d_lo": lambda q: rasterize_1d(UNIT, q, F(1, 4), 8),
    "rasterize_1d_cell_size": lambda q: rasterize_1d(UNIT, 0, q, 8),
    "raster_measure_1d_lo": lambda q: raster_average_measure_1d([UNIT], [1], q, F(1, 4), 8),
    "raster_measure_1d_cell_size": lambda q: raster_average_measure_1d([UNIT], [1], 0, q, 8),
}


@pytest.mark.parametrize("name", sorted(POINT_ENTRY_POINTS))
def test_points_must_be_exact(name):
    call = POINT_ENTRY_POINTS[name]
    call(F(1, 10))
    call("1/10")
    with pytest.raises(TypeError, match="not an exact rational"):
        call(0.1)


@pytest.mark.parametrize("call", [
    as_rational,
    lambda b: check_weights([b], 1),
    lambda b: bernstein_weights(2, b),
    lambda b: GROW(b),
], ids=["as_rational", "check_weights", "bernstein_weights_x", "sampled_svf"])
def test_booleans_are_not_rationals(call):
    with pytest.raises(TypeError, match="not an exact rational: True"):
        call(True)


@pytest.mark.parametrize("n", [True, 2.0, F(2)], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("call", [
    lambda n: bernstein_weights(n, F(1, 2)),
    lambda n: PIECEWISE_LINEAR_SCHEME.weights(n, F(1, 2)),
    lambda n: decasteljau_svf(SampledSVF(never), n, F(1, 2)),
], ids=["bernstein_weights", "pl_weights", "decasteljau_svf"])
def test_degree_must_be_an_int(call, n):
    with pytest.raises(TypeError, match="degree must be an int"):
        call(n)


@pytest.mark.parametrize("call", [
    lambda g: speed_profile(GROW, BERNSTEIN_SCHEME, 2, g),
    lambda g: measure_profile_secants(GROW, BERNSTEIN_SCHEME, 2, g),
    lambda g: run_monotone_check("grow", "bernstein", 2, g),
], ids=["speed_profile", "measure_profile_secants", "run_monotone_check"])
def test_repeated_grid_point_rejected(call):
    with pytest.raises(ValueError, match="repeated grid point 1/2"):
        call([F(1, 2), F(1, 2)])


def test_run_monotone_check_evaluates_samples_and_weights_once(monkeypatch):
    samples, weights = Counter(), Counter()

    def counted(x):
        samples[x] += 1
        return GROW.evaluate(x)

    def counted_weights(n, x, real=operators.bernstein_weights):
        weights[x] += 1
        return real(n, x)

    svf = SampledSVF(counted, GROW.holder_constant, GROW.holder_exponent, "counted")
    monkeypatch.setitem(BUILTIN_SVFS, "counted", svf)
    monkeypatch.setattr(operators, "bernstein_weights", counted_weights)
    grid = uniform_grid(5)
    report = run_monotone_check("counted", "bernstein", 4, grid)
    assert report == MonotoneReport(True, True, (), True)
    assert samples == Counter(uniform_nodes(4))
    assert weights == Counter(grid)


@pytest.mark.parametrize("runner", ["convergence", "monotone"])
@pytest.mark.parametrize("bad", ["svf", "operator"])
def test_unknown_names_rejected(runner, bad):
    svf = "nope" if bad == "svf" else "grow"
    op = "nope" if bad == "operator" else "bernstein"
    with pytest.raises(ValueError, match="unknown .*'nope'"):
        if runner == "convergence":
            run_convergence(svf, op, [2], [F(0), F(1)])
        else:
            run_monotone_check(svf, op, 2, [F(0), F(1)])


class TestBernsteinSVF:
    def test_two_sample_example(self):
        F1 = step_svf([from_pairs([(0, 1)]), from_pairs([(0, 2)])])
        assert bernstein_svf(F1, 1, F(1, 2)) == from_pairs([(0, F(3, 2))])

    def test_endpoint_interpolation(self):
        for name in ("grow", "slide", "split", "holder"):
            G = BUILTIN_SVFS[name]
            assert bernstein_svf(G, 4, F(0)) == G(F(0))
            assert bernstein_svf(G, 4, F(1)) == G(F(1))

    def test_constant_svf(self):
        a = from_pairs([(0, 1), (3, 5)])
        const = SampledSVF(lambda x: a)
        for n, x in ((1, F(1, 3)), (5, F(2, 7))):
            assert bernstein_svf(const, n, x) == a

    def test_measure_transfer(self, rng):
        for _ in range(10):
            sets = [random_interval_set(rng) for _ in range(4)]
            G = step_svf(sets)
            n = rng.randint(1, 6)
            x = F(rng.randint(0, 12), 12)
            approx = bernstein_svf(G, n, x)
            mu_of_samples = lambda t: measure(G(t))
            assert measure(approx) == bernstein_real(mu_of_samples, n, x)


class TestDeCasteljau:
    def test_degree_one_equals_bernstein(self, rng):
        # with one reference point shared by all elements the recursion is
        # the Bernstein operator exactly, at every degree
        for cfg in (CENTROID_OF_UNION, fixed_point(F(3, 2))):
            for n in range(1, 6):
                for _ in range(5):
                    G = step_svf([random_interval_set(rng) for _ in range(n + 1)])
                    x = F(rng.randint(0, 8), 8)
                    assert decasteljau_svf(G, n, x, cfg) == bernstein_svf(G, n, x, cfg), (cfg, n)

    def test_per_element_centroids_differ_from_bernstein(self):
        G = step_svf([from_pairs([(0, 4)]), from_pairs([(0, 4)]), from_pairs([(1, 2)])])
        got = decasteljau_svf(G, 2, F(1, 2), PER_ELEMENT_CENTROID)
        assert got == from_pairs([(F(1, 6), F(41, 12))])
        assert bernstein_svf(G, 2, F(1, 2), PER_ELEMENT_CENTROID) == \
            from_pairs([(F(13, 24), F(91, 24))])

    def test_endpoints(self):
        assert decasteljau_svf(GROW, 3, F(0)) == GROW(F(0))
        assert decasteljau_svf(GROW, 3, F(1)) == GROW(F(1))

    def test_distance_identity_hand_example(self):
        G = step_svf([from_pairs([(0, 1)]), from_pairs([(0, 2)]), from_pairs([(0, 4)])])
        result = decasteljau_svf(G, 2, F(1, 2))
        assert sym_diff_distance(result, G(F(0))) == F(5, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distance_identity_random(self, n, rng):
        for _ in range(3):
            sets = [random_interval_set(rng) for _ in range(n + 1)]
            G = step_svf(sets)
            x = F(rng.randint(0, 6), 6)
            result = decasteljau_svf(G, n, x)
            w = bernstein_weights(n, x)
            for i in range(n + 1):
                expect = sum(
                    (w[j] * sym_diff_distance(G(F(i, n)), G(F(j, n))) for j in range(n + 1)),
                    F(0),
                )
                assert sym_diff_distance(result, G(F(i, n))) == expect

    def test_naive_variant_differs(self):
        # the plain binary recursion is a genuinely different operator
        G = step_svf([from_pairs([(0, 6)]), from_pairs([(7, 8)]), from_pairs([(4, 7)])])
        x = F(1, 2)
        assert decasteljau_naive(G, 2, x) != decasteljau_svf(G, 2, x)


class TestPositiveOperator:
    def test_bernstein_scheme_matches_bernstein_svf(self):
        space = IntervalSetSpace(CENTROID_OF_UNION)
        for x in (F(1, 4), F(2, 3)):
            assert positive_operator(GROW, BERNSTEIN_SCHEME, 3, x, space) == \
                bernstein_svf(GROW, 3, x)

    def test_real_instance_matches_bernstein_real(self):
        f = lambda t: t * t + 1
        for n, x in ((2, F(1, 2)), (5, F(1, 3))):
            got = positive_operator(f, BERNSTEIN_SCHEME, n, x, REAL_SPACE)
            assert got == bernstein_real(f, n, x)

    def test_grid_matches_fresh_averages(self):
        # one plan serves every grid point, in both spaces
        grid = [F(k, 6) for k in range(7)]
        cfg = fixed_point(1)
        for scheme in (BERNSTEIN_SCHEME, PIECEWISE_LINEAR_SCHEME):
            sets = [SPLIT(node) for node in scheme.nodes(3)]
            mus = [measure(s) for s in sets]
            weights = [scheme.weights(3, x) for x in grid]
            assert operator_on_grid(sets, scheme, 3, grid, IntervalSetSpace(cfg)) == [
                partition_average(sets, w, cfg) for w in weights
            ]
            assert operator_on_grid(mus, scheme, 3, grid, REAL_SPACE) == [
                sum(wi * m for wi, m in zip(w, mus)) for w in weights
            ]

    def test_pl_interpolates_between_nodes(self):
        space = IntervalSetSpace(CENTROID_OF_UNION)
        got = positive_operator(GROW, PIECEWISE_LINEAR_SCHEME, 2, F(1, 4), space)
        expect = partition_average(
            [GROW(F(0)), GROW(F(1, 2)), GROW(F(1))], [F(1, 2), F(1, 2), F(0)]
        )
        assert got == expect

    def test_sample_distance_identity(self, rng):
        # distance from any node sample to the operator value is the
        # weighted average of sample distances, zero-weighted nodes included
        space = IntervalSetSpace(CENTROID_OF_UNION)
        for scheme in (BERNSTEIN_SCHEME, PIECEWISE_LINEAR_SCHEME):
            sets = [random_interval_set(rng) for _ in range(4)]
            G = step_svf(sets)
            n, x = 3, F(2, 5)
            value = positive_operator(G, scheme, n, x, space)
            w = scheme.weights(n, x)
            nodes = scheme.nodes(n)
            for j, node in enumerate(nodes):
                expect = sum(
                    (w[i] * sym_diff_distance(G(node), G(nodes[i])) for i in range(n + 1)),
                    F(0),
                )
                assert sym_diff_distance(G(node), value) == expect


class TestDominance:
    def test_examples(self):
        assert dominance_holds([F(1, 2), F(1, 2), F(0)], [F(1, 4), F(1, 2), F(1, 4)])
        w = bernstein_weights(3, F(2, 5))
        assert dominance_holds(w, w)
        assert dominance_holds(bernstein_weights(2, F(3, 10)), bernstein_weights(2, F(3, 5)))

    def test_violation(self):
        assert not dominance_holds([F(0), F(1)], [F(1), F(0)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominance_holds([F(1)], [F(1, 2), F(1, 2)])

    def test_bernstein_cumulative_monotone(self):
        xs = [F(i, 8) for i in range(9)]
        for n in (2, 5, 8):
            for a, b in zip(xs, xs[1:]):
                assert dominance_holds(bernstein_weights(n, a), bernstein_weights(n, b))

    def test_necessity_witness(self):
        # a non-dominant pair admits a nested step sequence breaking containment
        alpha, beta = [F(0), F(0), F(1)], [F(0), F(1), F(0)]
        assert not dominance_holds(alpha, beta)
        sets = [from_pairs([(0, 1)]), from_pairs([(0, 1)]), from_pairs([(0, 2)])]
        avg_a = partition_average(sets, alpha)
        avg_b = partition_average(sets, beta)
        assert not contains_ae(avg_b, avg_a)


class TestSpeedProfile:
    def test_linear_growth_unit_speed(self):
        grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert speed_profile(GROW, BERNSTEIN_SCHEME, 3, grid) == [1, 1, 1, 1]

    def test_constant_zero_speed(self):
        const = SampledSVF(lambda x: from_pairs([(0, 2)]))
        grid = [F(0), F(1, 2), F(1)]
        assert speed_profile(const, BERNSTEIN_SCHEME, 2, grid) == [0, 0]

    def test_quadratic_growth_matches_secants(self):
        quad = SampledSVF(lambda x: from_pairs([(0, 1 + x * x)]))
        grid = [F(i, 6) for i in range(7)]
        speeds = speed_profile(quad, BERNSTEIN_SCHEME, 2, grid)
        assert speeds == measure_profile_secants(quad, BERNSTEIN_SCHEME, 2, grid)

    def test_non_monotone_rejected(self):
        bump = step_svf([from_pairs([(0, 1)]), from_pairs([(0, 3)]), from_pairs([(0, 2)])])
        with pytest.raises(ValueError):
            speed_profile(bump, BERNSTEIN_SCHEME, 2, [F(0), F(1, 2), F(1)])


class TestHolderInvariants:
    def test_builtin_holder_spot_check(self, rng):
        # declared class: d(F(x), F(y)) <= L |x-y|^nu, checked in floats
        for name, G in BUILTIN_SVFS.items():
            L, nu = float(G.holder_constant), float(G.holder_exponent)
            for _ in range(20):
                x = F(rng.randint(0, 24), 24)
                y = F(rng.randint(0, 24), 24)
                d = float(sym_diff_distance(G(x), G(y)))
                assert d <= L * abs(float(x - y)) ** nu + 1e-9

    def test_closest_point_bound(self, rng):
        # triangle-inequality bound through the nearest sample node
        G = BUILTIN_SVFS["slide"]
        for n in (2, 5):
            for _ in range(5):
                x = F(rng.randint(0, 16), 16)
                xp = min((F(i, n) for i in range(n + 1)), key=lambda t: abs(t - x))
                w = bernstein_weights(n, x)
                rhs = 2 * sym_diff_distance(G(xp), G(x)) + sum(
                    (w[i] * sym_diff_distance(G(x), G(F(i, n))) for i in range(n + 1)),
                    F(0),
                )
                assert sym_diff_distance(G(x), bernstein_svf(G, n, x)) <= rhs
