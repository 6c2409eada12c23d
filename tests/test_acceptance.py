"""Acceptance gate.

Each test covers one numbered criterion and prints a single
``[ACCEPTANCE k] PASS``/``FAIL`` line (run with ``pytest -s`` to see them).
All equalities on rationals are exact; float comparisons carry the stated
tolerances.
"""

import math
import random
import time
from fractions import Fraction as F

from setavg.catalog import (
    BUILTIN_SVFS,
    PLANE_LIPSCHITZ,
    holder_bound,
    plane_svf,
    run_convergence,
    uniform_grid,
)
from setavg.intervals import (
    contains_ae,
    from_pairs,
    measure,
    sym_diff_distance,
)
from setavg.multivariate import (
    Point2,
    pl_interpolant_svf,
    refinement_sequence,
    triangulate,
)
from setavg.operators import (
    BERNSTEIN_SCHEME,
    PIECEWISE_LINEAR_SCHEME,
    REAL_SPACE,
    IntervalSetSpace,
    SampledSVF,
    bernstein_real,
    bernstein_svf,
    bernstein_weights,
    decasteljau_svf,
    dominance_holds,
    positive_operator,
)
from setavg.partition import (
    CENTROID_OF_UNION,
    average_distance_integral,
    expected_pairwise_distance,
    partition_average,
)
from setavg.raster import raster_average_measure_1d, write_pgm
from test_raster import figure_fixture

from conftest import random_interval_set, random_weights


class report:
    """Prints the one-line verdict even when the body raises."""

    def __init__(self, number):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.number}] {status}")
        return False


def seeded_triples(count, seed=1):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sets = [random_interval_set(rng) for _ in range(3)]
        out.append((sets, random_weights(rng, 3)))
    return out


def step_svf(sets):
    sets = list(sets)

    def evaluate(x):
        idx = min(int(x * len(sets)), len(sets) - 1)
        return sets[idx]

    return SampledSVF(evaluate)


def test_01_measure_linearity():
    with report(1):
        start = time.monotonic()
        for sets, w in seeded_triples(200):
            avg = partition_average(sets, w)
            assert measure(avg) == sum((wi * measure(s) for wi, s in zip(w, sets)), F(0))
        assert time.monotonic() - start < 5.0


def test_02_distance_equality():
    with report(2):
        for sets, w in seeded_triples(200):
            avg = partition_average(sets, w)
            for aj in sets:
                expect = sum((wi * sym_diff_distance(aj, s) for wi, s in zip(w, sets)), F(0))
                assert sym_diff_distance(aj, avg) == expect


def test_03_metric_property():
    with report(3):
        rng = random.Random(3)
        for _ in range(100):
            a, b = random_interval_set(rng), random_interval_set(rng)
            alpha = F(rng.randint(0, 16), 16)
            beta = F(rng.randint(0, 16), 16)
            d = sym_diff_distance(
                partition_average([a, b], [alpha, 1 - alpha]),
                partition_average([a, b], [beta, 1 - beta]),
            )
            assert d == abs(alpha - beta) * sym_diff_distance(a, b)


def test_04_expectation_inequality():
    with report(4):
        rng = random.Random(4)
        for _ in range(100):
            sets = [random_interval_set(rng) for _ in range(rng.randint(2, 4))]
            wa = random_weights(rng, len(sets))
            wb = random_weights(rng, len(sets))
            lhs = sym_diff_distance(
                partition_average(sets, wa), partition_average(sets, wb)
            )
            assert lhs <= expected_pairwise_distance(sets, wa, wb)
            assert lhs == average_distance_integral(sets, wa, wb)


def test_05_measure_transfer():
    with report(5):
        rng = random.Random(5)
        space = IntervalSetSpace(CENTROID_OF_UNION)
        svfs = [BUILTIN_SVFS["split"],
                step_svf([random_interval_set(rng) for _ in range(5)])]
        grid = [F(i, 19) for i in range(20)]
        for G in svfs:
            mu = lambda t: measure(G(t))
            for scheme in (BERNSTEIN_SCHEME, PIECEWISE_LINEAR_SCHEME):
                for n in range(1, 17):
                    for x in grid:
                        lhs = measure(positive_operator(G, scheme, n, x, space))
                        assert lhs == positive_operator(mu, scheme, n, x, REAL_SPACE)


def test_06_decasteljau_distance_identity():
    with report(6):
        rng = random.Random(6)
        for n in range(1, 9):
            sets = [random_interval_set(rng) for _ in range(n + 1)]
            G = step_svf(sets)
            for x in (F(0), F(1, 3), F(1, 2), F(7, 8), F(1)):
                result = decasteljau_svf(G, n, x)
                w = bernstein_weights(n, x)
                for i in range(n + 1):
                    expect = sum(
                        (w[j] * sym_diff_distance(G(F(i, n)), G(F(j, n)))
                         for j in range(n + 1)),
                        F(0),
                    )
                    assert sym_diff_distance(result, G(F(i, n))) == expect


def test_07_holder_rate():
    with report(7):
        start = time.monotonic()
        grid = [F(i, 32) for i in range(33)]
        for name in ("slide", "holder"):
            G = BUILTIN_SVFS[name]
            L, nu = G.holder_constant, G.holder_exponent
            for n in (1, 2, 4, 8, 16, 32, 64, 128):
                for x in grid:
                    err = float(sym_diff_distance(G(x), bernstein_svf(G, n, x)))
                    assert err <= holder_bound(L, nu, n, x) + 1e-9
        assert time.monotonic() - start < 30.0


def test_08_kac_bound():
    with report(8):
        f = lambda t: abs(t - F(1, 2))
        grid = [F(i, 32) for i in range(33)]
        for n in range(1, 129):
            for x in grid:
                err = float(abs(f(x) - bernstein_real(f, n, x)))
                assert err <= math.sqrt(float(x * (1 - x)) / n) + 1e-12


def test_09_convergence_ratio():
    with report(9):
        grid = uniform_grid(9)
        for name in BUILTIN_SVFS:
            rows = run_convergence(name, "bernstein", [8, 128], grid)
            worst = {8: 0.0, 128: 0.0}
            for row in rows:
                worst[row.n] = max(worst[row.n], float(row.error))
            assert worst[128] <= worst[8] / 3


def test_10_monotonicity_preservation():
    with report(10):
        G = BUILTIN_SVFS["grow"]
        grid = [F(i, 32) for i in range(33)]
        for n in range(1, 17):
            prev = None
            for x in grid:
                cur = bernstein_svf(G, n, x)
                if prev is not None:
                    assert contains_ae(cur, prev)
                prev = cur
        # a non-dominant weight pair breaks containment on a nested sequence
        alpha, beta = [F(0), F(0), F(1)], [F(0), F(1), F(0)]
        assert not dominance_holds(alpha, beta)
        sets = [from_pairs([(0, 1)]), from_pairs([(0, 1)]), from_pairs([(0, 2)])]
        assert not contains_ae(
            partition_average(sets, beta), partition_average(sets, alpha)
        )


def test_11_multivariate_rate():
    with report(11):
        L = PLANE_LIPSCHITZ
        base = triangulate([Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(1, 1)])
        queries = [Point2(F(2 * i + 1, 10), F(2 * j + 1, 10))
                   for i in range(5) for j in range(5)]
        prev = None
        for tri in refinement_sequence(base, 4):
            errs = []
            for q in queries:
                err = float(sym_diff_distance(plane_svf(q), pl_interpolant_svf(plane_svf, tri, q)))
                assert err <= 2 * L * float(tri.mesh_diameter) + 1e-9
                errs.append(err)
            if prev is not None:
                assert all(e <= p + 1e-9 for e, p in zip(errs, prev))
            prev = errs


def test_12_oracle_equivalence():
    with report(12):
        rng = random.Random(0)
        h = F(1, 2**12)
        span, den = 8, 4

        def rand_set():
            k = rng.choice([1, 1, 2])
            pts = sorted(rng.sample([F(i, den) for i in range(span * den)], 2 * k))
            return from_pairs([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])

        def rand_weights(n):
            raw = [F(rng.randint(1, 6)) for _ in range(n)]
            total = sum(raw)
            return [x / total for x in raw]

        for _ in range(50):
            n = rng.choice([2, 3])
            sets = [rand_set() for _ in range(n)]
            if all(s.is_empty for s in sets):
                continue
            w = rand_weights(n)
            exact = measure(partition_average(sets, w))
            approx = raster_average_measure_1d(sets, w, F(0), h, span * 2**12)
            assert abs(exact - approx) <= 2 * h


def test_13_pinned_remark_fixtures():
    with report(13):
        a = from_pairs([(0, 6)])
        b = from_pairs([(7, 8)])
        c = from_pairs([(4, 7)])
        flat = partition_average([a, b, c], [F(1, 3)] * 3)
        ab = partition_average([a, b], [F(1, 2), F(1, 2)])
        nested = partition_average([ab, c], [F(2, 3), F(1, 3)])
        assert flat != nested

        x = from_pairs([(0, 1)])
        y = from_pairs([(0, 2)])
        z = from_pairs([(F(1, 2), F(3, 2))])
        half = [F(1, 2), F(1, 2)]
        two = partition_average([x, y], half)
        three = partition_average([x, y, z], half + [F(0)])
        assert two != three
        assert measure(two) == measure(three)


def test_14_raster_figure(tmp_path):
    with report(14):
        rasters, _ = figure_fixture(F(13, 200))
        w = [F(1, 3)] * 3
        from setavg.multivariate import Point2 as P
        from setavg.raster import raster_partition_average

        avg = raster_partition_average(rasters, w, P(F(13, 2), F(13, 2)))
        target = sum((wi * r.measure() for wi, r in zip(w, rasters)), F(0))
        assert abs(avg.measure() - target) <= F(2, 100) * target

        p1, p2 = tmp_path / "fig1.pgm", tmp_path / "fig2.pgm"
        write_pgm(rasters, str(p1))
        write_pgm(rasters, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
