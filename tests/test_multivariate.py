import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from setavg.catalog import plane_svf
from setavg.intervals import from_pairs, measure, sym_diff_distance
from setavg.multivariate import (
    DegenerateInputError,
    OutsideDomainError,
    Point2,
    barycentric_weights,
    circumdiameter_bound,
    locate_triangle,
    orientation,
    pl_interpolant_svf,
    pl_interpolant_zero_stripped,
    refine,
    refinement_sequence,
    triangulate,
    validate_triangulation,
)

UNIT_SQUARE = [Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(1, 1)]
RIGHT_TRIANGLE = [Point2(0, 0), Point2(1, 0), Point2(0, 1)]


class TestTriangulate:
    def test_three_points(self):
        t = triangulate(RIGHT_TRIANGLE)
        assert len(t.triangles) == 1
        validate_triangulation(t)

    def test_square(self):
        t = triangulate(UNIT_SQUARE)
        assert len(t.triangles) == 2
        validate_triangulation(t)

    def test_square_with_center_fans(self):
        t = triangulate(UNIT_SQUARE + [Point2(F(1, 2), F(1, 2))])
        assert len(t.triangles) == 4
        assert all(4 in tri for tri in t.triangles)
        validate_triangulation(t)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            triangulate([Point2(0, 0), Point2(1, 1)])
        with pytest.raises(DegenerateInputError):
            triangulate([Point2(0, 0), Point2(1, 1), Point2(2, 2)])
        with pytest.raises(DegenerateInputError):
            triangulate([Point2(0, 0), Point2(0, 0), Point2(1, 0), Point2(0, 1)])

    def test_mesh_diameter_bounds_circumdiameters(self):
        t = triangulate(UNIT_SQUARE + [Point2(F(1, 3), F(2, 3))])
        for i, j, k in t.triangles:
            assert circumdiameter_bound(t.points[i], t.points[j], t.points[k]) <= t.mesh_diameter

    def test_corrupted_triangulation_rejected(self):
        t = triangulate(UNIT_SQUARE + [Point2(F(1, 3), F(2, 3))])
        corrupted = {
            "diameter bound violated": replace(t, mesh_diameter=t.mesh_diameter / 2),
            "vertex index out of range": replace(t, triangles=t.triangles + ((0, 1, 9),)),
            "do not tile": replace(t, triangles=t.triangles[1:]),
        }
        for message, bad in corrupted.items():
            with pytest.raises(ValueError, match=message):
                validate_triangulation(bad)

    def test_irregular_cloud(self):
        pts = [Point2(0, 0), Point2(4, 0), Point2(5, 3), Point2(2, 5),
               Point2(F(1, 2), 2), Point2(3, 2), Point2(1, 4)]
        t = triangulate(pts)
        validate_triangulation(t)


class TestRefine:
    def test_single_triangle(self):
        t = triangulate(RIGHT_TRIANGLE)
        r = refine(t)
        assert len(r.triangles) == 4
        assert r.mesh_diameter == t.mesh_diameter / 2
        validate_triangulation(r)

    def test_square_subdivision(self):
        t = triangulate(UNIT_SQUARE)
        r = refine(t)
        assert len(r.triangles) == 8
        validate_triangulation(r)

    def test_nested_point_sets(self):
        seq = refinement_sequence(triangulate(UNIT_SQUARE), 3)
        for coarse, fine in zip(seq, seq[1:]):
            assert set(coarse.points) <= set(fine.points)
            assert fine.mesh_diameter == coarse.mesh_diameter / 2

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            refinement_sequence(triangulate(UNIT_SQUARE), -1)

    @pytest.mark.parametrize("levels", [True, 1.0, F(1)], ids=["bool", "float", "fraction"])
    def test_levels_must_be_an_int(self, levels):
        with pytest.raises(TypeError, match="levels must be an int"):
            refinement_sequence(triangulate(UNIT_SQUARE), levels)

    def test_point_count_is_old_plus_edges(self):
        t = triangulate(UNIT_SQUARE)
        edges = {tuple(sorted(e)) for i, j, k in t.triangles
                 for e in ((i, j), (j, k), (k, i))}
        assert len(refine(t).points) == len(t.points) + len(edges)


class TestBarycentric:
    def test_centroid_symmetry(self):
        t = triangulate(RIGHT_TRIANGLE)
        w = barycentric_weights(t, Point2(F(1, 3), F(1, 3)))
        assert sorted(w) == [F(1, 3)] * 3

    def test_vertex_indicator(self):
        t = triangulate(UNIT_SQUARE)
        w = barycentric_weights(t, Point2(1, 0))
        assert sum(w) == 1 and max(w) == 1

    def test_edge_midpoint(self):
        t = triangulate(RIGHT_TRIANGLE)
        w = barycentric_weights(t, Point2(F(1, 2), 0))
        assert sorted(w) == [0, F(1, 2), F(1, 2)]

    def test_outside_domain(self):
        t = triangulate(RIGHT_TRIANGLE)
        with pytest.raises(OutsideDomainError):
            barycentric_weights(t, Point2(2, 2))

    def test_weights_sum_to_one(self):
        t = triangulate(UNIT_SQUARE + [Point2(F(1, 2), F(1, 2))])
        for q in (Point2(F(1, 5), F(1, 7)), Point2(F(3, 4), F(2, 3))):
            assert sum(barycentric_weights(t, q)) == 1


class TestInterpolant:
    def test_interpolates_at_data_points(self):
        t = triangulate(UNIT_SQUARE)
        for p in t.points:
            assert pl_interpolant_svf(plane_svf, t, p) == plane_svf(p)
            assert pl_interpolant_zero_stripped(plane_svf, t, p) == plane_svf(p)

    def test_constant_svf(self):
        a = from_pairs([(0, 1), (2, 3)])
        t = triangulate(UNIT_SQUARE)
        assert pl_interpolant_svf(lambda p: a, t, Point2(F(1, 3), F(1, 4))) == a

    def test_single_triangle_measure(self):
        t = triangulate(RIGHT_TRIANGLE)
        values = {
            t.points[0]: from_pairs([(0, 1)]),
            t.points[1]: from_pairs([(0, 1)]),
            t.points[2]: from_pairs([(0, 3)]),
        }
        centroid = Point2(F(1, 3), F(1, 3))
        got = pl_interpolant_svf(lambda p: values[p], t, centroid)
        assert measure(got) == F(5, 3)

    def test_measure_transfer(self):
        t = refine(triangulate(UNIT_SQUARE))
        for q in (Point2(F(1, 7), F(2, 7)), Point2(F(5, 8), F(1, 3))):
            got = pl_interpolant_svf(plane_svf, t, q)
            w = barycentric_weights(t, q)
            expect = sum(
                (wi * measure(plane_svf(p)) for wi, p in zip(w, t.points)), F(0)
            )
            assert measure(got) == expect

    def test_zero_stripped_differs_from_full(self):
        # four data points, query interior to one triangle: the far sample
        # still shapes the full interpolant's partition
        values = {
            Point2(0, 0): from_pairs([(0, 2)]),
            Point2(1, 0): from_pairs([(1, 3)]),
            Point2(0, 1): from_pairs([(0, 1), (4, 5)]),
            Point2(1, 1): from_pairs([(0, 4)]),
        }
        t = triangulate(list(values))
        q = Point2(F(1, 8), F(1, 8))
        full = pl_interpolant_svf(lambda p: values[p], t, q)
        stripped = pl_interpolant_zero_stripped(lambda p: values[p], t, q)
        assert full != stripped
        assert measure(full) == measure(stripped)

    def test_single_triangle_stripped_equals_full(self):
        t = triangulate(RIGHT_TRIANGLE)
        q = Point2(F(1, 4), F(1, 4))
        assert pl_interpolant_svf(plane_svf, t, q) == \
            pl_interpolant_zero_stripped(plane_svf, t, q)

    def test_error_bound_decays_with_refinement(self):
        L = 2.0**0.5
        seq = refinement_sequence(triangulate(UNIT_SQUARE), 3)
        q = Point2(F(3, 10), F(7, 10))
        prev = None
        for tri in seq:
            err = float(sym_diff_distance(plane_svf(q), pl_interpolant_svf(plane_svf, tri, q)))
            assert err <= 2 * L * float(tri.mesh_diameter) + 1e-9
            if prev is not None:
                assert err <= prev + 1e-9
            prev = err


# Oracles: the Fraction orientation scan and the value-indexed midpoint
# refinement that locate_triangle and refine replaced.


def scan_locate(t, p):
    for ti, (i, j, k) in enumerate(t.triangles):
        a, b, c = t.points[i], t.points[j], t.points[k]
        if orientation(a, b, c) < 0:
            a, b = b, a
        if orientation(a, b, p) >= 0 and orientation(b, c, p) >= 0 and orientation(c, a, p) >= 0:
            return ti
    return None


def value_indexed_refine(t):
    points = list(t.points)
    index = {p: i for i, p in enumerate(points)}

    def midpoint(i, j):
        p = Point2((points[i].x + points[j].x) / 2, (points[i].y + points[j].y) / 2)
        if p not in index:
            index[p] = len(points)
            points.append(p)
        return index[p]

    new_triangles = []
    for i, j, k in t.triangles:
        ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
        new_triangles.extend([(i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki)])
    new_sorted = tuple(sorted(tuple(sorted(tr)) for tr in new_triangles))
    return replace(t, points=tuple(points), triangles=new_sorted, mesh_diameter=t.mesh_diameter / 2)


def random_triangulation(rng):
    """Delaunay triangulation of 3-9 distinct points on a coarse rational
    grid, so collinear and cocircular subsets are common."""
    while True:
        den = rng.choice([1, 2, 3, 4])
        cells = [(i, j) for i in range(-2, 9) for j in range(-2, 9)]
        pts = [Point2(F(i, den), F(j, den)) for i, j in rng.sample(cells, rng.randint(3, 9))]
        try:
            return triangulate(pts)
        except DegenerateInputError:
            continue


def location_queries(rng, t):
    """Vertices, edge midpoints, points a third along each edge, and random
    points in and around the bounding box."""
    edges = {tuple(sorted(e)) for i, j, k in t.triangles for e in ((i, j), (j, k), (k, i))}
    queries = list(t.points)
    for i, j in edges:
        a, b = t.points[i], t.points[j]
        queries.append(Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
        queries.append(Point2((2 * a.x + b.x) / 3, (2 * a.y + b.y) / 3))
    xs, ys = [p.x for p in t.points], [p.y for p in t.points]
    for _ in range(20):
        queries.append(Point2(
            min(xs) - 1 + (max(xs) - min(xs) + 2) * F(rng.randint(0, 97), 97),
            min(ys) - 1 + (max(ys) - min(ys) + 2) * F(rng.randint(0, 89), 89),
        ))
    return queries


@pytest.mark.parametrize("seed", range(4))
def test_locate_triangle_matches_fraction_scan(seed):
    rng = random.Random(seed)
    for _ in range(8):
        base = random_triangulation(rng)
        for t in (base, refine(base)):
            for q in location_queries(rng, t):
                expected = scan_locate(t, q)
                if expected is None:
                    with pytest.raises(OutsideDomainError):
                        locate_triangle(t, q)
                else:
                    assert locate_triangle(t, q) == expected


def test_locate_triangle_on_shared_edge_takes_lowest_index():
    t = triangulate(UNIT_SQUARE)
    centre = Point2(F(1, 2), F(1, 2))  # on the diagonal both triangles share
    owners = [ti for ti in range(len(t.triangles)) if scan_locate(
        replace(t, triangles=t.triangles[ti:ti + 1]), centre) is not None]
    assert owners == [0, 1]
    assert locate_triangle(t, centre) == 0


@pytest.mark.parametrize("seed", range(4))
def test_refine_matches_value_indexed_refine(seed):
    rng = random.Random(50 + seed)
    for _ in range(6):
        t = random_triangulation(rng)
        for _ in range(2):
            expected = value_indexed_refine(t)
            t = refine(t)
            assert t == expected
