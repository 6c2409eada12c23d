import random
from fractions import Fraction as F

import pytest

from setavg.intervals import canonicalize, measure
from setavg.multivariate import Point2, orientation
from setavg.partition import partition_average
from setavg.raster import (
    Ellipse,
    GridMismatchError,
    RasterSet,
    Rectangle,
    Triangle,
    cell_signatures,
    raster_average_measure_1d,
    raster_centroid,
    raster_partition_average,
    rasterize,
    rasterize_1d,
    write_pgm,
)

from conftest import random_interval_set, random_weights

ORIGIN = (F(0), F(0))


def figure_fixture(h=F(13, 200)):
    """Triangle/rectangle/ellipse on [0,13]^2; all 7 signatures nonempty."""
    shapes = [
        Triangle(Point2(1, 1), Point2(9, 2), Point2(4, 8)),
        Rectangle(Point2(3, 5), Point2(11, 9)),
        Ellipse(Point2(8, 4), F(4), F(2)),
    ]
    n = int(13 / h)
    return [rasterize(s, ORIGIN, h, n, n) for s in shapes], shapes


class TestRasterize:
    def test_unit_square_half_grid(self):
        r = rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), ORIGIN, F(1, 2), 4, 4)
        assert len(r.cells) == 4
        assert r.measure() == 1

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            Ellipse(Point2(1, 1), F(0), F(1))
        with pytest.raises(ValueError):
            Rectangle(Point2(0, 0), Point2(0, 1))
        with pytest.raises(ValueError):
            Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))

    def test_nonpositive_cell_size_rejected(self):
        square = Rectangle(Point2(0, 0), Point2(1, 1))
        unit = canonicalize([(0, 1)])
        for h in (F(0), F(-1, 2), F(-1, 4)):
            with pytest.raises(ValueError, match="cell size must be positive"):
                rasterize(square, ORIGIN, h, 4, 4)
            with pytest.raises(ValueError, match="cell size must be positive"):
                rasterize_1d(unit, F(0), h, 8)
            with pytest.raises(ValueError, match="cell size must be positive"):
                raster_average_measure_1d([unit], [F(1)], F(0), h, 8)

    def test_shape_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            rasterize(Rectangle(Point2(0, 0), Point2(5, 5)), ORIGIN, F(1, 2), 4, 4)

    def test_rectangle_area_error_bounded_by_perimeter(self):
        h = F(1, 8)
        rect = Rectangle(Point2(F(1, 3), F(1, 5)), Point2(F(7, 3), F(9, 5)))
        r = rasterize(rect, ORIGIN, h, 24, 24)
        area = (rect.hi.x - rect.lo.x) * (rect.hi.y - rect.lo.y)
        perimeter = 2 * (rect.hi.x - rect.lo.x) + 2 * (rect.hi.y - rect.lo.y)
        assert abs(r.measure() - area) <= perimeter * h


class TestGridAverage:
    def test_indicator_weight_returns_input(self):
        rasters, _ = figure_fixture(F(13, 50))
        w = [F(0), F(1), F(0)]
        avg = raster_partition_average(rasters, w, Point2(F(13, 2), F(13, 2)))
        assert avg.cells == rasters[1].cells

    def test_equal_sets(self):
        r = rasterize(Rectangle(Point2(1, 1), Point2(3, 2)), ORIGIN, F(1, 4), 16, 16)
        avg = raster_partition_average([r, r], [F(1, 2), F(1, 2)], Point2(2, 2))
        assert avg.cells == r.cells

    def test_grid_mismatch(self):
        a = rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), ORIGIN, F(1, 2), 4, 4)
        b = rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), ORIGIN, F(1, 4), 8, 8)
        with pytest.raises(GridMismatchError):
            raster_partition_average([a, b], [F(1, 2), F(1, 2)], Point2(0, 0))

    def test_measure_linearity_within_rounding(self):
        rasters, _ = figure_fixture(F(13, 100))
        w = [F(1, 3), F(1, 3), F(1, 3)]
        p = Point2(F(13, 2), F(13, 2))
        avg = raster_partition_average(rasters, w, p)
        target = sum((wi * r.measure() for wi, r in zip(w, rasters)), F(0))
        groups = cell_signatures(rasters)
        h = rasters[0].cell_size
        assert abs(avg.measure() - target) <= len(groups) * h * h

    def test_refining_h_shrinks_defect(self):
        defects = []
        for h in (F(13, 50), F(13, 100), F(13, 200)):
            rasters, _ = figure_fixture(h)
            w = [F(1, 3)] * 3
            avg = raster_partition_average(rasters, w, Point2(F(13, 2), F(13, 2)))
            target = sum((wi * r.measure() for wi, r in zip(w, rasters)), F(0))
            defects.append(abs(avg.measure() - target))
        assert defects[2] <= defects[0]

    def test_all_seven_signatures_nonempty(self):
        rasters, _ = figure_fixture()
        assert len(cell_signatures(rasters)) == 7


class TestPGM:
    def test_header_and_size(self, tmp_path):
        rasters, _ = figure_fixture(F(13, 50))
        path = tmp_path / "partition.pgm"
        write_pgm(rasters, str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n50 50\n255\n")
        assert len(data) == len(b"P5\n50 50\n255\n") + 50 * 50

    def test_two_set_partition_gray_levels(self, tmp_path):
        a = rasterize(Rectangle(Point2(0, 0), Point2(2, 2)), ORIGIN, F(1, 2), 8, 8)
        b = rasterize(Rectangle(Point2(1, 1), Point2(3, 3)), ORIGIN, F(1, 2), 8, 8)
        path = tmp_path / "two.pgm"
        write_pgm([a, b], str(path))
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert len(set(pixels)) == 4  # 3 signatures + white background

    def test_empty_set_all_white(self, tmp_path):
        empty = RasterSet(ORIGIN, F(1, 2), 4, 4, frozenset())
        path = tmp_path / "empty.pgm"
        write_pgm(empty, str(path))
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert set(pixels) == {255}

    def test_figure_fixture_seven_grays(self, tmp_path):
        rasters, _ = figure_fixture(F(13, 100))
        path = tmp_path / "figure.pgm"
        write_pgm(rasters, str(path))
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert len(set(pixels)) == 8  # 7 signatures + background

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one raster set"):
            write_pgm([], str(tmp_path / "none.pgm"))

    def test_byte_stable(self, tmp_path):
        rasters, _ = figure_fixture(F(13, 50))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(rasters, str(p1))
        write_pgm(rasters, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestOneDimensionalOracle:
    def test_rasterize_1d_counts(self):
        a = canonicalize([(F(1, 4), F(3, 4))])
        cells = rasterize_1d(a, F(0), F(1, 8), 8)
        assert cells == frozenset({2, 3, 4, 5})

    def test_oracle_matches_exact_average(self, rng):
        h = F(1, 2**10)
        for _ in range(10):
            sets = [random_interval_set(rng, span=8) for _ in range(rng.randint(2, 3))]
            w = random_weights(rng, len(sets))
            u = canonicalize([iv for s in sets for iv in s.intervals])
            if u.is_empty:
                continue
            exact = measure(partition_average(sets, w))
            approx = raster_average_measure_1d(sets, w, F(0), h, 8 * 2**10)
            assert abs(exact - approx) <= 2 * h


# -- per-cell Fraction scans: the pre-lattice code, kept as oracles ----------

# cell sizes with dyadic, ternary and septimal denominators, and an origin
# that is neither zero nor dyadic
CELL_SIZES = (F(13, 80), F(1, 3), F(2, 7))
ODD_ORIGIN = (F(-2, 3), F(5, 7))
SIDE = 24


def center(origin, h, row, col):
    return Point2(origin[0] + (col + F(1, 2)) * h, origin[1] + (row + F(1, 2)) * h)


def fraction_contains(shape, p):
    if isinstance(shape, Triangle):
        a, b, c = shape.a, shape.b, shape.c
        if orientation(a, b, c) < 0:
            a, b = b, a
        return orientation(a, b, p) >= 0 and orientation(b, c, p) >= 0 and orientation(c, a, p) >= 0
    if isinstance(shape, Rectangle):
        return shape.lo.x <= p.x <= shape.hi.x and shape.lo.y <= p.y <= shape.hi.y
    dx, dy = p.x - shape.center.x, p.y - shape.center.y
    return (dx / shape.semi_x) ** 2 + (dy / shape.semi_y) ** 2 <= 1


def scan_rasterize(shape, origin, h, width, height):
    """Every cell of the grid, tested at its Fraction center."""
    return frozenset(
        (row, col)
        for row in range(height)
        for col in range(width)
        if fraction_contains(shape, center(origin, h, row, col))
    )


def scan_rasterize_1d(a, lo, h, n_cells):
    return frozenset(
        i for i in range(n_cells) if any(x0 <= lo + (i + F(1, 2)) * h <= x1 for x0, x1 in a.intervals)
    )


def scan_partition_average(sets, weights, p):
    """Squared distances of Fraction cell centers to p, ties row-major."""
    origin, h = sets[0].origin, sets[0].cell_size

    def key(cell):
        c = center(origin, h, *cell)
        return ((c.x - p.x) ** 2 + (c.y - p.y) ** 2, cell)

    chosen = set()
    for sig, cells in cell_signatures(sets).items():
        take = int(sum(weights[i] for i in sig) * len(cells) + F(1, 2))
        chosen.update(sorted(cells, key=key)[:take])
    return frozenset(chosen)


def boundary_shapes(origin, h):
    """Shapes whose vertices, edges and ellipse boundaries pass exactly
    through cell centers, plus shapes in general position."""

    def c(row, col):
        return center(origin, h, row, col)

    def at(x, y):
        """The point x, y cells (not necessarily whole) away from the origin."""
        return Point2(origin[0] + x * h, origin[1] + y * h)

    return {
        # the hypotenuse runs through the centers (row 5, col 14), (8, 10), (11, 6)
        "triangle-ccw": Triangle(c(2, 2), c(2, 18), c(14, 2)),
        "triangle-cw": Triangle(c(2, 2), c(14, 2), c(2, 18)),
        "triangle-general": Triangle(at(F(6, 5), F(22, 7)), at(F(43, 2), F(9, 11)), at(F(31, 3), F(70, 3))),
        "rectangle-centers": Rectangle(c(3, 4), c(15, 20)),
        "rectangle-general": Rectangle(at(F(10, 9), F(12, 5)), at(F(71, 4), F(103, 6))),
        # the boundary meets the centers 6 and 4 cells off the center on the axes
        "ellipse-centers": Ellipse(c(10, 10), 6 * h, 4 * h),
        # a circle of radius 5 cells meets the centers (3, 4) and (4, 3) cells off
        "circle-centers": Ellipse(c(11, 11), 5 * h, 5 * h),
        "ellipse-general": Ellipse(at(F(61, 5), F(82, 7)), F(21, 2) * h, F(20, 3) * h),
    }


class TestLatticeMatchesFractionScan:
    @pytest.mark.parametrize("h", CELL_SIZES)
    @pytest.mark.parametrize("origin", [ORIGIN, ODD_ORIGIN])
    def test_rasterize(self, h, origin):
        for name, shape in boundary_shapes(origin, h).items():
            cells = rasterize(shape, origin, h, SIDE, SIDE).cells
            assert cells == scan_rasterize(shape, origin, h, SIDE, SIDE), name
            assert cells, name

    def test_boundary_centers_are_inside(self):
        h = F(1, 3)
        shapes = boundary_shapes(ODD_ORIGIN, h)
        on_boundary = {
            "triangle-ccw": [(2, 2), (2, 18), (14, 2), (5, 14), (8, 10), (11, 6)],
            "triangle-cw": [(2, 10), (8, 2), (8, 10)],
            "rectangle-centers": [(3, 4), (15, 20), (3, 12), (9, 20)],
            "ellipse-centers": [(10, 16), (10, 4), (14, 10), (6, 10)],
            "circle-centers": [(14, 15), (15, 14), (7, 8), (11, 16)],
        }
        for name, cells in on_boundary.items():
            r = rasterize(shapes[name], ODD_ORIGIN, h, SIDE, SIDE)
            assert set(cells) <= r.cells, name

    def test_rasterize_1d(self):
        lo = F(-1, 3)
        for h in CELL_SIZES:
            c = [lo + (i + F(1, 2)) * h for i in range(16)]  # the cell centers
            cases = [
                canonicalize([]),
                canonicalize([(c[2], c[5])]),  # both endpoints on centers
                canonicalize([(c[2], c[2] + h / 3), (c[7] - h / 5, c[9])]),
                canonicalize([(lo - 3, c[3])]),  # sticks out on the left
                canonicalize([(c[14], lo + 30 * h)]),  # sticks out on the right
                canonicalize([(lo - 1, lo + 40 * h)]),  # covers the whole grid
                canonicalize([(lo - 2, lo - 1), (lo + 20 * h, lo + 21 * h)]),  # outside
                canonicalize([(c[3] + h / 7, c[4] - h / 7)]),  # between two centers
            ]
            for a in cases:
                assert rasterize_1d(a, lo, h, 16) == scan_rasterize_1d(a, lo, h, 16), (h, a)
        assert rasterize_1d(canonicalize([]), lo, F(1, 3), 16) == frozenset()

    @pytest.mark.parametrize("h", CELL_SIZES)
    def test_partition_average_ties(self, h):
        origin = ODD_ORIGIN
        a = rasterize(Rectangle(center(origin, h, 2, 2), center(origin, h, 18, 18)), origin, h, SIDE, SIDE)
        b = rasterize(Ellipse(center(origin, h, 12, 12), 7 * h, 5 * h), origin, h, SIDE, SIDE)
        points = [
            center(origin, h, 10, 10),  # on a cell center: rings of equidistant cells
            Point2(origin[0] + 9 * h, origin[1] + 7 * h),  # a cell corner: fourfold ties
            Point2(origin[0] + F(31, 10) * h, origin[1] + F(47, 3) * h),
        ]
        for p in points:
            for w in ([F(1, 2), F(1, 2)], [F(1, 7), F(6, 7)], [F(5, 9), F(4, 9)]):
                got = raster_partition_average([a, b], w, p).cells
                assert got == scan_partition_average([a, b], w, p), (p, w)


class TestRasterCentroid:
    def test_matches_fraction_sum(self):
        for h in CELL_SIZES:
            shapes = boundary_shapes(ODD_ORIGIN, h)
            rasters = [
                rasterize(shapes[name], ODD_ORIGIN, h, SIDE, SIDE)
                for name in ("triangle-general", "rectangle-general", "ellipse-general")
            ]
            union = frozenset().union(*(r.cells for r in rasters))
            centers = [center(ODD_ORIGIN, h, row, col) for row, col in union]
            expected = Point2(
                sum((q.x for q in centers), F(0)) / len(union),
                sum((q.y for q in centers), F(0)) / len(union),
            )
            assert raster_centroid(rasters) == expected

    def test_empty_union_rejected(self):
        empty = RasterSet(ORIGIN, F(13, 2), 2, 2, frozenset())
        with pytest.raises(ValueError, match="no grid cell has its center inside a shape at --h 13/2"):
            raster_centroid([empty, empty])
        with pytest.raises(ValueError, match="at least one raster set"):
            raster_centroid([])

    def test_grid_mismatch(self):
        a = rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), ORIGIN, F(1, 2), 4, 4)
        b = rasterize(Rectangle(Point2(0, 0), Point2(1, 1)), ORIGIN, F(1, 4), 8, 8)
        with pytest.raises(GridMismatchError):
            raster_centroid([a, b])
