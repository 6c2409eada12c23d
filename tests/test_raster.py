import random
from fractions import Fraction as F

import pytest

from setavg.intervals import canonicalize, measure
from setavg.multivariate import Point2
from setavg.partition import partition_average
from setavg.raster import (
    Ellipse,
    GridMismatchError,
    RasterSet,
    Rectangle,
    Triangle,
    cell_signatures,
    raster_average_measure_1d,
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
