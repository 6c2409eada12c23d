"""Occupancy-grid backend for planar figures.

Cells are occupied when their center lies inside a shape; the grid
partition average mirrors the exact construction with cell counting in
place of measure, rounding half-up so the selected cell count stays
monotone in the coverage value.  Also provides the 1-D rasterization used
as a brute-force oracle for the exact interval pipeline.

Cells are tested and ranked on an integer lattice: the frame u = 2(x - ox)/h,
v = 2(y - oy)/h puts the center of cell (row, col) at (2col+1, 2row+1).  A
shape's data is mapped into it once and scaled by the common denominator L of
its images, so every value is a Python int and the centers are (L(2col+1),
L(2row+1)).  A translation and a positive scaling keep every test and order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .intervals import IntervalSet, as_rational
from .multivariate import Point2, orientation
from .partition import check_weights, group_by_signature


def _cell_size(cell_size) -> Fraction:
    """The one cell-size check: an exact rational h > 0."""
    h = as_rational(cell_size)
    if h <= 0:
        raise ValueError(f"cell size must be positive, got {h}")
    return h


def _lattice(points: Sequence[Point2], ox: Fraction, oy: Fraction, h: Fraction) -> tuple[int, list]:
    """L and the lattice images of the points scaled by their common denominator L."""
    images = [(2 * (p.x - ox) / h, 2 * (p.y - oy) / h) for p in points]
    scale = math.lcm(*(q.denominator for uv in images for q in uv))
    return scale, [tuple(q.numerator * (scale // q.denominator) for q in uv) for uv in images]


@dataclass(frozen=True)
class RasterSet:
    origin: tuple[Fraction, Fraction]
    cell_size: Fraction
    width: int
    height: int
    cells: frozenset[tuple[int, int]]  # (row, col)

    def measure(self) -> Fraction:
        return len(self.cells) * self.cell_size**2

    def same_grid(self, other: "RasterSet") -> bool:
        return (
            self.origin == other.origin
            and self.cell_size == other.cell_size
            and self.width == other.width
            and self.height == other.height
        )


@dataclass(frozen=True)
class Triangle:
    a: Point2
    b: Point2
    c: Point2

    def __post_init__(self):
        if orientation(self.a, self.b, self.c) == 0:
            raise ValueError("triangle has zero area")

    def lattice(self, ox, oy, h) -> tuple[int, tuple[int, ...], Callable]:
        """Scale L, bounding box and test (orientation signs, ccw edges) on the lattice."""
        a, b, c = self.a, self.b, self.c
        scale, vs = _lattice((a, b, c) if orientation(a, b, c) > 0 else (b, a, c), ox, oy, h)
        us, ws = zip(*vs)
        # orientation((x0, y0), (x1, y1), (u, v)) = (y0 - y1)u + (x1 - x0)v + x0 y1 - x1 y0
        edges = [(y0 - y1, x1 - x0, x0 * y1 - x1 * y0)
                 for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])]
        return scale, (min(us), min(ws), max(us), max(ws)), lambda u, v: all(
            p * u + q * v + r >= 0 for p, q, r in edges
        )


@dataclass(frozen=True)
class Rectangle:
    lo: Point2
    hi: Point2

    def __post_init__(self):
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y):
            raise ValueError("rectangle has zero area")

    def lattice(self, ox, oy, h) -> tuple[int, tuple[int, ...], Callable]:
        """Scale L, bounding box and inclusion test (inclusive bounds) on the lattice."""
        scale, ((u0, v0), (u1, v1)) = _lattice((self.lo, self.hi), ox, oy, h)
        return scale, (u0, v0, u1, v1), lambda u, v: u0 <= u <= u1 and v0 <= v <= v1


@dataclass(frozen=True)
class Ellipse:
    center: Point2
    semi_x: Fraction
    semi_y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "semi_x", as_rational(self.semi_x))
        object.__setattr__(self, "semi_y", as_rational(self.semi_y))
        if self.semi_x <= 0 or self.semi_y <= 0:
            raise ValueError("ellipse has zero area")

    def lattice(self, ox, oy, h) -> tuple[int, tuple[int, ...], Callable]:
        """Scale L, bounding box and test du^2 sy^2 + dv^2 sx^2 <= sx^2 sy^2 on the lattice."""
        corner = Point2(self.center.x + self.semi_x, self.center.y + self.semi_y)
        scale, ((cu, cv), (eu, ev)) = _lattice((self.center, corner), ox, oy, h)
        sx2, sy2 = (eu - cu) ** 2, (ev - cv) ** 2
        return scale, (2 * cu - eu, 2 * cv - ev, eu, ev), lambda u, v: (
            (u - cu) ** 2 * sy2 + (v - cv) ** 2 * sx2 <= sx2 * sy2
        )


ShapeSpec = Triangle | Rectangle | Ellipse


class GridMismatchError(ValueError):
    pass


def rasterize(
    shape: ShapeSpec,
    origin: tuple[Fraction, Fraction],
    cell_size: Fraction,
    width: int,
    height: int,
) -> RasterSet:
    """Occupancy grid: a cell is set iff its center lies inside the shape."""
    ox, oy, h = as_rational(origin[0]), as_rational(origin[1]), _cell_size(cell_size)
    scale, (u0, v0, u1, v1), inside = shape.lattice(ox, oy, h)
    if u0 < 0 or v0 < 0 or u1 > 2 * width * scale or v1 > 2 * height * scale:
        raise ValueError("shape exceeds the grid extent")
    # scan the shape's bounding box only; cell k spans [2kL, 2(k+1)L] on each axis
    c0, c1 = max(0, u0 // (2 * scale) - 1), min(width, u1 // (2 * scale) + 2)
    r0, r1 = max(0, v0 // (2 * scale) - 1), min(height, v1 // (2 * scale) + 2)
    cells = set()
    for row in range(r0, r1):
        v = scale * (2 * row + 1)
        cells.update((row, col) for col in range(c0, c1) if inside(scale * (2 * col + 1), v))
    return RasterSet((ox, oy), h, width, height, frozenset(cells))


def _round_half_up(q: Fraction) -> int:
    return int(q + Fraction(1, 2))


def cell_signatures(sets: Sequence[RasterSet]) -> dict[frozenset, frozenset]:
    """Group the cells of the union by the subset of inputs covering them."""
    for s in sets[1:]:
        if not s.same_grid(sets[0]):
            raise GridMismatchError("raster sets live on different grids")
    groups = group_by_signature(s.cells for s in sets)
    return {sig: frozenset(cells) for sig, cells in groups.items()}


def raster_partition_average(
    sets: Sequence[RasterSet], weights: Sequence[Fraction], p: Point2
) -> RasterSet:
    """Grid analogue of the partition average: within each signature group,
    keep the round(t * count) cells closest to p (exact squared distances,
    ties broken row-major)."""
    w = check_weights(weights, len(sets))
    base = sets[0]
    (ox, oy), h = base.origin, base.cell_size
    scale, ((pu, pv),) = _lattice([p], ox, oy, h)

    def dist_key(cell):
        row, col = cell
        return ((scale * (2 * col + 1) - pu) ** 2 + (scale * (2 * row + 1) - pv) ** 2, cell)

    chosen = set()
    for sig, cells in sorted(
        cell_signatures(sets).items(), key=lambda kv: sorted(kv[0])
    ):
        t = sum((w[i] for i in sig), Fraction(0))
        take = _round_half_up(t * len(cells))
        chosen.update(sorted(cells, key=dist_key)[:take])
    return RasterSet(base.origin, h, base.width, base.height, frozenset(chosen))


def raster_centroid(sets: Sequence[RasterSet]) -> Point2:
    """Centroid of the cell centers of the union of raster sets on one grid:
    integer sums of rows and columns, then one exact division per axis."""
    if not sets:
        raise ValueError("raster_centroid needs at least one raster set")
    if any(not s.same_grid(sets[0]) for s in sets):
        raise GridMismatchError("raster sets live on different grids")
    (ox, oy), h = sets[0].origin, sets[0].cell_size
    union = frozenset().union(*(s.cells for s in sets))
    if not union:
        raise ValueError(f"no grid cell has its center inside a shape at --h {h}")
    n = len(union)
    rows = sum(row for row, _ in union)
    cols = sum(col for _, col in union)
    # the center of cell (row, col) is origin + (index + 1/2) * h
    return Point2(ox + Fraction(2 * cols + n, 2 * n) * h, oy + Fraction(2 * rows + n, 2 * n) * h)


def write_pgm(grid: RasterSet | Sequence[RasterSet], path: str) -> None:
    """Binary PGM (P5) rendering: background white, one gray level per
    signature group (or plain black occupancy for a single RasterSet)."""
    if isinstance(grid, RasterSet):
        labels, base = {frozenset([0]): grid.cells}, grid
    elif not grid:
        raise ValueError("write_pgm needs at least one raster set")
    else:
        labels, base = cell_signatures(list(grid)), grid[0]
    ordered = sorted(labels.items(), key=lambda kv: sorted(kv[0]))
    if len(ordered) > 255:
        raise ValueError("too many distinct labels for 8-bit PGM")
    if len(ordered) == 1:
        grays = [0]
    else:
        grays = [round(200 * i / (len(ordered) - 1)) for i in range(len(ordered))]
    image = bytearray([255]) * (base.width * base.height)
    for gray, (_, cells) in zip(grays, ordered):
        for row, col in cells:
            # image rows top-down, grid rows bottom-up
            image[(base.height - 1 - row) * base.width + col] = gray
    with open(path, "wb") as fh:
        fh.write(f"P5\n{base.width} {base.height}\n255\n".encode())
        fh.write(bytes(image))


# -- 1-D oracle --------------------------------------------------------------


def rasterize_1d(a: IntervalSet, lo: Fraction, cell_size: Fraction, n_cells: int) -> frozenset[int]:
    """Cells (on a 1-D grid) whose centers lie inside the interval set."""
    lo, h = as_rational(lo), _cell_size(cell_size)
    cells = set()
    for x0, x1 in a.intervals:
        # x0 <= lo + (i + 1/2)h <= x1  iff  (x0 - lo)/h - 1/2 <= i <= (x1 - lo)/h - 1/2
        first = math.ceil((x0 - lo) / h - Fraction(1, 2))
        last = math.floor((x1 - lo) / h - Fraction(1, 2))
        cells.update(range(max(0, first), min(n_cells, last + 1)))
    return frozenset(cells)


def raster_average_measure_1d(
    sets: Sequence[IntervalSet],
    weights: Sequence[Fraction],
    lo: Fraction,
    cell_size: Fraction,
    n_cells: int,
) -> Fraction:
    """Measure of the grid partition average of 1-D interval sets: the
    brute-force counterpart of the exact partition-average measure."""
    w = check_weights(weights, len(sets))
    h = _cell_size(cell_size)
    groups = group_by_signature(rasterize_1d(s, lo, h, n_cells) for s in sets)
    total_cells = 0
    for sig, cells in groups.items():
        t = sum((w[i] for i in sig), Fraction(0))
        total_cells += _round_half_up(t * len(cells))
    return total_cells * h
