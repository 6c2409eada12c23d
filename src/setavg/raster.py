"""Occupancy-grid backend for planar figures.

Cells are occupied when their center lies inside a shape; the grid
partition average mirrors the exact construction with cell counting in
place of measure, rounding half-up so the selected cell count stays
monotone in the coverage value.  Also provides the 1-D rasterization used
as a brute-force oracle for the exact interval pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intervals import IntervalSet
from .multivariate import Point2, orientation
from .partition import check_weights, group_by_signature


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

    def contains(self, p: Point2) -> bool:
        a, b, c = self.a, self.b, self.c
        if orientation(a, b, c) < 0:
            a, b = b, a
        return (
            orientation(a, b, p) >= 0
            and orientation(b, c, p) >= 0
            and orientation(c, a, p) >= 0
        )

    def bbox(self):
        xs = (self.a.x, self.b.x, self.c.x)
        ys = (self.a.y, self.b.y, self.c.y)
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True)
class Rectangle:
    lo: Point2
    hi: Point2

    def __post_init__(self):
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y):
            raise ValueError("rectangle has zero area")

    def contains(self, p: Point2) -> bool:
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y

    def bbox(self):
        return self.lo.x, self.lo.y, self.hi.x, self.hi.y


@dataclass(frozen=True)
class Ellipse:
    center: Point2
    semi_x: Fraction
    semi_y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "semi_x", Fraction(self.semi_x))
        object.__setattr__(self, "semi_y", Fraction(self.semi_y))
        if self.semi_x <= 0 or self.semi_y <= 0:
            raise ValueError("ellipse has zero area")

    def contains(self, p: Point2) -> bool:
        dx, dy = p.x - self.center.x, p.y - self.center.y
        return (dx / self.semi_x) ** 2 + (dy / self.semi_y) ** 2 <= 1

    def bbox(self):
        return (
            self.center.x - self.semi_x,
            self.center.y - self.semi_y,
            self.center.x + self.semi_x,
            self.center.y + self.semi_y,
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
    ox, oy = Fraction(origin[0]), Fraction(origin[1])
    h = Fraction(cell_size)
    x0, y0, x1, y1 = shape.bbox()
    if x0 < ox or y0 < oy or x1 > ox + width * h or y1 > oy + height * h:
        raise ValueError("shape exceeds the grid extent")
    # restrict the scan to the shape's bounding box
    c0 = max(0, int((x0 - ox) / h) - 1)
    c1 = min(width, int((x1 - ox) / h) + 2)
    r0 = max(0, int((y0 - oy) / h) - 1)
    r1 = min(height, int((y1 - oy) / h) + 2)
    cells = set()
    for row in range(r0, r1):
        cy = oy + (row + Fraction(1, 2)) * h
        for col in range(c0, c1):
            cx = ox + (col + Fraction(1, 2)) * h
            if shape.contains(Point2(cx, cy)):
                cells.add((row, col))
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
    ox, oy = base.origin
    h = base.cell_size
    chosen = set()
    for sig, cells in sorted(
        cell_signatures(sets).items(), key=lambda kv: sorted(kv[0])
    ):
        t = sum((w[i] for i in sig), Fraction(0))
        take = _round_half_up(t * len(cells))

        def dist_key(cell):
            row, col = cell
            cx = ox + (col + Fraction(1, 2)) * h
            cy = oy + (row + Fraction(1, 2)) * h
            return ((cx - p.x) ** 2 + (cy - p.y) ** 2, row, col)

        chosen.update(sorted(cells, key=dist_key)[:take])
    return RasterSet(base.origin, h, base.width, base.height, frozenset(chosen))


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
    lo, h = Fraction(lo), Fraction(cell_size)
    cells = set()
    for x0, x1 in a.intervals:
        first = int((x0 - lo) / h) - 1
        last = int((x1 - lo) / h) + 1
        for i in range(max(0, first), min(n_cells, last + 1)):
            c = lo + (i + Fraction(1, 2)) * h
            if x0 <= c <= x1:
                cells.add(i)
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
    h = Fraction(cell_size)
    groups = group_by_signature(rasterize_1d(s, lo, h, n_cells) for s in sets)
    total_cells = 0
    for sig, cells in groups.items():
        t = sum((w[i] for i in sig), Fraction(0))
        total_cells += _round_half_up(t * len(cells))
    return total_cells * h
