"""The three benchmark workloads: op generation, the op itself, its exact
output check and the bytes it contributes to the output digest.

An op is the sequence of setavg library calls one user request makes.  A
run walks the seed's op sequence block by block.  Each block is balanced
over the sizes and the built-in SVFs, so a run that stops after any whole
block has the same op mix whatever the program's speed.  The seed picks
the points, weights and shape moves, never the sizes, so runs of different
seeds cost alike.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

from setavg import catalog, intervals, multivariate, operators, raster

SVFS = ("grow", "slide", "split", "holder")
# numerators of the seeded points k/64: odd, so every point stays at
# denominator 64 and its cost does not depend on which k the seed draws
ODD_64THS = range(1, 64, 2)


def block_rng(name: str, seed: int, block: int) -> random.Random:
    """Independent stream per (workload, seed, block): a block's inputs do
    not depend on how many blocks came before it."""
    return random.Random(f"{name}/{seed}/{block}")


def bernstein_measure(svf: str, n: int, x: Fraction) -> Fraction:
    """sum_i w_i mu(F(i/n)) with the Bernstein weights: the measure every
    Bernstein result must have (measure linearity)."""
    F = catalog.BUILTIN_SVFS[svf]
    weights = operators.bernstein_weights(n, x)
    return sum(
        (w * intervals.measure(F(Fraction(i, n))) for i, w in enumerate(weights)),
        Fraction(0),
    )


def row_text(row) -> str:
    return f"{row.operator},{row.n},{row.x},{row.error},{row.measure}"


def set_text(s) -> str:
    return ";".join(f"{a},{b}" for a, b in s.intervals)


@dataclass(frozen=True)
class ConvergenceOp:
    svf: str
    n: int
    grid: tuple[Fraction, ...]


class BernsteinSweep:
    """One op is one `setavg converge` block: run_convergence(svf,
    "bernstein", [n], grid) with grid = 0, 1 and seven seeded odd k/64.
    The nine points share one sample set.  Every block holds the same 17
    (svf, n) pairs: n log-spaced from 8 to 128, where the weights carry
    64^n denominators, and the SVF cycling with n.  So a run of any
    length and seed has the same mix, and the seed moves only the grids
    and the order; odd k keeps every grid point at denominator 64, so its
    cost does not depend on the draw.  The number of pairs is odd so that
    the median op is the middle pair's, not a point between two pairs
    whose costs differ by a step."""

    name = "bernstein-sweep"
    prefix_blocks = 1

    def __init__(self, seed: int, small: bool, outdir: str):
        self.seed = seed
        lo, hi, count = (2, 8, 3) if small else (8, 128, 17)
        self.sizes = [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]

    def block(self, b: int) -> list[ConvergenceOp]:
        rng = block_rng(self.name, self.seed, b)
        ops = []
        for k, n in enumerate(self.sizes):
            grid = (Fraction(0), Fraction(1)) + tuple(
                Fraction(g, 64) for g in rng.sample(ODD_64THS, 7)
            )
            ops.append(ConvergenceOp(SVFS[k % len(SVFS)], n, grid))
        rng.shuffle(ops)
        return ops

    def run(self, op: ConvergenceOp):
        return catalog.run_convergence(op.svf, "bernstein", [op.n], op.grid)

    def check(self, op: ConvergenceOp, rows) -> bool:
        F = catalog.BUILTIN_SVFS[op.svf]
        if [(r.n, r.x) for r in rows] != [(op.n, x) for x in sorted(op.grid)]:
            return False
        for r in rows:
            if r.measure != bernstein_measure(op.svf, op.n, r.x):
                return False
            bound = catalog.holder_bound(F.holder_constant, F.holder_exponent, op.n, r.x)
            if not float(r.error) <= bound + 1e-9:
                return False
        return True

    def digest_text(self, op: ConvergenceOp, rows) -> str:
        return f"{op.svf}\n" + "\n".join(row_text(r) for r in rows)


@dataclass(frozen=True)
class MultivarOp:
    points: tuple
    query: object


class MultivarTable:
    """One op is one `setavg multivar` table: triangulate the unit square's
    corners plus four seeded points with odd k/16 coordinates, refine three
    times, and at every level evaluate the planar interpolant at one seeded
    query with odd k/32 coordinates, and its error.  Odd numerators keep
    every coordinate at one denominator whatever the draw.  Every refined vertex is a sample, so the partition sees
    hundreds of sets, all but three at weight zero."""

    name = "multivar-table"
    prefix_blocks = 2
    block_size = 4

    def __init__(self, seed: int, small: bool, outdir: str):
        self.seed = seed
        self.levels = 1 if small else 3

    def block(self, b: int) -> list[MultivarOp]:
        rng = block_rng(self.name, self.seed, b)
        Point2 = multivariate.Point2
        ops = []
        for _ in range(self.block_size):
            inner = rng.sample([(i, j) for i in range(1, 16, 2) for j in range(1, 16, 2)], 4)
            corners = [Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(1, 1)]
            points = tuple(corners + [Point2(Fraction(i, 16), Fraction(j, 16)) for i, j in inner])
            query = Point2(Fraction(rng.randrange(1, 32, 2), 32), Fraction(rng.randrange(1, 32, 2), 32))
            ops.append(MultivarOp(points, query))
        return ops

    def run(self, op: MultivarOp):
        F = catalog.plane_svf
        base = multivariate.triangulate(op.points)
        table = []
        for tri in multivariate.refinement_sequence(base, self.levels):
            approx = multivariate.pl_interpolant_svf(F, tri, op.query)
            table.append((tri, approx, intervals.sym_diff_distance(F(op.query), approx)))
        return table

    def check(self, op: MultivarOp, table) -> bool:
        if len(table) != self.levels + 1:
            return False
        F = catalog.plane_svf
        for tri, approx, error in table:
            weights = multivariate.barycentric_weights(tri, op.query)
            expected = sum(
                (w * intervals.measure(F(p)) for w, p in zip(weights, tri.points) if w),
                Fraction(0),
            )
            if intervals.measure(approx) != expected:
                return False
            if error != intervals.sym_diff_distance(F(op.query), approx):
                return False
            if not float(error) <= 2 * catalog.PLANE_LIPSCHITZ * float(tri.mesh_diameter) + 1e-9:
                return False
        return True

    def digest_text(self, op: MultivarOp, table) -> str:
        return "\n".join(
            f"{tri.mesh_diameter},{len(tri.points)},{len(tri.triangles)},{set_text(approx)},{error}"
            for tri, approx, error in table
        )


@dataclass(frozen=True)
class RasterOp:
    shapes: tuple
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class RasterResult:
    rasters: tuple
    average: object
    partition_pgm: str
    average_pgm: str


class RasterFigure:
    """One op renders the triangle/rectangle/ellipse figure on an 80 x 80
    grid (h = 13/80) with every vertex or centre moved by a seeded multiple
    of 1/8: rasterize, grid-average around the union's cell centroid with
    seeded positive weights, and write the partition and average PGMs.
    It never touches the partition layer, so it is the control workload."""

    name = "raster-figure"
    prefix_blocks = 2
    block_size = 4
    extent = Fraction(13)

    def __init__(self, seed: int, small: bool, outdir: str):
        self.seed = seed
        self.cells = 20 if small else 80
        self.h = self.extent / self.cells
        self.partition_pgm = os.path.join(outdir, "partition.pgm")
        self.average_pgm = os.path.join(outdir, "average.pgm")

    def block(self, b: int) -> list[RasterOp]:
        rng = block_rng(self.name, self.seed, b)
        Point2 = multivariate.Point2

        def moved(x, y):
            return Point2(x + Fraction(rng.randint(-4, 4), 8), y + Fraction(rng.randint(-4, 4), 8))

        ops = []
        for _ in range(self.block_size):
            shapes = (
                raster.Triangle(moved(1, 1), moved(9, 2), moved(4, 8)),
                raster.Rectangle(moved(3, 5), moved(11, 9)),
                raster.Ellipse(moved(8, 4), Fraction(4), Fraction(2)),
            )
            raw = [rng.randint(1, 6) for _ in shapes]
            ops.append(RasterOp(shapes, tuple(Fraction(r, sum(raw)) for r in raw)))
        return ops

    def run(self, op: RasterOp) -> RasterResult:
        origin, h = (Fraction(0), Fraction(0)), self.h
        rasters = tuple(raster.rasterize(s, origin, h, self.cells, self.cells) for s in op.shapes)
        union = frozenset().union(*(r.cells for r in rasters))
        half = Fraction(1, 2)
        cx = sum(((col + half) * h for _, col in union), Fraction(0)) / len(union)
        cy = sum(((row + half) * h for row, _ in union), Fraction(0)) / len(union)
        average = raster.raster_partition_average(rasters, op.weights, multivariate.Point2(cx, cy))
        raster.write_pgm(list(rasters), self.partition_pgm)
        raster.write_pgm(average, self.average_pgm)
        return RasterResult(rasters, average, self.partition_pgm, self.average_pgm)

    def check(self, op: RasterOp, result: RasterResult) -> bool:
        union = set().union(*(r.cells for r in result.rasters))
        groups = {tuple(i for i, r in enumerate(result.rasters) if c in r.cells) for c in union}
        target = sum((w * r.measure() for w, r in zip(op.weights, result.rasters)), Fraction(0))
        cell_area = self.h * self.h
        if not abs(result.average.measure() - target) <= len(groups) * cell_area / 2:
            return False
        header = f"P5\n{self.cells} {self.cells}\n255\n".encode()
        for path in (result.partition_pgm, result.average_pgm):
            with open(path, "rb") as fh:
                data = fh.read()
            if not (data.startswith(header) and len(data) == len(header) + self.cells**2):
                return False
        return True

    def digest_text(self, op: RasterOp, result: RasterResult) -> str:
        parts = [str(result.average.measure())]
        for path in (result.partition_pgm, result.average_pgm):
            with open(path, "rb") as fh:
                parts.append(fh.read().hex())
        return "\n".join(parts)


WORKLOADS = {
    w.name: w for w in (BernsteinSweep, MultivarTable, RasterFigure)
}
