"""Command-line front end.

Subcommands: average, bernstein, decasteljau, operator, multivar, raster,
converge, monotone.  Rationals print as 12-significant-digit decimals;
pass --exact for p/q output.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import click

from . import catalog
from .intervals import IntervalSet, format_set_literal, measure, parse_set_literal, sym_diff_distance
from .multivariate import (
    Point2,
    pl_interpolant_svf,
    refinement_sequence,
    triangulate,
)
from .operators import (
    SCHEMES,
    IntervalSetSpace,
    bernstein_svf,
    decasteljau_naive,
    decasteljau_svf,
    positive_operator,
    uniform_nodes,
)
from .partition import (
    AverageConfig, CENTROID_OF_UNION, PER_ELEMENT_CENTROID, fixed_point, partition_average,
)
from .raster import (
    Ellipse,
    Rectangle,
    Triangle,
    raster_centroid,
    raster_partition_average,
    rasterize,
    write_pgm,
)


def parse_ref_point(text: str) -> AverageConfig:
    if text == "centroid":
        return CENTROID_OF_UNION
    if text == "per-element":
        return PER_ELEMENT_CENTROID
    return fixed_point(Fraction(text))


def parse_weights(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _fmt(q, exact: bool) -> str:
    return str(q) if exact else f"{float(q):.12g}"


class _Main(click.Group):
    """Reports the library's input errors as usage errors: exit code 2 and
    a one-line message instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, TypeError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group(cls=_Main)
@click.option("--ref-point", default="centroid", show_default=True,
              help="centroid | per-element | a rational fixed point")
@click.option("--exact", is_flag=True, help="print rationals as p/q")
@click.pass_context
def main(ctx, ref_point, exact):
    """Exact partition averages of interval sets and set-valued operators."""
    ctx.ensure_object(dict)
    ctx.obj["cfg"] = parse_ref_point(ref_point)
    ctx.obj["exact"] = exact


@main.command()
@click.option("--sets", "sets_file", required=True, type=click.Path(exists=True),
              help="JSON file: list of set literals")
@click.option("--weights", required=True, help="comma-separated rationals summing to 1")
@click.pass_context
def average(ctx, sets_file, weights):
    """Partition average of interval sets."""
    with open(sets_file) as fh:
        raw = json.load(fh)
    sets = [parse_set_literal(json.dumps(entry)) for entry in raw]
    w = parse_weights(weights)
    result = partition_average(sets, w, ctx.obj["cfg"])
    click.echo(format_set_literal(result))
    click.echo(f"measure: {_fmt(measure(result), ctx.obj['exact'])}")


def _svf_command_output(ctx, F, n, result):
    exact = ctx.obj["exact"]
    click.echo(format_set_literal(result))
    click.echo(f"measure: {_fmt(measure(result), exact)}")
    for node in uniform_nodes(n):
        d = sym_diff_distance(F(node), result)
        click.echo(f"d(F({node}), result) = {_fmt(d, exact)}")


@main.command()
@click.option("--svf", required=True, type=click.Choice(sorted(catalog.BUILTIN_SVFS)))
@click.option("--n", required=True, type=int)
@click.option("--x", required=True, help="rational in [0, 1]")
@click.pass_context
def bernstein(ctx, svf, n, x):
    """Set-valued Bernstein operator at a point."""
    F = catalog.BUILTIN_SVFS[svf]
    result = bernstein_svf(F, n, Fraction(x), ctx.obj["cfg"])
    _svf_command_output(ctx, F, n, result)


@main.command()
@click.option("--svf", required=True, type=click.Choice(sorted(catalog.BUILTIN_SVFS)))
@click.option("--n", required=True, type=int)
@click.option("--x", required=True, help="rational in [0, 1]")
@click.option("--naive", is_flag=True, help="plain binary averages (non-convergent demo)")
@click.pass_context
def decasteljau(ctx, svf, n, x, naive):
    """Set-valued de Casteljau operator at a point."""
    F = catalog.BUILTIN_SVFS[svf]
    op = decasteljau_naive if naive else decasteljau_svf
    result = op(F, n, Fraction(x), ctx.obj["cfg"])
    _svf_command_output(ctx, F, n, result)


@main.command()
@click.option("--svf", required=True, type=click.Choice(sorted(catalog.BUILTIN_SVFS)))
@click.option("--scheme", required=True, type=click.Choice(sorted(SCHEMES)))
@click.option("--n", required=True, type=int)
@click.option("--x", required=True, help="rational in [0, 1]")
@click.pass_context
def operator(ctx, svf, scheme, n, x):
    """Generic positive sample-based operator at a point."""
    F = catalog.BUILTIN_SVFS[svf]
    space = IntervalSetSpace(ctx.obj["cfg"])
    result = positive_operator(F, SCHEMES[scheme], n, Fraction(x), space)
    _svf_command_output(ctx, F, n, result)


@main.command()
@click.option("--points", "points_file", required=True, type=click.Path(exists=True),
              help="JSON file: list of rational [x, y] pairs")
@click.option("--levels", default=3, show_default=True, type=int)
@click.option("--svf", default="plane", type=click.Choice(["plane"]), show_default=True)
@click.option("--query", required=True, help="rational pair x,y")
@click.pass_context
def multivar(ctx, points_file, levels, svf, query):
    """Piecewise-linear set-valued interpolant over refined triangulations."""
    with open(points_file) as fh:
        raw = json.load(fh)
    points = [Point2(Fraction(str(a)), Fraction(str(b))) for a, b in raw]
    qx, qy = (Fraction(part) for part in query.split(","))
    q = Point2(qx, qy)
    F = catalog.plane_svf
    L = catalog.PLANE_LIPSCHITZ
    sequence = refinement_sequence(triangulate(points), levels)
    click.echo("level,Delta,query_x,query_y,error,bound")
    for level, tri in enumerate(sequence):
        approx = pl_interpolant_svf(F, tri, q, ctx.obj["cfg"])
        err = sym_diff_distance(F(q), approx)
        bound = 2.0 * L * float(tri.mesh_diameter)
        exact = ctx.obj["exact"]
        click.echo(
            f"{level},{_fmt(tri.mesh_diameter, exact)},{_fmt(qx, exact)},"
            f"{_fmt(qy, exact)},{_fmt(err, exact)},{bound:.12g}"
        )


def _parse_shape(entry: dict):
    kind = entry["type"]
    if kind == "triangle":
        a, b, c = (Point2(Fraction(str(x)), Fraction(str(y))) for x, y in entry["points"])
        return Triangle(a, b, c)
    if kind == "rectangle":
        lo, hi = (Point2(Fraction(str(x)), Fraction(str(y))) for x, y in entry["corners"])
        return Rectangle(lo, hi)
    if kind == "ellipse":
        cx, cy = entry["center"]
        ax, ay = entry["semi_axes"]
        return Ellipse(Point2(Fraction(str(cx)), Fraction(str(cy))),
                       Fraction(str(ax)), Fraction(str(ay)))
    raise ValueError(f"unknown shape type: {kind!r}")


@main.command()
@click.option("--shapes", "shapes_file", required=True, type=click.Path(exists=True))
@click.option("--weights", required=True, help="comma-separated rationals summing to 1")
@click.option("--h", "cell_size", required=True, help="rational cell size")
@click.option("--grid", default="0,0,13,13", show_default=True,
              help="rational bounding box x0,y0,x1,y1")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="output PGM; a name containing 'partition' renders the "
                   "partition, anything else the average")
@click.pass_context
def raster(ctx, shapes_file, weights, cell_size, grid, out_path):
    """Rasterize planar shapes; write the partition or average as PGM."""
    with open(shapes_file) as fh:
        raw = json.load(fh)
    try:
        shapes = [_parse_shape(entry) for entry in raw]
    except KeyError as exc:
        raise ValueError(f"a shape entry lacks the key {exc}") from exc
    w = parse_weights(weights)
    h = Fraction(cell_size)
    if h <= 0:
        raise ValueError(f"--h must be positive, got {h}")
    x0, y0, x1, y1 = (Fraction(part) for part in grid.split(","))
    width = int((x1 - x0) / h)
    height = int((y1 - y0) / h)
    rasters = [rasterize(s, (x0, y0), h, width, height) for s in shapes]
    if "partition" in os.path.basename(out_path):
        write_pgm(rasters, out_path)
    else:
        avg = raster_partition_average(rasters, w, raster_centroid(rasters))
        write_pgm(avg, out_path)
        click.echo(f"measure: {_fmt(avg.measure(), ctx.obj['exact'])}")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--svf", required=True, type=click.Choice(sorted(catalog.BUILTIN_SVFS)))
@click.option("--operator", "op_name", default="bernstein", show_default=True,
              type=click.Choice(sorted(catalog.SVF_OPERATORS)))
@click.option("--n-list", default="1,2,4,8,16", show_default=True)
@click.option("--grid-points", default=9, show_default=True, type=int)
@click.pass_context
def converge(ctx, svf, op_name, n_list, grid_points):
    """Convergence experiment; emits CSV rows sorted by (n, x)."""
    ns = [int(part) for part in n_list.split(",")]
    grid = catalog.uniform_grid(grid_points)
    rows = catalog.run_convergence(svf, op_name, ns, grid, ctx.obj["cfg"])
    click.echo(catalog.rows_to_csv(rows, exact=ctx.obj["exact"]), nl=False)


@main.command()
@click.option("--svf", default="grow", show_default=True,
              type=click.Choice(sorted(catalog.BUILTIN_SVFS)))
@click.option("--scheme", default="bernstein", show_default=True,
              type=click.Choice(sorted(SCHEMES)))
@click.option("--n", default=4, show_default=True, type=int)
@click.option("--grid-points", default=9, show_default=True, type=int)
@click.pass_context
def monotone(ctx, svf, scheme, n, grid_points):
    """Monotonicity-preservation check along a uniform grid."""
    grid = catalog.uniform_grid(grid_points)
    report = catalog.run_monotone_check(svf, scheme, n, grid, ctx.obj["cfg"])
    click.echo(f"dominance: {'ok' if report.dominance_ok else 'violated'}")
    click.echo(f"speed identity: {'ok' if report.speed_identity_ok else 'violated'}")
    if report.containment_violations:
        for a, b in report.containment_violations:
            click.echo(f"containment violated between x={a} and x={b}")
    else:
        click.echo("containment chain: ok")
    ctx.exit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
