"""Triangulations of planar point sets and the piecewise-linear set-valued
interpolant.

All geometric predicates (orientation, in-circumcircle, point location)
are evaluated over the rationals, so triangulations and barycentric
weights are exact.  Delaunay completeness is the concrete realization of
the no-addable-edge triangulation axiom; refinement is uniform midpoint
subdivision, which halves the mesh diameter bound exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .intervals import IntervalSet, as_rational
from .partition import AverageConfig, CENTROID_OF_UNION, partition_average


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))


@dataclass(frozen=True)
class Triangulation:
    points: tuple[Point2, ...]
    triangles: tuple[tuple[int, int, int], ...]
    mesh_diameter: Fraction  # rational upper bound on all circumdiameters


class DegenerateInputError(ValueError):
    pass


class OutsideDomainError(ValueError):
    pass


def orientation(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Twice the signed area of triangle abc; positive for ccw."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def in_circumcircle(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True iff d lies strictly inside the circumcircle of ccw triangle abc."""
    adx, ady = a.x - d.x, a.y - d.y
    bdx, bdy = b.x - d.x, b.y - d.y
    cdx, cdy = c.x - d.x, c.y - d.y
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return det > 0


def _sqrt_upper_bound(q: Fraction) -> Fraction:
    """A rational u with u*u >= q, reasonably tight."""
    if q <= 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    bits = 32
    return Fraction(math.isqrt((n * d) << (2 * bits)) + 1, d << bits)


def circumdiameter_bound(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Rational upper bound on the diameter of the circumscribed circle."""
    area2 = abs(orientation(a, b, c))
    if area2 == 0:
        raise DegenerateInputError("collinear triangle has no circumcircle")
    sq = lambda p, q: (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    # diameter^2 = |ab|^2 |bc|^2 |ca|^2 / (4 area^2); area^2 = area2^2 / 4
    d2 = sq(a, b) * sq(b, c) * sq(c, a) / (area2 * area2)
    return _sqrt_upper_bound(d2)


def _ccw(points: Sequence[Point2], tri: tuple[int, int, int]) -> tuple[int, int, int]:
    i, j, k = tri
    if orientation(points[i], points[j], points[k]) < 0:
        return (i, k, j)
    return (i, j, k)


def _lawson_flips(points, triangles):
    """Flip internal edges until every pair of adjacent triangles satisfies
    the local Delaunay condition."""
    triangles = [_ccw(points, t) for t in triangles]
    changed = True
    while changed:
        changed = False
        edge_map: dict[tuple[int, int], list[int]] = {}
        for ti, (i, j, k) in enumerate(triangles):
            for e in ((i, j), (j, k), (k, i)):
                edge_map.setdefault(tuple(sorted(e)), []).append(ti)
        for edge, owners in edge_map.items():
            if len(owners) != 2:
                continue
            t1, t2 = owners
            a, b = edge
            opp1 = next(v for v in triangles[t1] if v not in edge)
            opp2 = next(v for v in triangles[t2] if v not in edge)
            tri1 = _ccw(points, triangles[t1])
            if in_circumcircle(points[tri1[0]], points[tri1[1]], points[tri1[2]], points[opp2]):
                # flipped pair must remain a valid convex quad
                if (
                    orientation(points[opp1], points[opp2], points[a])
                    * orientation(points[opp1], points[opp2], points[b])
                    < 0
                ):
                    triangles[t1] = _ccw(points, (opp1, opp2, a))
                    triangles[t2] = _ccw(points, (opp1, opp2, b))
                    changed = True
                    break
    return triangles


def triangulate(raw_points: Sequence[Point2]) -> Triangulation:
    """Delaunay triangulation via Bowyer-Watson insertion into a distant
    bounding triangle, followed by a Lawson flip pass to guarantee the
    empty-circumcircle property among the input points."""
    points = tuple(raw_points)
    if len(points) < 3:
        raise DegenerateInputError("need at least 3 points")
    if len(set(points)) != len(points):
        raise DegenerateInputError("duplicate points")
    if all(
        orientation(points[0], points[1], p) == 0 for p in points[2:]
    ):
        raise DegenerateInputError("all points are collinear")

    xs = [p.x for p in points]
    ys = [p.y for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    big = span * 10**6
    s0 = Point2(cx - 3 * big, cy - big)
    s1 = Point2(cx + 3 * big, cy - big)
    s2 = Point2(cx, cy + 3 * big)

    verts: list[Point2] = [s0, s1, s2] + list(points)
    triangles: list[tuple[int, int, int]] = [(0, 1, 2)]
    for pi in range(3, len(verts)):
        p = verts[pi]
        bad = [
            t
            for t in triangles
            if in_circumcircle(*(verts[v] for v in _ccw(verts, t)), p)
        ]
        boundary: dict[tuple[int, int], int] = {}
        for i, j, k in bad:
            for e in ((i, j), (j, k), (k, i)):
                key = tuple(sorted(e))
                boundary[key] = boundary.get(key, 0) + 1
        cavity_edges = [e for e, cnt in boundary.items() if cnt == 1]
        triangles = [t for t in triangles if t not in bad]
        for a, b in cavity_edges:
            if orientation(verts[a], verts[b], p) != 0:
                triangles.append(_ccw(verts, (a, b, pi)))

    triangles = [
        t for t in triangles if all(v >= 3 for v in t)
    ]
    final = [tuple(sorted(v - 3 for v in t)) for t in triangles]
    final = _lawson_flips(points, [tuple(t) for t in final])
    final_sorted = tuple(sorted(tuple(sorted(t)) for t in final))
    delta = max(
        circumdiameter_bound(points[i], points[j], points[k])
        for i, j, k in final_sorted
    )
    return Triangulation(points, final_sorted, delta)


def refine(t: Triangulation) -> Triangulation:
    """Midpoint subdivision: every triangle splits into 4 similar halves,
    so the circumdiameter bound halves exactly and the point set is nested.
    Each edge's midpoint is built once, the first time the edge is met."""
    points = list(t.points)
    midpoints: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        edge = (i, j) if i < j else (j, i)
        if edge not in midpoints:
            a, b = points[i], points[j]
            midpoints[edge] = len(points)
            points.append(Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
        return midpoints[edge]

    new_triangles = []
    for i, j, k in t.triangles:
        ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
        new_triangles.extend(
            [(i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki)]
        )
    new_sorted = tuple(sorted(tuple(sorted(tr)) for tr in new_triangles))
    return Triangulation(tuple(points), new_sorted, t.mesh_diameter / 2)


def refinement_sequence(base: Triangulation, levels: int) -> list[Triangulation]:
    if isinstance(levels, bool) or not isinstance(levels, int):
        raise TypeError(f"levels must be an int, got {levels!r}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    seq = [base]
    for _ in range(levels):
        seq.append(refine(seq[-1]))
    return seq


def locate_triangle(t: Triangulation, p: Point2) -> int:
    """Index of the lowest-index triangle containing p (boundary points go
    to the lowest-index owner; weights agree on shared edges).

    The orientation signs are taken in integers: every coordinate is scaled
    by the common denominator of the points and p, which keeps each sign.
    The three orientations of p against the edges of abc sum to the
    orientation of abc, so p is inside a ccw triangle iff all three are
    >= 0, and inside a cw one iff all three are <= 0."""
    scale = math.lcm(p.x.denominator, p.y.denominator,
                     *(c.denominator for q in t.points for c in (q.x, q.y)))
    xs = [q.x.numerator * (scale // q.x.denominator) for q in t.points]
    ys = [q.y.numerator * (scale // q.y.denominator) for q in t.points]
    px = p.x.numerator * (scale // p.x.denominator)
    py = p.y.numerator * (scale // p.y.denominator)

    def side(i: int, j: int) -> int:
        return (xs[j] - xs[i]) * (py - ys[i]) - (ys[j] - ys[i]) * (px - xs[i])

    for ti, (i, j, k) in enumerate(t.triangles):
        d = (side(i, j), side(j, k), side(k, i))
        if min(d) >= 0 or (max(d) <= 0 and sum(d) < 0):
            return ti
    raise OutsideDomainError(f"point ({p.x}, {p.y}) is outside the triangulated domain")


def barycentric_weights(t: Triangulation, p: Point2) -> tuple[Fraction, ...]:
    """Area-ratio weights on the containing triangle's vertices, zero on
    every other triangulation point."""
    ti = locate_triangle(t, p)
    i, j, k = t.triangles[ti]
    a, b, c = t.points[i], t.points[j], t.points[k]
    total = orientation(a, b, c)
    w = [Fraction(0)] * len(t.points)
    w[i] = orientation(p, b, c) / total
    w[j] = orientation(a, p, c) / total
    w[k] = orientation(a, b, p) / total
    return tuple(w)


PlanarSVF = Callable[[Point2], IntervalSet]


def pl_interpolant_svf(
    F: PlanarSVF, t: Triangulation, p: Point2, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Piecewise-linear set-valued interpolant: the partition average of F
    at ALL triangulation points with the barycentric weight vector.  The
    zero-weighted samples still shape the partition, which is what makes
    the interpolant continuous across triangle boundaries."""
    w = barycentric_weights(t, p)
    samples = [F(q) for q in t.points]
    return partition_average(samples, w, cfg)


def pl_interpolant_zero_stripped(
    F: PlanarSVF, t: Triangulation, p: Point2, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Variant restricted to the containing triangle's vertices.  Differs
    from the full interpolant in general and is discontinuous across
    triangle boundaries; kept to demonstrate exactly that."""
    w = barycentric_weights(t, p)
    active = [i for i, wi in enumerate(w) if wi > 0]
    if not active:
        raise OutsideDomainError("no positive barycentric weight")
    samples = [F(t.points[i]) for i in active]
    return partition_average(samples, [w[i] for i in active], cfg)


def validate_triangulation(t: Triangulation) -> None:
    """Structural check of the triangulation axioms: vertices from the
    point set, positive areas, edge-compatible adjacency, Delaunay
    completeness, and the mesh-diameter bound."""
    n = len(t.points)
    edge_count: dict[tuple[int, int], int] = {}
    for tri in t.triangles:
        if not all(0 <= v < n for v in tri):
            raise ValueError("vertex index out of range")
        a, b, c = (t.points[v] for v in tri)
        if orientation(a, b, c) == 0:
            raise ValueError("degenerate triangle")
        if circumdiameter_bound(a, b, c) > t.mesh_diameter:
            raise ValueError("diameter bound violated")
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = tuple(sorted(e))
            edge_count[key] = edge_count.get(key, 0) + 1
    if any(cnt > 2 for cnt in edge_count.values()):
        raise ValueError("edge shared by >2 triangles")
    # pairwise interior disjointness via total area = hull area
    total = sum(
        abs(orientation(*(t.points[v] for v in tri))) for tri in t.triangles
    )
    hull = _convex_hull_area2(t.points)
    if total != hull:
        raise ValueError("triangle areas do not tile the convex hull")
    # Delaunay completeness: no point strictly inside any circumcircle
    for tri in t.triangles:
        ccw_tri = _ccw(t.points, tri)
        a, b, c = (t.points[v] for v in ccw_tri)
        for qi, q in enumerate(t.points):
            if qi in tri:
                continue
            if in_circumcircle(a, b, c, q):
                raise ValueError("circumcircle not empty")


def _convex_hull_area2(points: Sequence[Point2]) -> Fraction:
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        return Fraction(0)

    def half(seq):
        hull = []
        for xy in seq:
            while (
                len(hull) >= 2
                and (hull[-1][0] - hull[-2][0]) * (xy[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (xy[0] - hull[-2][0])
                <= 0
            ):
                hull.pop()
            hull.append(xy)
        return hull

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    area2 = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        area2 += x0 * y1 - x1 * y0
    return abs(area2)
