"""Built-in set-valued functions and the convergence / monotonicity
experiment drivers behind the CLI.

Every CSV row is recomputable from the library API; the drivers only
iterate, format, and compare against the stated error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intervals import (
    IntervalSet,
    as_rational,
    canonicalize,
    contains_ae,
    measure,
    sym_diff_distance,
)
from .multivariate import Point2
from .operators import (
    BERNSTEIN_SCHEME,
    REAL_SPACE,
    SCHEMES,
    IntervalSetSpace,
    SampledSVF,
    _secants,
    bernstein_svf,
    decasteljau_svf,
    dominance_holds,
    nested_speeds,
    operator_on_grid,
)
from .partition import AverageConfig, CENTROID_OF_UNION

DYADIC_BITS = 60


def dyadic_sqrt(x: Fraction) -> Fraction:
    """Floor of sqrt(x) to 60 fractional bits, as an exact dyadic rational."""
    x = as_rational(x)
    if x < 0:
        raise ValueError("negative argument")
    shifted = (x.numerator << (2 * DYADIC_BITS)) // x.denominator
    return Fraction(math.isqrt(shifted), 1 << DYADIC_BITS)


def _grow(x: Fraction) -> IntervalSet:
    return canonicalize([(Fraction(0), 1 + x)])


def _slide(x: Fraction) -> IntervalSet:
    return canonicalize([(x, 1 + x)])


def _split(x: Fraction) -> IntervalSet:
    return canonicalize([(Fraction(0), Fraction(1)), (Fraction(2), 2 + x)])


def _holder(x: Fraction) -> IntervalSet:
    return canonicalize([(Fraction(0), 1 + dyadic_sqrt(x))])


BUILTIN_SVFS = {
    "grow": SampledSVF(_grow, Fraction(1), Fraction(1), "grow"),
    "slide": SampledSVF(_slide, Fraction(2), Fraction(1), "slide"),
    "split": SampledSVF(_split, Fraction(1), Fraction(1), "split"),
    "holder": SampledSVF(_holder, Fraction(1), Fraction(1, 2), "holder"),
}


def plane_svf(p: Point2) -> IntervalSet:
    """Planar built-in for the multivariate interpolant experiments."""
    return canonicalize([(Fraction(0), 1 + p.x + p.y)])


# d(plane(p), plane(q)) = |dx + dy| <= sqrt(2) ||p - q||
PLANE_LIPSCHITZ = math.sqrt(2.0)

SVF_OPERATORS = {"bernstein": bernstein_svf, "decasteljau": decasteljau_svf}


@dataclass(frozen=True)
class ExperimentRow:
    operator: str
    n: int
    x: Fraction
    error: Fraction
    bound: float
    measure: Fraction


def holder_bound(L: Fraction, nu: Fraction, n: int, x: Fraction) -> float:
    """Rate bound L (1/n)^nu + L (x(1-x)/n)^(nu/2) for Lip(L, nu)."""
    Lf, nuf = float(L), float(nu)
    return Lf * (1.0 / n) ** nuf + Lf * (float(x * (1 - x)) / n) ** (nuf / 2.0)


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ValueError(f"unknown {what}: {name!r}")
    return table[name]


def uniform_grid(count: int) -> list[Fraction]:
    if count < 2:
        raise ValueError("grid needs at least the two endpoints")
    return [Fraction(i, count - 1) for i in range(count)]


def run_convergence(
    svf_name: str,
    operator: str,
    n_list: Sequence[int],
    x_grid: Sequence[Fraction],
    cfg: AverageConfig = CENTROID_OF_UNION,
) -> list[ExperimentRow]:
    F = _lookup(BUILTIN_SVFS, svf_name, "built-in SVF")
    op = _lookup(SVF_OPERATORS, operator, "operator")
    grid = sorted(as_rational(g) for g in x_grid)
    truth = [F(x) for x in grid]
    rows = []
    for n in sorted(n_list):
        if operator == "bernstein":
            samples = [F(node) for node in BERNSTEIN_SCHEME.nodes(n)]
            approxes = operator_on_grid(samples, BERNSTEIN_SCHEME, n, grid, IntervalSetSpace(cfg))
        else:
            approxes = [op(F, n, x, cfg) for x in grid]
        for x, exact, approx in zip(grid, truth, approxes):
            rows.append(
                ExperimentRow(
                    operator=operator,
                    n=n,
                    x=x,
                    error=sym_diff_distance(exact, approx),
                    bound=holder_bound(F.holder_constant, F.holder_exponent, n, x),
                    measure=measure(approx),
                )
            )
    return rows


def _fmt(q) -> str:
    return f"{float(q):.12g}"


def rows_to_csv(rows: Sequence[ExperimentRow], exact: bool = False) -> str:
    lines = ["operator,n,x,error,bound,measure"]
    for r in rows:
        x = str(r.x) if exact else _fmt(r.x)
        err = str(r.error) if exact else _fmt(r.error)
        mes = str(r.measure) if exact else _fmt(r.measure)
        lines.append(f"{r.operator},{r.n},{x},{err},{_fmt(r.bound)},{mes}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    dominance_ok: bool
    containment_violations: tuple[tuple[Fraction, Fraction], ...]
    speed_identity_ok: bool


def run_monotone_check(
    svf_name: str,
    scheme_name: str,
    n: int,
    x_grid: Sequence[Fraction],
    cfg: AverageConfig = CENTROID_OF_UNION,
) -> MonotoneReport:
    """Containment chain of the adapted operator along the grid for a nested
    non-decreasing SVF, plus the speed identity against the real-valued
    measure profile."""
    F = _lookup(BUILTIN_SVFS, svf_name, "built-in SVF")
    scheme = _lookup(SCHEMES, scheme_name, "scheme")
    grid = sorted(as_rational(g) for g in x_grid)
    # each sample is evaluated once and each grid point's weights are
    # computed once; both serve the set and the real-valued operator
    samples = [F(node) for node in scheme.nodes(n)]
    weights = [scheme.weights(n, x) for x in grid]
    average = IntervalSetSpace(cfg).plan(samples)
    values = [average(w) for w in weights]
    dom_ok = all(dominance_holds(a, b) for a, b in zip(weights, weights[1:]))
    violations = tuple(
        (a, b)
        for (a, va), (b, vb) in zip(zip(grid, values), zip(grid[1:], values[1:]))
        if not contains_ae(vb, va)
    )
    speeds = nested_speeds(samples, grid, values)
    average_measure = REAL_SPACE.plan([measure(s) for s in samples])
    secants = _secants(REAL_SPACE.distance, grid, [average_measure(w) for w in weights])
    speed_ok = speeds == secants
    return MonotoneReport(
        ok=dom_ok and not violations and speed_ok,
        dominance_ok=dom_ok,
        containment_violations=violations,
        speed_identity_ok=speed_ok,
    )
