"""Sample-based positive operators for set-valued functions.

The operators are written against a minimal "averageable space" interface
(a distance, and a plan of a point collection that maps weights to their
average, satisfying the averaged-distance inequality), so the interval-set
instance and the plain real-number instance share one code path,
`operator_on_grid`; the real instance doubles as an oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Protocol, Sequence, TypeVar

from .intervals import (
    IntervalSet,
    _common_denominator,
    as_rational,
    contains_ae,
    measure,
    sym_diff_distance,
)
from .partition import (
    AverageConfig,
    CENTROID_OF_UNION,
    PartitionPlan,
    check_weights,
    partition_average,
)

T = TypeVar("T")


class AverageableSpace(Protocol[T]):
    """A metric space with a weighted average whose distance to any of the
    averaged points is bounded by the weighted average of distances.
    `plan(points)` does the weight-independent work once and returns the
    map from a weight vector to the average of the points."""

    def distance(self, a: T, b: T) -> Fraction: ...

    def plan(self, points: Sequence[T]) -> Callable[[Sequence[Fraction]], T]: ...


class IntervalSetSpace:
    """Interval sets under the symmetric-difference distance and the
    partition average.  The averaged-distance condition holds with equality
    here, and zero-weighted points still shape the partition."""

    def __init__(self, cfg: AverageConfig = CENTROID_OF_UNION):
        self.cfg = cfg

    def distance(self, a: IntervalSet, b: IntervalSet) -> Fraction:
        return sym_diff_distance(a, b)

    def plan(self, points) -> Callable[[Sequence[Fraction]], IntervalSet]:
        return PartitionPlan(points, self.cfg).average


class RealSpace:
    """Nonnegative rationals under |.| and the arithmetic mean.  Zero
    weights cannot matter here, so they are skipped."""

    def distance(self, a: Fraction, b: Fraction) -> Fraction:
        return abs(a - b)

    def plan(self, points) -> Callable[[Sequence[Fraction]], Fraction]:
        points = tuple(points)

        def average(weights) -> Fraction:
            w = check_weights(weights, len(points))
            return sum((wi * p for wi, p in zip(w, points) if wi), Fraction(0))

        return average


REAL_SPACE = RealSpace()


@dataclass
class SampledSVF:
    """A set-valued function on [0, 1], queryable at rational points.

    holder_constant / holder_exponent, when declared, promise
    d(F(x), F(y)) <= L |x - y|^nu.
    """

    evaluate: Callable[[Fraction], IntervalSet]
    holder_constant: Fraction | None = None
    holder_exponent: Fraction | None = None
    name: str = ""

    def __call__(self, x) -> IntervalSet:
        return self.evaluate(as_rational(x))


def _gate(n: int, x=0) -> Fraction:
    """The one degree/point check of the operators: n >= 1 and x an exact
    rational in [0, 1].  Returns x as a Fraction."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"degree must be an int, got {n!r}")
    x = as_rational(x)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not (0 <= x <= 1):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return x


def uniform_nodes(n: int) -> list[Fraction]:
    """The node grid i/n, i = 0..n, of a degree-n operator."""
    _gate(n)
    return [Fraction(i, n) for i in range(n + 1)]


def bernstein_weights(n: int, x) -> tuple[Fraction, ...]:
    """Binomial point probabilities C(n,i) x^i (1-x)^(n-i), exact: for
    x = p/q, each is one Fraction of the ints C(n,i) p^i (q-p)^(n-i) and q^n."""
    x = _gate(n, x)
    p, q = x.numerator, x.denominator
    qn = q**n
    return tuple(Fraction(math.comb(n, i) * p**i * (q - p) ** (n - i), qn) for i in range(n + 1))


def bernstein_real(f: Callable[[Fraction], Fraction], n: int, x) -> Fraction:
    """The real Bernstein polynomial sum_i C(n,i) x^i (1-x)^(n-i) f(i/n),
    summed in ints over q^n times the common denominator of the f(i/n), for
    x = p/q.  It does not use bernstein_weights, so it can check them."""
    x = _gate(n, x)
    p, q = x.numerator, x.denominator
    values, denom = _common_denominator([Fraction(f(Fraction(i, n))) for i in range(n + 1)])
    total = sum(math.comb(n, i) * p**i * (q - p) ** (n - i) * v for i, v in enumerate(values))
    return Fraction(total, q**n * denom)


class BernsteinScheme:
    """Bernstein weights on the uniform node grid i/n."""

    name = "bernstein"

    def nodes(self, n: int) -> list[Fraction]:
        return uniform_nodes(n)

    def weights(self, n: int, x) -> tuple[Fraction, ...]:
        return bernstein_weights(n, x)


class PiecewiseLinearScheme:
    """Hat-function weights on the uniform node grid i/n: interpolation
    between the two nodes bracketing x."""

    name = "pl"

    def nodes(self, n: int) -> list[Fraction]:
        return uniform_nodes(n)

    def weights(self, n: int, x) -> tuple[Fraction, ...]:
        x = _gate(n, x)
        w = [Fraction(0)] * (n + 1)
        scaled = x * n
        k = min(int(scaled), n - 1)
        frac = scaled - k
        w[k] = 1 - frac
        w[k + 1] = frac
        return tuple(w)


BERNSTEIN_SCHEME = BernsteinScheme()
PIECEWISE_LINEAR_SCHEME = PiecewiseLinearScheme()

SCHEMES = {"bernstein": BERNSTEIN_SCHEME, "pl": PIECEWISE_LINEAR_SCHEME}


def bernstein_svf(
    F: SampledSVF, n: int, x, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Set-valued Bernstein operator: the partition average of the samples
    F(i/n) with the binomial weights."""
    return positive_operator(F, BERNSTEIN_SCHEME, n, x, IntervalSetSpace(cfg))


def _decasteljau(F: SampledSVF, n: int, x, cfg: AverageConfig, keep_samples: bool) -> IntervalSet:
    """The de Casteljau recursion on the samples F(i/n): each level replaces
    every neighbouring pair (a, b) by the partition average of a and b with
    weights (1-x, x), taken with the samples at weight zero if keep_samples."""
    x = _gate(n, x)
    samples = [F(node) for node in uniform_nodes(n)]
    context = samples if keep_samples else []
    w = [Fraction(0)] * len(context) + [1 - x, x]
    level = samples
    while len(level) > 1:
        level = [partition_average(context + [a, b], w, cfg) for a, b in zip(level, level[1:])]
    return level[0]


def decasteljau_svf(
    F: SampledSVF, n: int, x, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Bernstein-type operator evaluated by the de Casteljau recursion.

    Each binary step is a full partition average over the n+3 sets
    {F(0/n), ..., F(n/n), A, B} with weights (0, ..., 0, 1-x, x): keeping
    the original samples (at weight zero) in every partition makes the
    distance from the result to each sample exactly the binomially weighted
    average of sample distances.  When all partition elements share one
    reference point (centroid of the union, or a fixed point) the result
    equals bernstein_svf exactly; per-element centroids can make it differ.
    """
    return _decasteljau(F, n, x, cfg, keep_samples=True)


def decasteljau_naive(
    F: SampledSVF, n: int, x, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Plain binary-average de Casteljau recursion.  Because the partition
    average is not associative this differs from the Bernstein operator and
    is not expected to converge; shipped for demonstration only."""
    return _decasteljau(F, n, x, cfg, keep_samples=False)


def operator_on_grid(
    samples: Sequence[T], scheme, n: int, grid: Sequence[Fraction], space: AverageableSpace
) -> list[T]:
    """The operator at every grid point: the space's average of the samples
    at the scheme's nodes.  Only the weights depend on x, so every point
    shares one plan of the samples."""
    average = space.plan(samples)
    return [average(scheme.weights(n, x)) for x in grid]


def positive_operator(F: Callable[[Fraction], T], scheme, n: int, x, space: AverageableSpace) -> T:
    """Generic positive sample-based operator: the one-point case of
    operator_on_grid.  n and x are checked before any sample is evaluated."""
    x = _gate(n, x)
    return operator_on_grid([F(node) for node in scheme.nodes(n)], scheme, n, [x], space)[0]


def dominance_holds(weights_a: Sequence[Fraction], weights_b: Sequence[Fraction]) -> bool:
    """Tail-sum dominance: sum_{i>=k} a_i <= sum_{i>=k} b_i for every k.
    Exactly characterizes monotonicity preservation of the induced
    operators, for numbers and for sets alike."""
    wa = tuple(as_rational(x) for x in weights_a)
    wb = tuple(as_rational(x) for x in weights_b)
    if len(wa) != len(wb):
        raise ValueError("weight vectors must have equal length")
    tail_a, tail_b = Fraction(0), Fraction(0)
    for a, b in zip(reversed(wa), reversed(wb)):
        tail_a += a
        tail_b += b
        if tail_a > tail_b:
            return False
    return True


def _secants(distance, grid: Sequence[Fraction], values: Sequence[T]) -> list[Fraction]:
    """Finite-difference speeds distance(values[k], values[k+1]) / (grid[k+1] - grid[k])."""
    speeds = []
    for a, b, u, v in zip(grid, grid[1:], values, values[1:]):
        if a == b:
            raise ValueError(f"repeated grid point {a}")
        speeds.append(distance(u, v) / (b - a))
    return speeds


def nested_speeds(
    samples: Sequence[IntervalSet], grid: Sequence[Fraction], values: Sequence[IntervalSet]
) -> list[Fraction]:
    """Finite-difference speeds d(values[k], values[k+1]) / (grid[k+1] - grid[k])
    of an operator built on nested (non-decreasing or non-increasing) samples."""
    pairs = list(zip(samples, samples[1:]))
    if not (all(contains_ae(b, a) for a, b in pairs) or all(contains_ae(a, b) for a, b in pairs)):
        raise ValueError("speed profile requires a monotone (nested) SVF")
    return _secants(sym_diff_distance, grid, values)


def speed_profile(
    F: SampledSVF,
    scheme,
    n: int,
    grid: Sequence[Fraction],
    cfg: AverageConfig = CENTROID_OF_UNION,
) -> list[Fraction]:
    """Finite-difference speeds of the adapted operator along a grid.

    For a monotone SVF these equal the secant slopes of the real operator
    applied to the measure profile, because monotonicity preservation turns
    every distance into a measure difference.
    """
    grid = [as_rational(g) for g in grid]
    samples = [F(node) for node in scheme.nodes(n)]
    values = operator_on_grid(samples, scheme, n, grid, IntervalSetSpace(cfg))
    return nested_speeds(samples, grid, values)


def measure_profile_secants(
    F: SampledSVF, scheme, n: int, grid: Sequence[Fraction]
) -> list[Fraction]:
    """Secant slopes of the real operator applied to x -> mu(F(x)); the
    independent real-valued counterpart of speed_profile."""
    grid = [as_rational(g) for g in grid]
    mu_samples = [measure(F(node)) for node in scheme.nodes(n)]
    values = operator_on_grid(mu_samples, scheme, n, grid, REAL_SPACE)
    return _secants(REAL_SPACE.distance, grid, values)
