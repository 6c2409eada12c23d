"""Sample-based positive operators for set-valued functions.

The operators are written against a minimal "averageable space" interface
(a distance and a weighted average satisfying the averaged-distance
inequality), so the interval-set instance and the plain real-number
instance share one code path; the real instance doubles as an oracle in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Protocol, Sequence, TypeVar

from .intervals import IntervalSet, as_rational, contains_ae, measure, sym_diff_distance
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
    averaged points is bounded by the weighted average of distances."""

    def distance(self, a: T, b: T) -> Fraction: ...

    def weighted_average(self, points: Sequence[T], weights: Sequence[Fraction]) -> T: ...


class IntervalSetSpace:
    """Interval sets under the symmetric-difference distance and the
    partition average.  The averaged-distance condition holds with equality
    here, and zero-weighted points still shape the partition."""

    def __init__(self, cfg: AverageConfig = CENTROID_OF_UNION):
        self.cfg = cfg

    def distance(self, a: IntervalSet, b: IntervalSet) -> Fraction:
        return sym_diff_distance(a, b)

    def weighted_average(self, points, weights) -> IntervalSet:
        return partition_average(points, weights, self.cfg)


class RealSpace:
    """Nonnegative rationals under |.| and the arithmetic mean.  Zero
    weights cannot matter here, so they are skipped."""

    def distance(self, a: Fraction, b: Fraction) -> Fraction:
        return abs(a - b)

    def weighted_average(self, points, weights) -> Fraction:
        w = check_weights(weights, len(points))
        return sum((wi * p for wi, p in zip(w, points) if wi), Fraction(0))


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


def uniform_nodes(n: int) -> list[Fraction]:
    """The node grid i/n, i = 0..n, of a degree-n operator."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return [Fraction(i, n) for i in range(n + 1)]


def bernstein_weights(n: int, x) -> tuple[Fraction, ...]:
    """Binomial point probabilities C(n,i) x^i (1-x)^(n-i), exact."""
    x = as_rational(x)
    if not (0 <= x <= 1):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(
        Fraction(math.comb(n, i)) * x**i * (1 - x) ** (n - i) for i in range(n + 1)
    )


def bernstein_real(f: Callable[[Fraction], Fraction], n: int, x) -> Fraction:
    x = as_rational(x)
    w = bernstein_weights(n, x)
    return sum((w[i] * Fraction(f(Fraction(i, n))) for i in range(n + 1)), Fraction(0))


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
        x = as_rational(x)
        if not (0 <= x <= 1):
            raise ValueError(f"x must lie in [0, 1], got {x}")
        if n < 1:
            raise ValueError("degree must be >= 1")
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


def decasteljau_svf(
    F: SampledSVF, n: int, x, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Bernstein-type operator evaluated by the de Casteljau recursion.

    Each binary step is a full partition average over the n+3 sets
    {F(0/n), ..., F(n/n), A, B} with weights (0, ..., 0, 1-x, x): keeping
    the original samples (at weight zero) in every partition makes the
    distance from the result to each sample exactly the binomially weighted
    average of sample distances.
    """
    x = as_rational(x)
    samples = [F(node) for node in uniform_nodes(n)]
    zero = [Fraction(0)] * (n + 1)

    def tilde_average(a: IntervalSet, b: IntervalSet) -> IntervalSet:
        return partition_average(samples + [a, b], zero + [1 - x, x], cfg)

    level = list(samples)
    while len(level) > 1:
        level = [tilde_average(level[i], level[i + 1]) for i in range(len(level) - 1)]
    return level[0]


def decasteljau_naive(
    F: SampledSVF, n: int, x, cfg: AverageConfig = CENTROID_OF_UNION
) -> IntervalSet:
    """Plain binary-average de Casteljau recursion.  Because the partition
    average is not associative this differs from the Bernstein operator and
    is not expected to converge; shipped for demonstration only."""
    x = as_rational(x)
    level = [F(node) for node in uniform_nodes(n)]
    while len(level) > 1:
        level = [
            partition_average([level[i], level[i + 1]], [1 - x, x], cfg)
            for i in range(len(level) - 1)
        ]
    return level[0]


def positive_operator(
    F: Callable[[Fraction], T],
    scheme,
    n: int,
    x,
    space: AverageableSpace,
) -> T:
    """Generic positive sample-based operator: the space's weighted average
    of the samples at the scheme's nodes."""
    x = as_rational(x)
    nodes = scheme.nodes(n)
    samples = [F(node) for node in nodes]
    return space.weighted_average(samples, scheme.weights(n, x))


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


def _check_monotone(samples: Sequence[IntervalSet]) -> bool:
    """True for nested non-decreasing, also accepts non-increasing."""
    non_dec = all(contains_ae(samples[i + 1], samples[i]) for i in range(len(samples) - 1))
    non_inc = all(contains_ae(samples[i], samples[i + 1]) for i in range(len(samples) - 1))
    return non_dec or non_inc


def grid_averages(
    samples: Sequence[IntervalSet],
    scheme,
    n: int,
    grid: Sequence[Fraction],
    cfg: AverageConfig = CENTROID_OF_UNION,
) -> list[IntervalSet]:
    """The set-valued operator at every grid point.  Only the weights depend
    on x, so all points share one partition plan of the samples."""
    plan = PartitionPlan(samples, cfg)
    return [plan.average(scheme.weights(n, x)) for x in grid]


def nested_speeds(
    samples: Sequence[IntervalSet], grid: Sequence[Fraction], values: Sequence[IntervalSet]
) -> list[Fraction]:
    """Finite-difference speeds d(values[k], values[k+1]) / (grid[k+1] - grid[k])
    of an operator built on nested samples."""
    if not _check_monotone(samples):
        raise ValueError("speed profile requires a monotone (nested) SVF")
    return [
        sym_diff_distance(values[k], values[k + 1]) / (grid[k + 1] - grid[k])
        for k in range(len(grid) - 1)
    ]


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
    return nested_speeds(samples, grid, grid_averages(samples, scheme, n, grid, cfg))


def measure_profile_secants(
    F: SampledSVF, scheme, n: int, grid: Sequence[Fraction]
) -> list[Fraction]:
    """Secant slopes of the real operator applied to x -> mu(F(x)); the
    independent real-valued counterpart of speed_profile."""
    grid = [as_rational(g) for g in grid]
    mu_samples = [measure(F(node)) for node in scheme.nodes(n)]

    def real_op(g: Fraction) -> Fraction:
        return REAL_SPACE.weighted_average(mu_samples, scheme.weights(n, g))

    values = [real_op(g) for g in grid]
    return [
        abs(values[k + 1] - values[k]) / (grid[k + 1] - grid[k])
        for k in range(len(grid) - 1)
    ]
