"""Exact partition averages of sets and set-valued approximation operators."""

from .intervals import (
    EMPTY,
    EmptySetError,
    IntervalSet,
    canonicalize,
    centroid,
    contains_ae,
    difference,
    format_set_literal,
    from_pairs,
    intersect,
    measure,
    parse_set_literal,
    sym_diff_distance,
    union,
)
from .operators import (
    BERNSTEIN_SCHEME,
    PIECEWISE_LINEAR_SCHEME,
    REAL_SPACE,
    IntervalSetSpace,
    RealSpace,
    SampledSVF,
    bernstein_real,
    bernstein_svf,
    bernstein_weights,
    decasteljau_naive,
    decasteljau_svf,
    dominance_holds,
    positive_operator,
    speed_profile,
)
from .partition import (
    CENTROID_OF_UNION,
    PER_ELEMENT_CENTROID,
    AverageConfig,
    Partition,
    PartitionElement,
    PartitionPlan,
    average_distance_integral,
    coverage_values,
    expected_pairwise_distance,
    expected_pairwise_distance_integral,
    fixed_point,
    partition_average,
    partition_of_union,
    subset_generate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
