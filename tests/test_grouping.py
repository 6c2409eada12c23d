"""Differential tests of the signature-grouping kernel.

The oracles below are the direct scans: every elementary segment, or every
cell, is tested for membership in every input.  They share no code with
`group_by_signature`, so they stay an independent reference for the
partition of the union, the raster cell groups and the 1-D raster oracle.
"""

import random
from fractions import Fraction as F

import pytest

from setavg.intervals import EMPTY, canonicalize
from setavg.partition import group_by_signature, partition_of_union
from setavg.raster import RasterSet, cell_signatures, raster_average_measure_1d, rasterize_1d

from conftest import random_interval_set, random_weights


def scan_partition(sets):
    """Signature of each elementary segment from the sets containing its
    midpoint; segments sharing a signature form one canonical region."""
    breakpoints = sorted({e for s in sets for a, b in s.intervals for e in (a, b)})
    by_signature = {}
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        mid = (lo + hi) / 2
        sig = frozenset(i for i, s in enumerate(sets) if mid in s)
        if sig:
            by_signature.setdefault(sig, []).append((lo, hi))
    return sorted(
        ((sig, canonicalize(segs)) for sig, segs in by_signature.items()),
        key=lambda kv: sorted(kv[0]),
    )


def scan_cells(cell_sets):
    """Signature of each occupied cell from the inputs containing it."""
    groups = {}
    for cell in set().union(*cell_sets):
        sig = frozenset(i for i, cells in enumerate(cell_sets) if cell in cells)
        groups.setdefault(sig, set()).add(cell)
    return {sig: frozenset(cells) for sig, cells in groups.items()}


def random_collection(rng):
    """Interval sets with the awkward cases mixed in: empty sets, exact
    duplicates, and sets that touch another set at an endpoint."""
    sets = [random_interval_set(rng, span=6) for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["empty", "duplicate", "touching"])
        if kind == "empty":
            sets.append(EMPTY)
        elif kind == "duplicate":
            sets.append(rng.choice(sets))
        else:
            a, b = rng.choice(rng.choice(sets).intervals or ((F(0), F(1)),))
            sets.append(canonicalize([(b, b + F(rng.randint(1, 8), 4)),
                                      (a - F(rng.randint(1, 8), 4), a)]))
    rng.shuffle(sets)
    return sets


def random_cells(rng, size=6):
    cells = [(r, c) for r in range(size) for c in range(size)]
    return frozenset(rng.sample(cells, rng.randint(0, len(cells) // 2)))


@pytest.mark.parametrize("seed", range(4))
def test_partition_matches_midpoint_scan(seed):
    rng = random.Random(seed)
    for _ in range(50):
        sets = random_collection(rng)
        part = partition_of_union(sets)
        assert [(el.signature, el.region) for el in part.elements] == scan_partition(sets)


def test_partition_fixed_cases():
    a, b = canonicalize([(0, 1)]), canonicalize([(1, 2)])
    for sets in ([a], [a, a], [a, b], [EMPTY, a, EMPTY], [EMPTY]):
        part = partition_of_union(sets)
        assert [(el.signature, el.region) for el in part.elements] == scan_partition(sets)


@pytest.mark.parametrize("seed", range(4))
def test_cell_signatures_match_cell_scan(seed):
    rng = random.Random(seed)
    for _ in range(50):
        cell_sets = [random_cells(rng) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            cell_sets.append(rng.choice(cell_sets))
        if rng.random() < 0.3:
            cell_sets.append(frozenset())
        rasters = [RasterSet((F(0), F(0)), F(1), 6, 6, cells) for cells in cell_sets]
        assert cell_signatures(rasters) == scan_cells(cell_sets)


def test_raster_measure_1d_matches_cell_scan(rng):
    h, n_cells = F(1, 16), 16 * 8
    for _ in range(30):
        sets = random_collection(rng)
        w = random_weights(rng, len(sets))
        groups = scan_cells([rasterize_1d(s, F(0), h, n_cells) for s in sets])
        expected = h * sum(
            int(sum((w[i] for i in sig), F(0)) * len(cells) + F(1, 2))
            for sig, cells in groups.items()
        )
        assert raster_average_measure_1d(sets, w, F(0), h, n_cells) == expected


def test_group_by_signature_contract():
    groups = group_by_signature([["a", "b"], ["b", "c"], [], ["b"]])
    assert {sig: sorted(atoms) for sig, atoms in groups.items()} == {
        frozenset([0]): ["a"],
        frozenset([0, 1, 3]): ["b"],
        frozenset([1]): ["c"],
    }
    assert group_by_signature([]) == {}
