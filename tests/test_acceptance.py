"""Acceptance suite: one test per headline claim, each with its runtime budget.

Every test prints a single PASS line with its measured runtime; a pytest
failure is the corresponding FAIL line.  Budgets are asserted, not advisory.
"""

import itertools
import random
import resource
import time
from functools import lru_cache

from wedgepower import (
    GridSpec,
    LinearFunctional,
    PointConfig,
    SubsetSumTable,
    build_colored_simplex,
    check_lattice_convex,
    is_p_good,
    verify_corner_cut,
    verify_counterexample,
    verify_grid,
    verify_polygon,
    wedge_power,
    witness_point,
)
from wedgepower.wedge import _reflect

import oracles
from oracles import library_classes, quadrant_points_below

GRIDS = (GridSpec(2, 2), GridSpec(3, 2))

FROZEN_WEDGE42_SIZE = 425997
FROZEN_WEDGE42_DIGEST = "853fc3c7563748996e3d5e4dbad3fac4309f62069bb27ecfcbb9c52fbbdd3fba"


def _report(number: int, elapsed: float, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {message}")


@lru_cache(maxsize=None)
def _grid_bundle(width: int, height: int):
    grid = GridSpec(width, height)
    configs = library_classes(grid)
    reports = [verify_polygon(c) for c in configs]
    summary = verify_grid(grid)
    return configs, reports, summary


def test_criterion_1_planar_counterexample_reproduced():
    start = time.perf_counter()
    base = PointConfig.of([(0, 1), (1, 0), (-1, -1), (0, 0)])
    wedge = wedge_power(base, 2)
    assert set(wedge) == {(-1, -1), (-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)}
    report = check_lattice_convex(wedge)
    assert not report.convex
    assert report.missing.points == ((0, 0),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "pair sums of the four-point triangle miss exactly the origin")


def test_criterion_2_exhaustive_grid_conformance():
    start = time.perf_counter()
    totals = []
    for grid in GRIDS:
        configs, reports, summary = _grid_bundle(grid.width, grid.height)
        assert summary.violations == []
        assert summary.config_count == len(configs)
        for report in reports:
            failures = set(report.nonconvex_sizes)
            if report.exception_k == 1:
                assert failures == {2}
            elif report.exception_k == 2:
                assert failures == {2, 3}
            else:
                assert report.exception_k is None
                assert failures == set()
        totals.append(len(configs))
    assert totals == [132, 420]
    exceptions = [_grid_bundle(g.width, g.height)[2].exceptions_seen for g in GRIDS]
    assert exceptions == [{1: 4}, {1: 8, 2: 4}]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(2, elapsed, f"grids of {totals} configurations conform, zero violations")


def test_criterion_3_dp_naive_agreement_and_complement():
    start = time.perf_counter()
    rng = random.Random(20250810)
    dims = [2, 2, 2, 1, 3]
    checked = 0
    for i in range(500):
        dim = dims[i % len(dims)]
        size = rng.randint(1, 12 if dim > 1 else 9)  # only 9 distinct 1D points exist
        pts = set()
        while len(pts) < size:
            pts.add(tuple(rng.randint(-4, 4) for _ in range(dim)))
        config = PointConfig.of(pts, dim=dim)
        n = len(config)
        for p in range(n + 1):
            fast = wedge_power(config, p)
            assert fast == oracles.naive_wedge_power(config, p)
            assert _reflect(wedge_power(config, n - p), config.total()) == fast
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, elapsed, f"500 random configurations, {checked} wedge sets, dp == naive and complements match")


def test_criterion_4_goodness_at_scale():
    start = time.perf_counter()
    good_checked = 0
    first_exception_count = 0
    for grid in GRIDS:
        configs, reports, _ = _grid_bundle(grid.width, grid.height)
        for config, report in zip(configs, reports):
            n = len(config)
            if n >= 5:
                for p in range(1, n // 2 + 1):
                    assert is_p_good(config, p) is not None
                    good_checked += 1
            if report.exception_k == 1:
                first_exception_count += 1
                assert is_p_good(config, 2) is None
    assert first_exception_count == 12
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, elapsed, f"{good_checked} goodness witnesses found; all 12 four-point exceptions fail at size 2")


def test_criterion_5_collinear_counts():
    start = time.perf_counter()
    for n in range(2, 11):
        config = PointConfig.of([(i, 0) for i in range(n)])
        for p in range(1, n):
            wedge = wedge_power(config, p)
            # distinct sums of p points of {0..n-1} number p(n-p)+1, far
            # fewer than the C(n, p) subsets that produce them
            assert len(wedge) == p * (n - p) + 1
            assert wedge == oracles.naive_wedge_power(config, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, elapsed, "collinear wedge sizes match p(N-p)+1 for N up to 10")


def test_criterion_6_corner_cut_matrix():
    start = time.perf_counter()
    cells = 0
    for bound in range(2, 7):
        quadrant_size = (bound + 1) * (bound + 2) // 2
        for d in range(1, min(10, quadrant_size) + 1):
            report = verify_corner_cut(d, bound)
            assert report.convex, f"non-convex at d={d}, B={bound}"
            cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _report(6, elapsed, f"{cells} truncation cells all lattice-convex")


def test_criterion_7_three_dimensional_witness():
    start = time.perf_counter()
    simplex = build_colored_simplex()
    report = verify_counterexample(simplex)

    assert report.counts == (40, 40, 4)
    outer_sum = tuple(map(sum, zip(*simplex.outer_triple)))
    assert outer_sum == tuple(3 * c for c in simplex.plane_center)
    assert report.witness == witness_point(simplex) == (49, 66, 29)
    assert not report.witness_in_wedge
    assert report.witness_in_hull

    low_sum = simplex.low.total()
    expected_slice = sorted(
        tuple(s + a + b for s, a, b in zip(low_sum, p, q))
        for p, q in itertools.combinations(simplex.on_level, 2)
    )
    assert len(expected_slice) == 6
    assert list(report.slice_points) == expected_slice
    assert report.witness not in report.slice_points
    assert report.min_level_attained == report.witness_level

    assert report.wedge_size == FROZEN_WEDGE42_SIZE
    assert report.digest == FROZEN_WEDGE42_DIGEST
    # determinism: an independent build reproduces the layer bit for bit
    rebuilt = SubsetSumTable(simplex.points.points, 42)
    assert rebuilt.digest(42) == report.digest

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 1024 * 1024, f"peak memory {peak_kb} kB exceeds 1 GB"
    _report(
        7,
        elapsed,
        f"42-fold wedge of the 84-point simplex: {report.wedge_size} sums, witness absent, "
        f"slice of 6 at level {report.min_level_attained}, peak {peak_kb // 1024} MB",
    )


def test_criterion_8_octant_bridge():
    start = time.perf_counter()
    simplex = build_colored_simplex()
    below = quadrant_points_below(LinearFunctional((5, 4, 7)), 25)
    expected = PointConfig.of(list(simplex.low) + list(simplex.on_level))
    assert below == expected
    assert len(below) == 44
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(8, elapsed, "level-25 octant points are exactly the 44 low and on-level points")


def test_criterion_9_five_by_five_cell_grid():
    # the earlier mask loop over all 2^25 masks took about six minutes on a
    # 2-vCPU Xeon just to enumerate, so the budget also guards against a return to it
    start = time.perf_counter()
    summary = verify_grid(GridSpec(4, 4))
    assert summary.violations == []
    assert summary.config_count == 18019
    assert summary.exceptions_seen == {1: 12, 2: 28, 3: 12}
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(9, elapsed, "all 18019 lattice-convex subsets of the 4x4 grid conform, zero violations")
