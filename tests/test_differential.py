"""The bitset checks against the tuple-path references in ``oracles``.

Convexity, p-goodness and union decomposition are decided on the big
integers of shared subset-sum tables; every answer, down to the missing
points and the p-goodness witness, must equal what the earlier
point-by-point implementations give.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedgepower import (
    GridSpec,
    PointConfig,
    check_lattice_convex,
    enumerate_lattice_convex,
    is_p_good,
    union_decomposition_holds,
    verify_polygon,
    wedge_power,
)
from wedgepower.wedge import hull_fill

import oracles

GRIDS = (GridSpec(2, 2), GridSpec(3, 2))


@pytest.fixture(scope="module")
def grid_configs():
    return [config for grid in GRIDS for config in enumerate_lattice_convex(grid)]


def test_enumeration_matches_the_mask_loop():
    for grid in GRIDS:
        assert enumerate_lattice_convex(grid) == oracles.enumerate_lattice_convex(grid)


def test_verify_polygon_per_size_matches(grid_configs):
    assert len(grid_configs) == 132 + 420
    for config in grid_configs:
        expected = []
        for p in range(len(config) + 1):
            report = oracles.check_lattice_convex(wedge_power(config, p))
            expected.append((p, report.convex, report.missing.points))
        assert verify_polygon(config).per_size == tuple(expected), config


def test_p_good_witness_matches(grid_configs):
    for config in grid_configs:
        for p in range(1, len(config)):
            assert is_p_good(config, p) == oracles.is_p_good(config, p), (config, p)


def test_union_decomposition_matches(grid_configs):
    for config in grid_configs:
        for p in range(1, len(config) + 1):
            expected = oracles.union_decomposition_holds(config, p)
            assert union_decomposition_holds(config, p) == expected, (config, p)


# --- the bitset predicate on random planar sets -----------------------------

coords = st.integers(-4, 4)
scattered = st.lists(st.tuples(coords, coords), min_size=1, max_size=8, unique=True)
collinear = st.builds(
    lambda start, step, ts: [(start[0] + t * step[0], start[1] + t * step[1]) for t in ts],
    st.tuples(coords, coords),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True),
)
singletons = st.lists(st.tuples(coords, coords), min_size=1, max_size=1)
planar_sets = st.one_of(scattered, collinear, singletons)


def _bitset(points):
    """Points as a bitset over their bounding box: (bits, width, min corner)."""
    x0 = min(p[0] for p in points)
    y0 = min(p[1] for p in points)
    width = max(p[0] for p in points) - x0 + 1
    bits = 0
    for x, y in points:
        bits |= 1 << ((x - x0) + (y - y0) * width)
    return bits, width, (x0, y0)


def _points(bits, width, origin):
    return sorted(
        (origin[0] + i % width, origin[1] + i // width)
        for i in range(bits.bit_length())
        if bits >> i & 1
    )


@given(planar_sets)
def test_hull_fill_is_the_hull_lattice_points(raw):
    points = sorted(set(raw))
    bits, width, origin = _bitset(points)
    assert _points(hull_fill(bits, width), width, origin) == oracles.hull_lattice_points(points)


@given(planar_sets)
def test_check_lattice_convex_matches_the_oracles(raw):
    config = PointConfig.of(raw)
    report = check_lattice_convex(config)
    assert report.convex == oracles.is_lattice_convex(list(config.points))
    assert report == oracles.check_lattice_convex(config)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6, unique=True))
def test_check_lattice_convex_in_dimension_1(xs):
    config = PointConfig.of([(x,) for x in xs], dim=1)
    report = check_lattice_convex(config)
    assert report == oracles.check_lattice_convex(config)
    assert report.missing.points == tuple((x,) for x in range(min(xs), max(xs) + 1) if x not in xs)
