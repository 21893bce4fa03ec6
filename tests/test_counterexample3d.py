import itertools
import math
import tracemalloc
from functools import reduce

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wedgepower import (
    AffineUnimodularMap,
    LinearFunctional,
    PointConfig,
    SubsetSumTable,
    apply_map,
    are_equivalent,
    build_colored_simplex,
    check_lattice_convex,
    exceptional_triangle,
    plane_coordinates,
    quadrant_points_below,
    verify_counterexample,
    wedge_power,
    witness_point,
)
from wedgepower import counterexample3d
from wedgepower.counterexample3d import _lowest_slice, _plane_chart, _plane_normal
from wedgepower.geometry import _det

import oracles


@pytest.fixture(scope="module")
def simplex():
    return build_colored_simplex()


class TestConstruction:
    def test_counts(self, simplex):
        assert len(simplex.points) == 84
        assert (len(simplex.low), len(simplex.high), len(simplex.on_level)) == (40, 40, 4)

    def test_level_plane(self, simplex):
        assert simplex.functional.coeffs == (5, 4, 7)
        assert simplex.level == 25
        assert set(simplex.on_level) == {(5, 0, 0), (1, 5, 0), (2, 2, 1), (0, 1, 3)}
        for p in simplex.on_level:
            assert simplex.functional(p) == 25

    def test_center_identity(self, simplex):
        # the three outer points sum to three times the centre
        center = simplex.plane_center
        assert center == (2, 2, 1)
        outer_sum = tuple(map(sum, zip(*simplex.outer_triple)))
        assert outer_sum == tuple(3 * c for c in center)

    def test_split_is_a_partition(self, simplex):
        pieces = set(simplex.low) | set(simplex.high) | set(simplex.on_level)
        assert pieces == set(simplex.points)
        assert simplex.functional(max(simplex.low, key=simplex.functional)) < 25
        assert simplex.functional(min(simplex.high, key=simplex.functional)) > 25


class TestWitness:
    def test_offset_from_low_sum(self, simplex):
        w = witness_point(simplex)
        low_sum = simplex.low.total()
        assert tuple(a - b for a, b in zip(w, low_sum)) == (4, 4, 2)

    def test_functional_value(self, simplex):
        w = witness_point(simplex)
        assert simplex.functional(w) == simplex.functional(simplex.low.total()) + 50

    def test_frozen_coordinates(self, simplex):
        assert witness_point(simplex) == (49, 66, 29)


class TestQuadrantPointsBelow:
    def test_bridge_to_the_octant(self, simplex):
        below = quadrant_points_below(LinearFunctional((5, 4, 7)), 25)
        expected = PointConfig.of(list(simplex.low) + list(simplex.on_level))
        assert below == expected
        assert len(below) == 44

    def test_origin_only(self):
        assert quadrant_points_below(LinearFunctional((1, 1, 1)), 0).points == ((0, 0, 0),)

    def test_small_simplex_count(self):
        assert len(quadrant_points_below(LinearFunctional((1, 1, 1)), 2)) == 10

    def test_nonpositive_coefficients_rejected(self):
        with pytest.raises(ValueError):
            quadrant_points_below(LinearFunctional((1, 0, 1)), 5)
        with pytest.raises(ValueError):
            quadrant_points_below(LinearFunctional((1, -1, 1)), 5)


class TestPlaneCoordinates:
    def test_on_level_points_match_the_first_exception(self, simplex):
        planar = plane_coordinates(simplex.on_level)
        assert len(planar) == 4
        witness = are_equivalent(planar, exceptional_triangle(1))
        assert witness is not None

    def test_pair_sums_miss_the_doubled_center(self, simplex):
        planar = plane_coordinates(simplex.on_level)
        report = check_lattice_convex(wedge_power(planar, 2))
        assert not report.convex
        center_total = planar.total()
        assert all(c % 2 == 0 for c in center_total)
        doubled_center = tuple(c // 2 for c in center_total)
        assert report.missing.points == (doubled_center,)

    def test_coordinates_are_unimodular(self, simplex):
        # lattice distances within the plane survive the chart: pair sums agree
        planar = plane_coordinates(simplex.on_level)
        planar_wedge = oracles.naive_wedge(planar.points, 2)
        spatial_wedge = oracles.naive_wedge(simplex.on_level.points, 2)
        assert len(planar_wedge) == len(spatial_wedge) == 6

    def test_collinear_rejected(self):
        line = PointConfig.of([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        with pytest.raises(ValueError):
            plane_coordinates(line)

    def test_non_coplanar_rejected(self):
        cloud = PointConfig.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(ValueError):
            plane_coordinates(cloud)


# the elementary row additions of Z^3, a sign change and a swap: their
# products are the integer matrices of determinant +-1
ELEMENTARY = tuple(
    tuple(tuple(int(r == c) + k * int((r, c) == (i, j)) for c in range(3)) for r in range(3))
    for i, j in itertools.permutations(range(3), 2)
    for k in (1, -1)
) + (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
spatial_maps = st.builds(
    lambda factors, shift: reduce(
        lambda inner, f: AffineUnimodularMap(f, (0, 0, 0)).compose(inner),
        factors,
        AffineUnimodularMap.from_translation(shift),
    ),
    st.lists(st.sampled_from(ELEMENTARY), max_size=8),
    st.tuples(*[st.integers(-9, 9)] * 3),
)


@st.composite
def coplanar_sets(draw):
    """3 to 8 points u*e + v*f + o of a plane, not all on one line."""
    e, f, o = (draw(st.tuples(*[st.integers(-4, 4)] * 3)) for _ in range(3))
    assume(_plane_normal((0, 0, 0), e, f) is not None)
    planar = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 2), min_size=3, max_size=8, unique=True))
    (u0, v0), rest = planar[0], planar[1:]
    pairs = itertools.combinations(rest, 2)
    assume(any((u - u0) * (y - v0) != (x - u0) * (v - v0) for (u, v), (x, y) in pairs))
    return PointConfig.of([tuple(u * a + v * b + c for a, b, c in zip(e, f, o)) for u, v in planar])


class TestPlaneChart:
    @given(st.tuples(*[st.integers(-6, 6)] * 3))
    @example((0, 0, 1))
    @example((0, 0, -1))
    def test_chart_completes_a_primitive_normal_to_a_unimodular_matrix(self, normal):
        assume(math.gcd(*normal) == 1)
        assert _det((normal, *_plane_chart(normal))) in (1, -1)

    @given(coplanar_sets(), spatial_maps)
    def test_chart_is_injective_and_unimodularly_invariant(self, config, transform):
        planar = plane_coordinates(config)
        assert len(planar) == len(config)
        moved = plane_coordinates(apply_map(transform, config))
        assert are_equivalent(planar, moved) is not None

    def test_horizontal_plane_keeps_x_and_y(self):
        # the normal (0, 0, 1), where gcd(a, b) = 0, keeps x and y as they are
        config = PointConfig.of([(0, 0, 5), (3, 1, 5), (1, 2, 5), (0, 4, 5), (2, -1, 5)])
        assert plane_coordinates(config) == PointConfig.of([(0, 0), (3, 1), (1, 2), (0, 4), (2, -1)])

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_normal_with_one_zero_component(self, order):
        # the plane x + 2y = 3 holds exactly the points (3 - 2t, t, z)
        params = [(0, 0), (1, 0), (0, 4), (2, 1), (1, -2)]
        spatial = [(3 - 2 * t, t, z) for t, z in params]
        config = PointConfig.of([tuple(p[i] for i in order) for p in spatial])
        planar = plane_coordinates(config)
        assert are_equivalent(planar, PointConfig.of(params)) is not None


class TestMediumScaleTable:
    def test_dp_matches_naive_on_a_smaller_simplex(self):
        pts = [
            (x, y, z)
            for x in range(3)
            for y in range(3 - x)
            for z in range(3 - x - y)
        ]
        config = PointConfig.of(pts)
        assert len(config) == 10
        for size in (0, 1, 3, 5, 9, 10):
            assert wedge_power(config, size) == oracles.naive_wedge_power(config, size)

    def test_table_rebuild_reproduces_the_digest(self):
        pts = [(x, y, z) for x in range(3) for y in range(3 - x) for z in range(3 - x - y)]
        assert SubsetSumTable(pts, 5).digest(5) == SubsetSumTable(pts, 5).digest(5)


@st.composite
def level_cases(draw):
    """A 2D or 3D table's points, a depth, whether the table holds one layer, and a form's coefficients."""
    dim = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True))
    depth, one_layer = draw(st.integers(0, len(points))), draw(st.booleans())
    return points, depth, one_layer, draw(st.tuples(*[st.integers(-3, 3)] * dim))


@given(level_cases())
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 2, True, (0, 0, 0)))
@example(([(2, -1, 0), (-1, 2, 1), (0, 0, -2), (1, 1, 1)], 2, False, (1, 1, -1)))
def test_lowest_level_is_the_minimum_over_the_layer(case):
    # zero and negative coefficients make ties; every sum at the minimum is listed
    points, depth, one_layer, coeffs = case
    table = SubsetSumTable(points, depth, _one_layer=one_layer)
    sums = table.points_at(depth)
    levels = [sum(a * c for a, c in zip(coeffs, p)) for p in sums]
    least = min(levels)
    expected = tuple(sorted(p for p, level in zip(sums, levels) if level == least))
    assert oracles.lowest_level(table, depth, coeffs) == (least, expected)


def simplex_points(m):
    """The lattice points of the simplex x + y + z <= m."""
    return [(x, y, z) for x in range(m + 1) for y in range(m + 1 - x) for z in range(m + 1 - x - y)]


@st.composite
def simplex_cases(draw):
    """The points of x + y + z <= m for m = 2..4, a depth, and a form: the witness's, a tie-heavy one or any."""
    points = simplex_points(draw(st.integers(2, 4)))
    depth = draw(st.integers(0, len(points)))
    forms = st.sampled_from([(5, 4, 7), (1, 1, 1), (0, 0, 0), (1, 0, -1)]) | st.tuples(*[st.integers(-3, 3)] * 3)
    return points, depth, False, draw(forms)


@given(level_cases() | simplex_cases())
@example((simplex_points(6), 42, False, (5, 4, 7)))
def test_lowest_slice_is_the_scanned_lowest_level(case):
    # the certificate reads only the sorted levels; the oracle scans a full table's layer
    points, depth, _, coeffs = case
    table = SubsetSumTable(points, depth)
    assert _lowest_slice(points, depth, coeffs) == oracles.lowest_level(table, depth, coeffs)


def test_a_certified_slice_point_outside_the_wedge_raises(monkeypatch, simplex):
    # the run checks the certificate against the table: a slice holding the witness cannot pass
    monkeypatch.setattr(counterexample3d, "_lowest_slice", lambda *args: (712, (witness_point(simplex),)))
    with pytest.raises(RuntimeError, match="missing"):
        verify_counterexample(simplex)


def test_the_witness_run_peaks_under_8_mb():
    # after a warm-up call (numpy's import and first-use caches), the run holds its
    # table and one bit grid of the layer, not a coordinate array of its 425,997 sums
    verify_counterexample(build_colored_simplex())
    tracemalloc.start()
    try:
        report = verify_counterexample(build_colored_simplex())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 8 << 20, f"traced peak {peak / 2**20:.1f} MB"


def test_the_witness_table_is_the_box_of_its_own_layer(simplex):
    # layer 42 spans, per coordinate, from its 42 smallest values (14) to its 42 largest
    # (112): 99^3 cells, and a full table lays every layer out in a box of that shape
    table = SubsetSumTable(simplex.points.points, 42, _one_layer=True)
    assert (table.box_lo, table.box_hi, table.total_cells) == ((14, 14, 14), (112, 112, 112), 970_299)
    assert SubsetSumTable(simplex.points.points, 42).total_cells == 99**3
