import importlib
import inspect
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import wedgepower
from wedgepower import (
    AffineUnimodularMap,
    DimensionError,
    PointConfig,
    apply_map,
    are_equivalent,
    check_lattice_convex,
    exception_index,
    exceptional_triangle,
    normal_form,
    remove_vertex,
    truncated_quadrant,
    vertex_set,
)
from wedgepower import geometry
from wedgepower.geometry import _hull_ring
from wedgepower.render import render_svg

import oracles

FIRST_EXCEPTION = [(0, 1), (1, 0), (-1, -1), (0, 0)]

planar_points = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    min_size=1,
    max_size=8,
    unique=True,
)

# one to five points along a line, so a single point too
collinear_points = st.builds(
    lambda start, step, offsets: [(start[0] + t * step[0], start[1] + t * step[1]) for t in offsets],
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
    st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True),
)


def grid_config(n):
    return PointConfig.of([(x, y) for x in range(n) for y in range(n)])


def hull_points(config):
    """The lattice points of conv(config): the set and the points ``check_lattice_convex`` finds missing."""
    return PointConfig.of([*config.points, *check_lattice_convex(config).missing.points], dim=config.dim)


@st.composite
def unimodular_maps(draw):
    """Identity after random row steps: add a multiple of another row, or negate a row."""
    n = draw(st.integers(1, 3))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, k in draw(st.lists(steps, max_size=8)):
        rows[i] = [-a for a in rows[i]] if i == j else [a + k * b for a, b in zip(rows[i], rows[j])]
    shift = draw(st.tuples(*[st.integers(-9, 9)] * n))
    return AffineUnimodularMap(tuple(map(tuple, rows)), shift)


class TestConvexHull:
    """The strict hull ring that vertex sets, frames and ``render --hull`` read."""

    def test_triangle_with_interior_point(self):
        ring = _hull_ring(PointConfig.of(FIRST_EXCEPTION).points)
        assert set(ring) == {(-1, -1), (1, 0), (0, 1)}
        assert (0, 0) not in ring

    def test_ccw_and_strictly_convex(self):
        ring = _hull_ring(PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)]).points)
        assert len(ring) == 4
        for i in range(len(ring)):
            assert oracles._cross(ring[i - 2], ring[i - 1], ring[i]) > 0

    def test_collinear_input_gives_segment(self):
        assert _hull_ring(PointConfig.of([(0, 0), (1, 0), (2, 0)]).points) == [(0, 0), (2, 0)]

    def test_single_point(self):
        assert _hull_ring(PointConfig.of([(5, -3)]).points) == []

    def test_wrong_dimension_rejected(self):
        # the ring's public callers refuse non-planar sets
        solid = PointConfig.of([(1, 2, 3)])
        with pytest.raises(DimensionError):
            vertex_set(solid)
        with pytest.raises(DimensionError):
            render_svg(solid, show_hull=True)

    @given(planar_points)
    def test_ring_is_always_strictly_convex(self, raw):
        ring = _hull_ring(PointConfig.of(raw).points)
        assert len(set(ring)) == len(ring)
        if len(ring) > 2:
            for i in range(len(ring)):
                assert oracles._cross(ring[i - 2], ring[i - 1], ring[i]) > 0


class TestLatticePoints:
    """A hull's lattice points, read as the set plus what ``check_lattice_convex`` finds missing."""

    def test_third_exceptional_triangle(self):
        pts = hull_points(PointConfig.of([(0, 1), (3, 0), (-1, -1)]))
        assert pts.points == tuple(
            sorted([(0, 1), (3, 0), (-1, -1), (0, 0), (1, 0), (2, 0)])
        )

    def test_segment(self):
        assert hull_points(PointConfig.of([(0, 0), (3, 0)])).points == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_unit_triangle(self):
        assert len(hull_points(PointConfig.of([(0, 0), (1, 0), (0, 1)]))) == 3

    @given(planar_points)
    def test_matches_brute_force(self, raw):
        assert list(hull_points(PointConfig.of(raw))) == oracles.hull_lattice_points(raw)

    @given(
        st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9)),
        st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=3, max_size=7),
    )
    def test_integer_rows_match_fraction_rows(self, corner, raw):
        # far from the origin: check_lattice_convex moves the set to its minimum corner first
        ring = _hull_ring(PointConfig.of((corner[0] + x, corner[1] + y) for x, y in raw).points)
        if len(ring) > 2:
            expected = oracles.fraction_polygon_lattice_points(ring)
            assert hull_points(PointConfig.of(ring)) == expected


class TestMembership:
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=6),
        st.one_of(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.tuples(st.integers(-3, 3)),
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
            st.tuples(st.floats(-3, 3), st.integers(-3, 3)),
            st.tuples(st.text(max_size=1), st.integers(-3, 3)),
            st.tuples(st.none(), st.none()),
            st.just(()),
        ),
    )
    def test_agrees_with_set_membership(self, raw, query):
        config = PointConfig.of(raw, dim=2)
        assert (query in config) == (query in set(config.points))

    def test_unhashable_query_still_raises(self):
        config = PointConfig.of([(0, 0), (1, 1)])
        with pytest.raises(TypeError):
            ([0], 0) in config


class TestVertexSet:
    def test_interior_point_dropped(self):
        assert set(vertex_set(PointConfig.of(FIRST_EXCEPTION))) == {(0, 1), (1, 0), (-1, -1)}

    def test_grid_corners(self):
        assert set(vertex_set(grid_config(3))) == {(0, 0), (0, 2), (2, 0), (2, 2)}

    def test_one_dimensional_endpoints(self):
        assert vertex_set(PointConfig.of([(3,), (-2,), (0,), (1,)])).points == ((-2,), (3,))
        assert vertex_set(PointConfig.of([(5,)])).points == ((5,),)

    def test_collinear_endpoints(self):
        assert set(vertex_set(PointConfig.of([(0, 0), (1, 0), (2, 0)]))) == {(0, 0), (2, 0)}

    def test_dim3_extremal_points(self):
        # vertex sets are planar: the 3D witness needs none, and p-goodness is a planar step
        cloud = PointConfig.of([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
        with pytest.raises(DimensionError, match="dimension 3"):
            vertex_set(cloud)
        with pytest.raises(DimensionError, match="dimension 3"):
            remove_vertex(cloud, (0, 0, 0))


class TestRemoveVertex:
    def test_removes_extremal(self):
        rest = remove_vertex(PointConfig.of(FIRST_EXCEPTION), (0, 1))
        assert set(rest) == {(1, 0), (-1, -1), (0, 0)}

    def test_grid_corner(self):
        assert len(remove_vertex(grid_config(3), (0, 0))) == 8

    def test_interior_rejected(self):
        with pytest.raises(ValueError):
            remove_vertex(grid_config(3), (1, 1))


class TestApplyMap:
    def test_identity(self):
        config = PointConfig.of(FIRST_EXCEPTION)
        assert apply_map(AffineUnimodularMap.identity(2), config) == config

    def test_translation(self):
        config = PointConfig.of(FIRST_EXCEPTION)
        moved = apply_map(AffineUnimodularMap.from_translation((1, 1)), config)
        assert set(moved) == {(1, 2), (2, 1), (0, 0), (1, 1)}
        assert all(0 <= x <= 2 and 0 <= y <= 2 for x, y in moved)

    def test_shear(self):
        shear = AffineUnimodularMap(((1, 1), (0, 1)), (0, 0))
        assert set(apply_map(shear, PointConfig.of([(0, 0), (0, 1)]))) == {(0, 0), (1, 1)}

    def test_bad_determinant_rejected(self):
        with pytest.raises(ValueError):
            AffineUnimodularMap(((2, 0), (0, 1)), (0, 0))
        with pytest.raises(ValueError):
            AffineUnimodularMap(((1, 1), (1, 1)), (0, 0))

    def test_inverse_and_compose(self):
        rng = random.Random(7)
        for _ in range(25):
            m = oracles.random_unimodular(rng)
            both = m.compose(m.inverse())
            assert both == AffineUnimodularMap.identity(2)

    @given(unimodular_maps(), st.data())
    def test_inverse_undoes_the_map_in_every_dimension(self, f, data):
        point = data.draw(st.tuples(*[st.integers(-20, 20)] * f.dim))
        assert f.inverse().apply(f.apply(point)) == point
        assert f.compose(f.inverse()) == AffineUnimodularMap.identity(f.dim)


class TestEquivalence:
    def test_translation_witness(self):
        config = PointConfig.of(FIRST_EXCEPTION)
        target = apply_map(AffineUnimodularMap.from_translation((1, 1)), config)
        witness = are_equivalent(config, target)
        assert witness is not None
        assert apply_map(witness, config) == target

    def test_different_vertex_counts(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert are_equivalent(PointConfig.of(FIRST_EXCEPTION), square) is None

    def test_mirror_image_of_second_exception(self):
        config = exceptional_triangle(2)
        mirror_map = AffineUnimodularMap(((-1, 0), (0, 1)), (0, 0))
        assert mirror_map.det == -1
        target = apply_map(mirror_map, config)
        witness = are_equivalent(config, target)
        assert witness is not None
        assert apply_map(witness, config) == target

    def test_collinear_configurations(self):
        a = PointConfig.of([(0, 0), (1, 0), (3, 0)])
        # same gap pattern up to reversal, along the primitive direction (2,1)
        b = PointConfig.of([(0, 0), (4, 2), (6, 3)])
        witness = are_equivalent(a, b)
        assert witness is not None
        assert apply_map(witness, a) == b

    def test_collinear_gap_mismatch(self):
        a = PointConfig.of([(0, 0), (1, 0), (3, 0)])
        b = PointConfig.of([(0, 0), (1, 0), (4, 0)])
        assert are_equivalent(a, b) is None

    def test_equivalence_relation_on_random_corpus(self):
        rng = random.Random(2024)
        for _ in range(20):
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))}
            base = PointConfig.of(pts)
            # reflexive: the identity is always a witness, and the search agrees
            assert apply_map(AffineUnimodularMap.identity(2), base) == base
            assert are_equivalent(base, base) is not None
            first = apply_map(oracles.random_unimodular(rng), base)
            second = apply_map(oracles.random_unimodular(rng), first)
            w1 = are_equivalent(base, first)
            assert w1 is not None and apply_map(w1, base) == first
            # symmetric: the inverse of a witness is a witness
            assert apply_map(w1.inverse(), first) == base
            # transitive: composition of witnesses is a witness
            w2 = are_equivalent(first, second)
            assert w2 is not None
            assert apply_map(w2.compose(w1), base) == second


class TestExceptionIndex:
    def test_first(self):
        assert exception_index(PointConfig.of(FIRST_EXCEPTION)) == 1

    def test_fourth(self):
        pts = PointConfig.of(oracles.hull_lattice_points([(0, 1), (4, 0), (-1, -1)]))
        assert len(pts) == 7
        assert exception_index(pts) == 4

    def test_square_is_not_exceptional(self):
        assert exception_index(PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])) is None

    @pytest.mark.parametrize("k", range(1, 21))
    def test_closed_form_is_the_hull_lattice_points(self, k):
        corners = PointConfig.of([(0, 1), (k, 0), (-1, -1)])
        assert exceptional_triangle(k) == hull_points(corners)

    def test_corner_form_is_closed(self):
        # exception_index compares a triangle's corners with this form: three primitive
        # edges round twice-area 2k + 1, so by Pick's theorem exactly k + 3 lattice points
        for k in range(1, 201):
            form = ((0, 0), (1, 0), (2, 2 * k + 1))
            assert oracles.corner_form(exceptional_triangle(k)) == form, k
            assert len(oracles.hull_lattice_points(form)) == k + 3, k

    def test_detected_through_random_maps(self):
        rng = random.Random(99)
        for k in range(1, 7):
            base = exceptional_triangle(k)
            assert len(base) == k + 3
            for _ in range(4):
                moved = apply_map(oracles.random_unimodular(rng), base)
                assert exception_index(moved) == k


class TestNormalForm:
    def test_singleton_and_empty(self):
        assert normal_form(PointConfig.of([(5, -7)])) == ((0, 0),)
        assert normal_form(PointConfig.of([], dim=2)) == ()

    def test_collinear_takes_the_lesser_gap_pattern(self):
        # offsets 0, 3, 4 along (2, 1); read the other way they are 0, 1, 4
        config = PointConfig.of([(1, 1), (7, 4), (9, 5)])
        assert normal_form(config) == ((0, 0), (1, 0), (4, 0))

    def test_first_exception(self):
        assert normal_form(PointConfig.of(FIRST_EXCEPTION)) == ((0, 0), (1, 0), (1, 1), (2, 3))

    def test_unit_square_and_its_mirror(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        sheared = PointConfig.of([(0, 0), (1, 0), (3, 1), (4, 1)])
        assert normal_form(square) == normal_form(sheared) == ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dimensions_rejected(self, dim):
        with pytest.raises(DimensionError):
            normal_form(PointConfig.of([(0,) * dim, (1,) * dim]))

    def test_reads_the_frames_of_least_key_only(self, monkeypatch):
        # the triangle (0, 0), (1, 0), (0, 2) has six frames, each corner walked both ways
        # round; only the corner (1, 0), between its two primitive edges, has the least key
        made, frame = [], geometry._frame

        def counted(ring, i, turn, points):
            made.append((i, turn))
            return frame(ring, i, turn, points)

        monkeypatch.setattr(geometry, "_frame", counted)
        normal_form(PointConfig.of([(0, 0), (0, 1), (0, 2), (1, 0)]))
        assert made == [(1, 1), (1, -1)]

    def test_frames_are_not_held_at_once(self):
        # every point of the parabola is a hull corner: 400 frames of 200 points each,
        # about 9 MB if they were all held together
        parabola = PointConfig.of([(x, x * x) for x in range(200)])
        tracemalloc.start()
        try:
            form = normal_form(parabola)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(form) == 200
        assert peak < 1 << 20


class TestCornerForm:
    """The reference key for grid orbits (``oracles.corner_form``): the normal form of the hull corners."""

    def test_singleton_empty_and_collinear(self):
        assert oracles.corner_form(PointConfig.of([(5, -7)])) == ((0, 0),)
        assert oracles.corner_form(PointConfig.of([], dim=2)) == ()
        # four lattice points along (1, 2): the two ends, 3 steps apart
        assert oracles.corner_form(PointConfig.of([(x, 2 * x) for x in range(4)])) == ((0, 0), (3, 0))

    def test_is_the_normal_form_of_the_corners(self):
        for config in (PointConfig.of(FIRST_EXCEPTION), grid_config(3), truncated_quadrant(4)):
            assert oracles.corner_form(config) == normal_form(vertex_set(config))

    def test_reads_only_the_least_keyed_corners(self):
        # the triangle (0, 0), (1, 0), (0, 2): of its edges only the one on the y-axis
        # has lattice length 2, so the corner (1, 0) between the two primitive edges has
        # the least key, and the corner form and the normal form both read its frames
        config = PointConfig.of([(0, 0), (0, 1), (0, 2), (1, 0)])
        assert oracles.corner_form(config) == normal_form(vertex_set(config)) == ((0, 0), (1, 0), (1, 2))
        for other in ([(0, 0), (0, 1), (0, 2), (1, 1)], [(0, 0), (1, 1), (2, 2), (1, 0)]):
            assert oracles.corner_form(PointConfig.of(other)) == oracles.corner_form(config)

    @given(st.one_of(planar_points, collinear_points))
    @example([(5, -7)])
    def test_is_the_normal_form_of_the_vertex_set(self, raw):
        config = PointConfig.of(raw)
        assert oracles.corner_form(config) == normal_form(vertex_set(config))

    def test_needs_lattice_convex_sets(self):
        # the corners of a 2x2 square, with and without its centre: equal corner
        # forms, yet inequivalent sets, so the key groups lattice-convex sets only
        corners = PointConfig.of([(0, 0), (2, 0), (0, 2), (2, 2)])
        centred = PointConfig.of([*corners, (1, 1)])
        assert oracles.corner_form(corners) == oracles.corner_form(centred)
        assert normal_form(corners) != normal_form(centred)


class TestPointInHull:
    """Hull membership, by integer certificates and the brute-force oracle."""

    def test_doubled_center_among_pair_sums(self):
        pair_sums = PointConfig.of(
            [(6, 5, 0), (7, 2, 1), (5, 1, 3), (3, 7, 1), (1, 6, 3), (2, 3, 4)]
        )
        # an integer certificate: three times the point is a sum of three pair sums,
        # so the point is their average and lies in the hull
        thirds = [(6, 5, 0), (5, 1, 3), (1, 6, 3)]
        assert all(p in pair_sums for p in thirds)
        assert tuple(map(sum, zip(*thirds))) == tuple(3 * c for c in (4, 4, 2))

    def test_missing_origin_is_still_inside(self):
        wedge = PointConfig.of([(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)])
        assert (0, 0) not in wedge
        assert oracles.hull_membership((0, 0), wedge.points)
        assert check_lattice_convex(wedge).missing.points == ((0, 0),)

    def test_outside_bounding_box(self):
        wedge = PointConfig.of([(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)])
        assert not oracles.hull_membership((2, 0), wedge.points)
        assert (2, 0) not in hull_points(wedge)

    @given(planar_points, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    def test_agrees_with_brute_force_in_2d(self, raw, query):
        # for lattice queries, membership is the hull's lattice point enumeration
        config = PointConfig.of(raw)
        inside = query in hull_points(config)
        assert inside == oracles.hull_membership(query, raw)


class TestInvariants:
    @given(planar_points)
    def test_hull_idempotence(self, raw):
        config = PointConfig.of(raw)
        closure = hull_points(config)
        assert set(config).issubset(set(closure))
        assert check_lattice_convex(closure).convex
        # equality exactly when the configuration is lattice-convex
        assert (closure == config) == oracles.is_lattice_convex(raw)

    def test_unimodular_invariance_of_vertices(self):
        rng = random.Random(5)
        for _ in range(30):
            pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 9))}
            config = PointConfig.of(pts)
            transform = oracles.random_unimodular(rng)
            moved = apply_map(transform, config)
            assert len(moved) == len(config)
            assert vertex_set(moved) == apply_map(transform, vertex_set(config))

    def test_exact_arithmetic_at_large_magnitudes(self):
        # integer arithmetic never wraps, whatever the coordinate size
        big = 10**18
        config = PointConfig.of([(0, 0), (big, 1), (-big, 1)])
        assert vertex_set(config) == config
        assert config.total() == (0, 2)


class TestPublicSurface:
    # the package's public names, pinned: one joining or leaving is a public change
    EXPORTED = (
        "AffineUnimodularMap", "BudgetError", "ColoredSimplex", "ConvexityReport", "DimensionError",
        "GridSpec", "LinearFunctional", "Point", "PointConfig", "SubsetSumTable", "TheoremReport",
        "apply_map", "are_equivalent", "build_colored_simplex", "check_lattice_convex",
        "enumerate_lattice_convex", "exception_index", "exceptional_triangle", "is_p_good",
        "normal_form", "plane_coordinates", "quadrant_points_below", "remove_vertex",
        "truncated_quadrant", "union_decomposition_holds", "verify_corner_cut",
        "verify_counterexample", "verify_grid", "verify_polygon", "vertex_set", "wedge_power",
        "witness_point",
    )

    def test_every_exported_name_resolves(self):
        assert sorted(wedgepower.__all__) == sorted(self.EXPORTED)
        for name in wedgepower.__all__:
            assert getattr(wedgepower, name) is not None
        # the names are resolved on access, not held in the package's namespace, so dir() lists them
        public = {n for n in dir(wedgepower) if not n.startswith("_") and not inspect.ismodule(getattr(wedgepower, n))}
        assert public == set(wedgepower.__all__)

    def test_a_loaded_module_is_read_without_the_import_machinery(self, monkeypatch):
        import wedgepower.cornercut as cornercut

        def refuse(name, package=None):
            raise AssertionError(f"import_module({name!r}) called for a loaded module")

        monkeypatch.setattr(importlib, "import_module", refuse)
        assert wedgepower.verify_corner_cut is cornercut.verify_corner_cut
        # never cached in the package: a rebinding of the module's name shows through it
        rebound = object()
        monkeypatch.setattr(cornercut, "verify_corner_cut", rebound)
        assert wedgepower.verify_corner_cut is rebound
