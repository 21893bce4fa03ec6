"""The bitset checks and the normal form against the references in ``oracles``.

Convexity, p-goodness and union decomposition are decided on the big
integers of shared subset-sum tables; every answer, down to the missing
points and the p-goodness witness, must equal what the earlier
point-by-point implementations give.  Unimodular equivalence is decided by
comparing normal forms; it must agree with the earlier search over ordered
triples, the map ``are_equivalent`` reads off the normal-form frames must be
the very map that search finds first, and the grid run's orbit reduction
must report what examining every member would.
The subset-sum table's tight box must give the layers, counts, membership
answers and digests of the table in its earlier, larger box, and a
translated table's layers must be the original's, moved, and the byte walk
of ``points_of`` and ``coords`` must list a
bitset's points as the numpy unpacking does, and a digest must not depend on
the size of the slabs it is hashed in.  The
two-envelope ``hull_fill`` must give the earlier ring kernel's fill bit for
bit, ``hull_count``'s Pick count must be the size of that fill and of the
oracle's hull, and a table's ``check_convex`` the tuple-path report.  The
row-interval grid enumerator must list what the mask loop over all 2^cells
masks lists, and on grids past that loop's reach it must hold the hull
lattice points of random grid points.
The grid examination reads a table of depth N//2 and reflects the sizes
above it; its reports and problem lists must equal those of the full-depth
reading, on every grid orbit up to 3x3 and on random lattice-convex sets,
and ``exception_index``, which compares three hull corners, must agree
with the normal-form comparison on them and on random lattice triangles
that hold only some of their lattice points, and never compute a normal
form.
The deletion tables the examination grows from one stem of the points that
are not vertices must equal, bit for bit, tables built from each deletion's
own points; and the grid run's grouping by corner form must make the orbits
that normal forms make.
A table's layers must not depend on the order its points are fed in, and a
one-layer table must hold its full table's layer at its depth, bit for bit,
with the same digest, and refuse every other read.
"""

import itertools
import random
import unittest.mock
from functools import lru_cache, reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wedgepower import (
    AffineUnimodularMap,
    DimensionError,
    GridSpec,
    PointConfig,
    SubsetSumTable,
    apply_map,
    are_equivalent,
    check_lattice_convex,
    enumerate_lattice_convex,
    exception_index,
    exceptional_triangle,
    is_p_good,
    normal_form,
    truncated_quadrant,
    union_decomposition_holds,
    verify_grid,
    verify_polygon,
    wedge_power,
)
from wedgepower import geometry, harness
import wedgepower.wedge as wedge_module
from wedgepower.wedge import _reflect, hull_count, hull_fill

import oracles

GRIDS = (GridSpec(2, 2), GridSpec(3, 2))


@pytest.fixture(scope="module")
def grid_configs():
    return [config for grid in GRIDS for config in enumerate_lattice_convex(grid)]


def test_enumeration_matches_the_mask_loop():
    for grid in GRIDS:
        assert enumerate_lattice_convex(grid) == oracles.enumerate_lattice_convex(grid)


# every grid of at most 12 cells, single rows and columns among them, and the
# 16-cell grids of each shape
SMALL_GRIDS = [GridSpec(w, h) for w in range(12) for h in range(12) if (w + 1) * (h + 1) <= 12]
SIXTEEN_CELL_GRIDS = [GridSpec(3, 3), GridSpec(7, 1), GridSpec(15, 0)]


@pytest.mark.parametrize("grid", SMALL_GRIDS + SIXTEEN_CELL_GRIDS, ids=lambda g: f"{g.width}x{g.height}")
def test_row_intervals_match_the_hull_fill_mask_loop(grid):
    assert enumerate_lattice_convex(grid) == oracles.enumerate_by_masks(grid)


@pytest.mark.parametrize("grid", SMALL_GRIDS + [GridSpec(3, 3), GridSpec(4, 4)], ids=lambda g: f"{g.width}x{g.height}")
def test_chains_match_the_prefix_count_enumerator(grid):
    # the oracle counts each prefix's hull on a bitset; the two share the row-interval
    # search and Pick's formula, so this checks the chains, not the search
    assert enumerate_lattice_convex(grid) == oracles.enumerate_by_prefix_counts(grid)


@lru_cache(maxsize=None)
def _enumerated(size):
    """The classes of the size x size grid, past GridSpec's cell budget."""
    grid = object.__new__(GridSpec)
    object.__setattr__(grid, "width", size)
    object.__setattr__(grid, "height", size)
    return frozenset(config.points for config in enumerate_lattice_convex(grid))


def test_five_by_five_class_count():
    # 178,028 classes, as the chain enumerator and oracles.enumerate_by_prefix_counts
    # both counted them, with equal lists; the grid is past GridSpec's cell budget
    assert len(_enumerated(5)) == 178028


@pytest.mark.parametrize("size", [4, 5])
@given(st.data())
def test_hull_points_of_grid_points_are_enumerated(size, data):
    coordinate = st.integers(0, size)
    raw = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
    hull = oracles.hull_lattice_points(set(raw))
    min_x = min(x for x, _ in hull)
    min_y = min(y for _, y in hull)
    assert tuple(sorted((x - min_x, y - min_y) for x, y in hull)) in _enumerated(size)


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


# --- the two-envelope hull fill against the ring kernel ----------------------


def _assert_same_fill(layer, width):
    assert hull_fill(layer, width) == oracles.ring_hull_fill(layer, width), (layer, width)


def test_hull_fill_matches_the_ring_kernel_on_every_grid_mask():
    grid = GRIDS[1]
    for mask in range(1 << grid.cell_count):
        _assert_same_fill(mask, grid.height + 1)


def test_hull_fill_matches_the_ring_kernel_on_the_45_point_triangle():
    triangle = [(x, y) for x in range(9) for y in range(9 - x)]
    table = SubsetSumTable(triangle, len(triangle))
    for size in range(len(triangle) + 1):
        _assert_same_fill(table.layer(size), table._shape[0])


@pytest.mark.parametrize("bound", range(2, 13))
def test_hull_fill_matches_the_ring_kernel_on_corner_cuts(bound):
    quadrant = truncated_quadrant(bound)
    table = SubsetSumTable(quadrant.points, min(10, len(quadrant)), dim=2)
    for size in range(table.depth + 1):
        _assert_same_fill(table.layer(size), table._shape[0])


# few columns over many rows: thin hulls, many of them with rows that hold no lattice point
slivers = st.lists(st.tuples(st.integers(0, 3), st.integers(-9, 9)), min_size=1, max_size=4, unique=True)
margins = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))


def _padded(points, margin):
    """Points as a bitset in a wider box, with empty columns left and right and rows below: (bits, width)."""
    left, right, below = margin
    bits, width, _ = _bitset(points)
    padded, full = 0, (1 << width) - 1
    for y in range(bits.bit_length() // width + 1):
        padded |= ((bits >> (y * width)) & full) << ((y + below) * (left + width + right) + left)
    return padded, left + width + right


@given(st.one_of(planar_sets, slivers), margins)
@example([(0, 0), (1, 3)], (0, 0, 0))
@example([(0, 0), (2, 5), (1, 1)], (2, 1, 3))
def test_hull_fill_matches_the_ring_kernel_in_a_padded_box(raw, margin):
    _assert_same_fill(*_padded(sorted(set(raw)), margin))


# --- the Pick count against the fill and the hull oracle ---------------------


@given(st.one_of(planar_sets, slivers), margins)
@example([(3, 1)], (0, 0, 0))  # a point in a box of width 1
@example([(0, 0), (0, 3), (0, 7)], (0, 0, 2))  # a column of width 1, empty rows inside it
@example([(-2, 0), (3, 0)], (1, 2, 1))  # a row
@example([(0, 0), (2, 1), (4, 2), (6, 3)], (0, 1, 0))  # collinear, off the axes
@example([(0, 0), (1, 3)], (0, 0, 0))  # rows 1 and 2 hold no hull point
@example([(0, 0), (1, 3), (1, 4)], (1, 0, 0))  # empty rows inside a triangle
@example([(0, 0), (4, 0), (0, 4), (4, 4)], (0, 0, 0))  # a square, corners only
def test_hull_count_is_the_size_of_the_hull_fill(raw, margin):
    points = sorted(set(raw))
    layer, width = _padded(points, margin)
    count = hull_count(layer, width)
    assert count == hull_fill(layer, width).bit_count() == len(oracles.hull_lattice_points(points))


def test_hull_count_of_an_empty_layer_is_zero():
    assert hull_count(0, 3) == 0


def test_hull_fill_leaves_lattice_free_rows_empty():
    # the segment from (0, 0) to (1, 3) crosses rows 1 and 2 between lattice points
    assert hull_fill(1 | 1 << 7, 2) == 1 | 1 << 7
    assert oracles._row_ranges([(0, 0), (1, 3)]) == (0, [(0, 0), (1, 0), (1, 0), (1, 1)])


layer_sets = st.integers(1, 2).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True)
)


@given(layer_sets)
@example([(0,), (1,), (3,)])
@example(list(exceptional_triangle(1).points))
def test_check_convex_matches_the_tuple_path(points):
    dim = len(points[0])
    table = SubsetSumTable(points, len(points))
    for size in range(len(points) + 1):
        layer = PointConfig.of(table.points_at(size), dim=dim)
        assert table.check_convex(size) == oracles.check_lattice_convex(layer), (points, size)


def test_check_convex_sees_convex_and_non_convex_layers():
    line = SubsetSumTable([(0,), (1,), (3,)], 3)
    assert [line.check_convex(p).missing.points for p in range(4)] == [(), ((2,),), ((2,),), ()]
    triangle = SubsetSumTable(exceptional_triangle(1).points, 4)
    assert [triangle.check_convex(p).convex for p in range(5)] == [True, True, False, True, True]
    assert triangle.check_convex(2) == oracles.check_lattice_convex(wedge_power(exceptional_triangle(1), 2))


# --- the tight table box against the earlier box ------------------------------

# few values per coordinate, so inputs repeat coordinate values
point_sets = st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True)
)


@st.composite
def tables(draw):
    points = draw(point_sets)
    return points, draw(st.integers(0, len(points)))


def _assert_same_table(table, reference):
    origin = (0,) * table.dim
    assert table.contains(0, origin)
    assert all(a <= b for a, b in zip(reference.box_lo, table.box_lo))
    assert all(a >= b for a, b in zip(reference.box_hi, table.box_hi))
    corners = set(itertools.product(*zip(reference.box_lo, reference.box_hi)))
    units = [tuple(int(d == e) for e in range(table.dim)) for d in range(table.dim)]
    steps = [origin] + units + [tuple(-c for c in u) for u in units]
    for size in range(table.depth + 1):
        expected = reference.points_at(size)
        assert sorted(table.points_at(size)) == expected
        assert table.count(size) == len(expected)
        assert table.digest(size) == reference.digest(size)
        # every member, its lattice neighbours and the earlier box's corners
        probes = corners | {tuple(map(sum, zip(p, q))) for p in expected for q in steps}
        for point in probes:
            assert table.contains(size, point) == reference.contains(size, point), (size, point)
    assert not table.layer(table.depth + 1) and not table.contains(table.depth + 1, origin)


@given(tables())
@example(([(0, 0, 0), (0, -1, 0)], 1))  # layer 0's box, y in [0, 1], overhangs the digest box's [-1, 0]
def test_tight_box_gives_the_earlier_tables_answers(case):
    points, depth = case
    dim = len(points[0])
    _assert_same_table(SubsetSumTable(points, depth), oracles.SubsetSumTable(points, depth, dim))


@given(tables(), st.data())
def test_tables_in_a_given_box_give_the_earlier_answers(case, data):
    points, depth = case
    dim = len(points[0])
    rest = data.draw(st.lists(st.sampled_from(points), unique=True))
    rest_depth = data.draw(st.integers(0, min(depth, len(rest))))
    base = SubsetSumTable(points, depth)
    inside = base._derived(rest, [base.layer(0)] + [0] * rest_depth)
    assert (inside.box_lo, inside.box_hi) == (base.box_lo, base.box_hi)
    reference_base = oracles.SubsetSumTable(points, depth, dim)
    _assert_same_table(inside, oracles.SubsetSumTable(rest, rest_depth, dim, box=reference_base))


@given(point_sets, st.data())
def test_tables_are_translation_equivariant(points, data):
    # wedge_c(S + t) = wedge_c(S) + c*t, whatever boxes the two tables pick
    shift = data.draw(st.tuples(*[st.integers(-5, 5)] * len(points[0])))
    table = SubsetSumTable(points, len(points))
    moved = SubsetSumTable([tuple(map(sum, zip(p, shift))) for p in points], len(points))
    for size in range(len(points) + 1):
        expected = sorted(tuple(x + size * t for x, t in zip(p, shift)) for p in table.points_at(size))
        assert sorted(moved.points_at(size)) == expected
        assert moved.count(size) == table.count(size)


@given(tables(), st.data(), st.randoms(use_true_random=False))
def test_points_of_lists_what_the_numpy_unpacking_lists(case, data, rng):
    points, depth = case
    table = SubsetSumTable(points, depth)
    if data.draw(st.booleans()):  # a table of fewer points in the larger box
        rest = data.draw(st.lists(st.sampled_from(points), unique=True))
        rest_depth = data.draw(st.integers(0, min(depth, len(rest))))
        table = table._derived(rest, [table.layer(0)] + [0] * rest_depth)
    cells, size = table.total_cells, data.draw(st.integers(0, table.depth))
    layer = table.layer(size)
    spare = rng.getrandbits(-cells % 8) << cells  # the last byte's bits past the box
    for bits in (0, layer, layer & rng.getrandbits(cells), layer | spare):
        assert table.points_of(size, bits) == oracles.points_of(table, size, bits)


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True)
    ),
    st.data(),
)
def test_coords_list_what_the_numpy_unpacking_lists(points, data):
    # full, one-layer and derived tables; sizes out of range and derived tables short of points read empty layers
    depth = data.draw(st.integers(0, len(points)))
    kind = data.draw(st.sampled_from(["full", "one-layer", "derived"]))
    table = SubsetSumTable(points, depth, _one_layer=kind == "one-layer")
    sizes = [depth] if kind == "one-layer" else range(-1, depth + 2)
    if kind == "derived":
        rest = data.draw(st.lists(st.sampled_from(points), unique=True))
        table = table._derived(rest, [table.layer(0)] + [0] * data.draw(st.integers(0, depth)))
    for size in sizes:
        coords = table.coords(size)
        assert (coords.dtype.name, coords.shape[1]) == ("int64", table.dim)
        assert list(map(tuple, coords.tolist())) == oracles.points_of(table, size, table.layer(size))


@given(tables(), st.sampled_from([1, 2, 3, 5]))
def test_digests_do_not_depend_on_the_slab_size(case, chunk):
    # a chunk of a few bytes makes slabs of a few planes, so slabs start and end inside the table box
    points, depth = case
    table = SubsetSumTable(points, depth)
    reference = oracles.SubsetSumTable(points, depth, len(points[0]))
    with unittest.mock.patch.object(wedge_module, "_DIGEST_CHUNK", chunk):
        for size in range(depth + 1):
            assert table.digest(size) == reference.digest(size)


# --- feed order and one-layer tables against the full table ------------------


@given(tables(), st.randoms(use_true_random=False))
def test_tables_do_not_depend_on_the_order_of_their_points(case, rng):
    # the constructor feeds in ascending offset order; feeding one point per
    # call runs the permuted order itself
    points, depth = case
    table = SubsetSumTable(points, depth)
    permuted = rng.sample(points, len(points))
    assert SubsetSumTable(permuted, depth)._layers == table._layers
    stepwise = table._derived([], [table.layer(0)] + [0] * depth)
    for point in permuted:
        stepwise._feed([point])
    assert stepwise._layers == table._layers


def _probes(points, table):
    """Every sum of the table's points, their lattice neighbours and the corners of a box past the table's."""
    dim = table.dim
    units = [tuple(int(d == e) for e in range(dim)) for d in range(dim)]
    steps = [(0,) * dim] + units + [tuple(-c for c in u) for u in units]
    sums = {s for size in range(len(points) + 1) for s in oracles.naive_wedge(points, size)}
    corners = itertools.product(*zip((lo - 1 for lo in table.box_lo), (hi + 1 for hi in table.box_hi)))
    return {tuple(map(sum, zip(p, q))) for p in sums for q in steps} | set(corners)


@given(point_sets)
@example([(-3,), (2,), (-1,), (3,)])
@example([(-1, 2), (3, -2), (0, -3), (-2, -2), (1, 1)])
@example([(-1, 2, -3), (3, -2, 1), (0, 0, -1), (-2, -2, 2)])
def test_one_layer_tables_hold_the_full_tables_layer(points):
    # negative coordinates make negative offsets, so the feed shifts right too
    for depth in range(len(points) + 1):
        one = SubsetSumTable(points, depth, _one_layer=True)
        full = SubsetSumTable(points, depth)
        expected = oracles.naive_wedge(points, depth)
        assert one.count(depth) == full.count(depth) == len(expected)
        assert one.points_at(depth) == full.points_at(depth)
        assert one.digest(depth) == full.digest(depth)
        assert set(one.points_at(depth)) == expected
        for point in _probes(points, full):
            assert one.contains(depth, point) == full.contains(depth, point) == (point in expected)
        origin = (0,) * one.dim
        for size in (-1, *range(depth), depth + 1):
            reads = (one.layer, one.count, one.points_at, one.coords, lambda c: one.contains(c, origin))
            for read in reads:
                with pytest.raises(ValueError, match=f"holds only layer {depth}, not layer {size}"):
                    read(size)
        with pytest.raises(ValueError, match=f"holds only layer {depth}"):
            one._derived([])
        with pytest.raises(ValueError, match=f"holds only layer {depth}"):
            one._derived(points[:1], [one.layer(depth)])


@given(tables())
@example(([(-3,), (2,), (-1,), (3,)], 3))
@example(([(-1, 2, -3), (3, -2, 1), (0, 0, -1), (-2, -2, 2)], 2))
def test_one_layer_boxes_fit_their_layer(case):
    points, depth = case
    one, full = SubsetSumTable(points, depth, _one_layer=True), SubsetSumTable(points, depth)
    assert all(a <= b for a, b in zip(one._shape, full._shape))
    # inside the digest box, depth times each coordinate's extremes with the origin
    columns = list(zip(*points))
    assert all(min(0, depth * min(col)) <= lo for lo, col in zip(one.box_lo, columns))
    assert all(hi <= max(0, depth * max(col)) for hi, col in zip(one.box_hi, columns))
    if 2 * depth <= len(points):  # the widest layer is the last one: the box is exactly the layer's
        expected = oracles.naive_wedge(points, depth)
        assert one.box_lo == tuple(map(min, zip(*expected)))
        assert one.box_hi == tuple(map(max, zip(*expected)))


@given(
    tables(),
    st.lists(st.integers(-(10**30), 10**30), min_size=3, max_size=3),
    st.sampled_from(["full", "one-layer"]),
)
@example(([(0, 0), (1, 0), (0, 1)], 2), [10**30, -(10**30), 0], "one-layer")
@example(([(0, 0), (1, 0), (0, 1)], 2), [10**30, -(10**30), 0], "full")
def test_one_layer_boxes_do_not_grow_under_translation(case, vector, kind):
    # far from the origin, where a box from the origin would reach 10^30 cells per coordinate;
    # a full table's layer c moves by c times the shift, for every c up to the depth
    points, depth = case
    shift = vector[: len(points[0])]
    moved = [tuple(c + t for c, t in zip(p, shift)) for p in points]
    near, far = (SubsetSumTable(p, depth, _one_layer=kind == "one-layer") for p in (points, moved))
    assert far.total_cells == near.total_cells
    for size in [depth] if kind == "one-layer" else range(depth + 1):
        assert far.points_at(size) == [tuple(c + size * t for c, t in zip(p, shift)) for p in near.points_at(size)]


# --- the normal form and its equivalence maps against the search -------------


def test_exception_index_matches_the_search(grid_configs):
    for config in grid_configs:
        assert exception_index(config) == oracles.exception_index(config), config
    rng = random.Random(7)
    for k in range(1, 9):
        for _ in range(3):
            moved = apply_map(oracles.random_unimodular(rng), exceptional_triangle(k))
            assert exception_index(moved) == oracles.exception_index(moved) == k


@pytest.mark.parametrize("grid, orbits", [(GRIDS[0], 20), (GRIDS[1], 62)])
def test_grid_orbits(grid, orbits):
    members = {}
    for config in enumerate_lattice_convex(grid):
        members.setdefault(normal_form(config), []).append(config)
    assert len(members) == orbits
    # the search finds a map within each orbit and none between orbits, and
    # are_equivalent returns the very map it finds first
    for orbit in members.values():
        for source, target in itertools.product(orbit, repeat=2):
            witness = oracles.equivalence_by_search(source, target)
            assert witness is not None and are_equivalent(source, target) == witness, (source, target)
    representatives = [orbit[0] for orbit in members.values()]
    for source, target in itertools.permutations(representatives, 2):
        if len(source) == len(target):
            assert oracles.equivalence_by_search(source, target) is None, (source, target)
            assert are_equivalent(source, target) is None, (source, target)


# products of these generate every integer matrix of determinant +-1
GENERATORS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)),
              ((-1, 0), (0, 1)), ((0, 1), (1, 0)))
unimodular_maps = st.builds(
    lambda factors, shift: reduce(
        lambda inner, f: AffineUnimodularMap(f, (0, 0)).compose(inner),
        factors,
        AffineUnimodularMap.from_translation(shift),
    ),
    st.lists(st.sampled_from(GENERATORS), max_size=8),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)


@given(planar_sets, unimodular_maps)
def test_normal_form_is_invariant(raw, transform):
    config = PointConfig.of(raw)
    assert normal_form(apply_map(transform, config)) == normal_form(config)


@given(planar_sets)
def test_normal_form_is_an_equivalent_configuration(raw):
    config = PointConfig.of(raw)
    form = normal_form(config)
    assert form == tuple(sorted(form))
    assert oracles.equivalence_by_search(PointConfig.of(form), config) is not None


@given(planar_sets, planar_sets)
def test_equal_normal_forms_exactly_when_equivalent(first, second):
    a, b = PointConfig.of(first), PointConfig.of(second)
    assert (normal_form(a) == normal_form(b)) == (oracles.equivalence_by_search(a, b) is not None)


def _assert_same_map(source, target):
    assert are_equivalent(source, target) == oracles.equivalence_by_search(source, target), (
        source,
        target,
    )


@given(planar_sets, unimodular_maps)
def test_equivalence_maps_match_the_search(raw, transform):
    config = PointConfig.of(raw)
    moved = apply_map(transform, config)
    _assert_same_map(config, moved)
    _assert_same_map(moved, config)


SYMMETRIC = {
    "unit-square": PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)]),
    "grid-3x3": PointConfig.of([(x, y) for x in range(3) for y in range(3)]),
    **{f"exceptional-{k}": exceptional_triangle(k) for k in range(1, 7)},
    "quadrant-8": truncated_quadrant(8),
}


@pytest.mark.parametrize("config", SYMMETRIC.values(), ids=SYMMETRIC.keys())
def test_equivalence_maps_match_the_search_on_symmetric_inputs(config):
    rng = random.Random(len(config))
    transforms = [
        AffineUnimodularMap.identity(2),
        AffineUnimodularMap(((1, 1), (0, 1)), (3, -2)),
        AffineUnimodularMap(((-1, 0), (0, 1)), (0, 0)),
        AffineUnimodularMap(((0, 1), (1, 0)), (1, 1)),
    ] + [oracles.random_unimodular(rng) for _ in range(4)]
    for transform in transforms:
        moved = apply_map(transform, config)
        _assert_same_map(config, moved)
        _assert_same_map(moved, config)


def test_equivalence_maps_match_the_search_on_lines_and_points():
    # offsets 0, 1, 3 read the other way are 0, 2, 3; 0, 1, 4 matches neither
    patterns = ([0, 1, 3], [0, 2, 3], [0, 1, 4], [0, 5], [0, 2])
    steps = ((1, 0), (0, 1), (2, 1), (-1, 3), (3, -2))
    origins = ((0, 0), (4, -1))
    lines = [
        PointConfig.of([(ox + t * dx, oy + t * dy) for t in pattern])
        for pattern in patterns
        for dx, dy in steps
        for ox, oy in origins
    ]
    for source, target in itertools.product(lines, repeat=2):
        _assert_same_map(source, target)
    points = [PointConfig.of([p]) for p in ((0, 0), (3, -4), (-7, 2))]
    for source, target in itertools.product(points, repeat=2):
        _assert_same_map(source, target)


def test_orbit_members_inherit_a_representative_problem(monkeypatch):
    grid = GRIDS[1]
    configs = enumerate_lattice_convex(grid)
    target = normal_form(next(c for c in configs if len(c) == 6))
    examine = harness._examine_config
    examined = []

    def flag_one_orbit(config):
        examined.append(config)
        k, problems = examine(config)
        if normal_form(config) == target:
            problems = problems + [("not-p-good", 2)]
        return k, problems

    monkeypatch.setattr(harness, "_examine_config", flag_one_orbit)
    summary = verify_grid(grid)
    assert len(examined) == 62
    orbit = [c for c in configs if normal_form(c) == target]
    assert len(orbit) > 1
    assert [(v.kind, v.config, v.subset_size) for v in summary.violations] == [
        ("not-p-good", c, 2) for c in orbit
    ]
    assert summary.config_count == 420
    assert summary.exceptions_seen == {1: 8, 2: 4}


# --- the half-depth reading against the full-depth one ------------------------


@pytest.fixture(scope="module")
def orbit_representatives():
    """The first member of every normal-form orbit of the 2x2, 3x2 and 3x3 grids."""
    members = {}
    for grid in GRIDS + (GridSpec(3, 3),):
        for config in enumerate_lattice_convex(grid):
            members.setdefault(normal_form(config), config)
    return list(members.values())


def _assert_half_depth_matches(config):
    # every per-size verdict and missing list, exception_k and the verdict
    assert verify_polygon(config) == oracles.full_depth_verify_polygon(config), config
    assert harness._examine_config(config) == oracles.full_depth_examine_config(config), config
    # the reflection behind the sizes above N//2, on whole layers: their
    # missing lists hold at most one point each, so re-sorting shows only here
    n = len(config)
    for p in range(n // 2 + 1):
        assert _reflect(wedge_power(config, p), config.total()) == wedge_power(config, n - p), (config, p)


def test_half_depth_examination_matches_full_depth_on_every_orbit(orbit_representatives):
    assert len(orbit_representatives) == 152
    assert {len(c) % 2 for c in orbit_representatives} == {0, 1}
    for config in orbit_representatives:
        _assert_half_depth_matches(config)


@st.composite
def lattice_convex_sets(draw):
    """The lattice points of the hull of random points, or an exceptional triangle, moved by a lattice map."""
    if draw(st.booleans()):
        config = exceptional_triangle(draw(st.integers(1, 6)))
    else:
        corners = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6))
        config = PointConfig.of(oracles.hull_lattice_points(set(corners)))
    return apply_map(draw(unimodular_maps), config)


@given(lattice_convex_sets())
@example(exceptional_triangle(1))  # N = 4, the wedge at the middle size misses a point
@example(exceptional_triangle(2))  # N = 5, the miss at size 3 is the reflected one
@example(PointConfig.of([(0, 0)]))
@example(truncated_quadrant(3))
def test_half_depth_examination_matches_full_depth(config):
    _assert_half_depth_matches(config)


def test_exception_index_agrees_with_the_normal_form_comparison():
    for config in enumerate_lattice_convex(GridSpec(3, 3)):
        assert exception_index(config) == oracles.exception_index_by_normal_form(config), config
    rng = random.Random(11)
    for k in range(1, 7):
        for _ in range(4):
            assert exception_index(apply_map(oracles.random_unimodular(rng), exceptional_triangle(k))) == k


def test_exception_index_agrees_with_the_normal_form_comparison_on_partial_triangles():
    # a random lattice triangle in [-3, 3]^2 holds its corners and a random share of its
    # other lattice points, so most sets are not lattice-convex and many are triangles of
    # k + 3 points that are not the k-th exceptional one
    rng = random.Random(23)
    exceptional = checked = 0
    while checked < 4000:
        corners = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        if oracles._cross(*corners) == 0:
            continue
        others = [q for q in oracles.hull_lattice_points(corners) if q not in corners]
        config = PointConfig.of(corners + rng.sample(others, rng.randint(0, len(others))))
        expected = oracles.exception_index_by_normal_form(config)
        assert exception_index(config) == expected, config
        exceptional += expected is not None
        checked += 1
    assert exceptional >= 100


def test_exception_index_turns_down_other_corner_counts_before_a_normal_form(monkeypatch):
    def refuse(config):
        raise AssertionError(f"normal form computed for {config}")

    monkeypatch.setattr(geometry, "normal_form", refuse)
    square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])  # k = 1
    pentagon = PointConfig.of([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)])  # k = 3
    line = PointConfig.of([(x, 2 * x + 1) for x in range(5)])  # k = 2
    for config in (square, pentagon, line):
        assert exception_index(config) is None
    # triangles of k + 3 points are decided by their three corners alone: one of twice-area
    # 4, and the third exceptional triangle short of (1, 0), whose corners are not the second's
    short = PointConfig.of(q for q in exceptional_triangle(3) if q != (1, 0))
    for config in (truncated_quadrant(2), short):
        assert len(geometry._hull_ring(config.points)) == 3
        assert exception_index(config) is None
    rng = random.Random(5)
    for k in range(1, 7):
        assert exception_index(apply_map(oracles.random_unimodular(rng), exceptional_triangle(k))) == k


# --- deletion tables grown from one stem against independent builds -----------


def _assert_stem_tables_match(config, depth):
    base, deletions = harness._tables(config, depth)
    reference_base, references = oracles.per_deletion_tables(config, depth, depth)
    assert vars(base) == vars(reference_base)
    assert len(deletions) == len(references)
    for table, reference in zip(deletions, references):
        # every attribute: box, depth, the depth and ranges the digest reads, and each layer's bits
        assert vars(table) == vars(reference), (config, depth)


def _assert_stem_tables_match_at_every_use(config):
    """The depths the examination, is_p_good and union_decomposition_holds build at."""
    n = len(config)
    for depth in sorted({n // 2, n} | set(range(1, n))):
        _assert_stem_tables_match(config, depth)


def test_stem_tables_match_independent_builds_on_every_orbit(orbit_representatives):
    for config in orbit_representatives:
        _assert_stem_tables_match_at_every_use(config)


@given(lattice_convex_sets())
@example(exceptional_triangle(1))  # one stem point, fewer than depths 2 to 4
@example(PointConfig.of([(0, 0)]))  # no stem point, one empty deletion
@example(PointConfig.of([(0, 0), (1, 2), (2, 4), (3, 6)]))  # collinear: two vertices
def test_stem_tables_match_independent_builds(config):
    _assert_stem_tables_match_at_every_use(config)


OTHER_DIMENSIONS = {
    "line-1d": PointConfig.of([(0,), (1,), (2,), (3,), (4,)]),
    "point-1d": PointConfig.of([(7,)]),
    # (1, 1, 1) is the only point that is not a vertex
    "simplex-3d": PointConfig.of([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]),
    "cube-3d": PointConfig.of(list(itertools.product((0, 1), repeat=3))),
}


@pytest.mark.parametrize("config", OTHER_DIMENSIONS.values(), ids=OTHER_DIMENSIONS.keys())
def test_stem_tables_match_independent_builds_in_dimensions_1_and_3(config):
    if config.dim == 3:
        # vertex sets are planar, so no deletion table is built and p-goodness is refused
        with pytest.raises(DimensionError, match="dimension 3"):
            harness._tables(config, 1)
        for p in range(1, len(config)):
            with pytest.raises(DimensionError, match="dimension 3"):
                is_p_good(config, p)
        return
    _assert_stem_tables_match_at_every_use(config)
    for p in range(1, len(config)):
        assert is_p_good(config, p) == oracles.is_p_good(config, p), (config, p)


# --- grouping by corner form against grouping by normal form --------------------


@pytest.mark.parametrize("grid", [GridSpec(w, h) for w in range(5) for h in range(5)], ids=lambda g: f"{g.width}x{g.height}")
def test_rings_read_off_the_chains_are_the_hull_rings(grid):
    # the same corners in the same counterclockwise order, from any starting corner
    for points, ring in harness._classes(grid):
        expected = geometry._hull_ring(points) or list(points)
        assert expected in [ring[i:] + ring[:i] for i in range(len(ring))], points


@pytest.mark.parametrize("grid", GRIDS + (GridSpec(3, 3), GridSpec(4, 4)), ids=lambda g: f"{g.width}x{g.height}")
def test_corner_forms_make_the_normal_form_orbits(grid, monkeypatch):
    configs = enumerate_lattice_convex(grid)
    by_corners, by_normal_form = {}, {}
    for config in configs:
        by_corners.setdefault(oracles.corner_form(config), []).append(config)
        by_normal_form.setdefault(normal_form(config), []).append(config)
    # the same orbits, met in the same order, so the same representatives
    orbits = list(by_normal_form.values())
    assert list(by_corners.values()) == orbits
    # verify_grid's grouping: each representative flags itself, and every class
    # is listed with the flag of the representative it was grouped with
    monkeypatch.setattr(harness, "_examine_config", lambda config: (None, [("orbit", config)]))
    grouped = {}
    for violation in verify_grid(grid).violations:
        grouped.setdefault(violation.subset_size, []).append(violation.config)
    assert grouped == {orbit[0]: orbit for orbit in orbits}


@given(lattice_convex_sets(), lattice_convex_sets(), st.integers(0, 2**32))
@example(exceptional_triangle(3), truncated_quadrant(2), 0)  # two triangles of six points
@example(PointConfig.of([(0, 0), (1, 2), (2, 4)]), PointConfig.of([(5, 0), (5, 1), (5, 2)]), 1)
def test_equal_corner_forms_exactly_when_equivalent(first, second, seed):
    moved = apply_map(oracles.random_unimodular(random.Random(seed)), first)
    for other in (moved, second):
        same = oracles.corner_form(first) == oracles.corner_form(other)
        assert same == (oracles.equivalence_by_search(first, other) is not None), (first, other)
