import hashlib
import itertools
import random
import tracemalloc
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedgepower import (
    AffineUnimodularMap,
    BudgetError,
    DimensionError,
    PointConfig,
    SubsetSumTable,
    apply_map,
    check_lattice_convex,
    exceptional_triangle,
    vertex_set,
    wedge_power,
)

import wedgepower.wedge as wedge_module
from wedgepower.wedge import _reflect

import oracles

small_configs = st.builds(
    PointConfig.of,
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1,
        max_size=8,
        unique=True,
    ),
)


class TestWedgePower:
    def test_first_exception_pair_sums(self):
        wedge = wedge_power(exceptional_triangle(1), 2)
        assert set(wedge) == {(-1, -1), (-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)}

    def test_unit_square_pair_sums(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert set(wedge_power(square, 2)) == {(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)}

    def test_empty_and_full_subsets(self):
        config = PointConfig.of([(2, 3), (5, -1), (0, 0)])
        assert wedge_power(config, 0).points == ((0, 0),)
        assert wedge_power(config, 3).points == (config.total(),)

    def test_collinear_pair_sums(self):
        config = PointConfig.of([(i, 0) for i in range(5)])
        expected = oracles.naive_wedge(config.points, 2)
        wedge = wedge_power(config, 2)
        assert set(wedge) == expected == {(j, 0) for j in range(1, 8)}
        assert len(wedge) == 2 * (5 - 2) + 1

    def test_out_of_range_gives_empty(self):
        config = PointConfig.of([(0, 0), (1, 1)])
        assert len(wedge_power(config, 3)) == 0
        assert len(wedge_power(config, -1)) == 0
        assert wedge_power(config, 3).dim == 2

    @given(small_configs, st.integers(0, 8))
    def test_dp_matches_naive(self, config, size):
        if size > len(config):
            size = len(config)
        assert wedge_power(config, size) == oracles.naive_wedge_power(config, size)

    def test_dp_matches_naive_in_dim_1_and_3(self):
        rng = random.Random(11)
        for dim in (1, 3):
            for _ in range(20):
                pts = {
                    tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(1, 7))
                }
                config = PointConfig.of(pts, dim=dim)
                for size in range(len(config) + 1):
                    assert wedge_power(config, size) == oracles.naive_wedge_power(config, size)

    @given(small_configs, st.integers(0, 8))
    def test_complement_identity(self, config, size):
        size = min(size, len(config))
        assert _reflect(wedge_power(config, size), config.total()) == wedge_power(config, len(config) - size)

    @given(small_configs, st.integers(1, 8))
    def test_contained_in_dilated_hull(self, config, size):
        size = min(size, len(config))
        dilated = PointConfig.of([tuple(size * c for c in v) for v in vertex_set(config)])
        for point in wedge_power(config, size):
            assert oracles.hull_membership(point, dilated.points)

    def test_monotone_in_the_base(self):
        rng = random.Random(3)
        for _ in range(20):
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(10)]
            sub = PointConfig.of(pts[:6])
            sup = PointConfig.of(pts)
            for size in range(len(sub) + 1):
                assert set(wedge_power(sub, size)) <= set(wedge_power(sup, size))


class TestConvexityCheck:
    def test_pair_sums_of_first_exception_miss_origin(self):
        report = check_lattice_convex(wedge_power(exceptional_triangle(1), 2))
        assert not report.convex
        assert report.missing.points == ((0, 0),)
        assert report.cardinality == 6

    def test_triple_sums_of_third_exception_are_convex(self):
        base = exceptional_triangle(3)
        assert len(base) == 6
        wedge = wedge_power(base, 3)
        assert wedge == oracles.naive_wedge_power(base, 3)
        report = check_lattice_convex(wedge)
        assert report.convex
        assert report.cardinality == 18
        rows = {}
        for x, y in wedge:
            rows.setdefault(y, []).append(x)
        assert {y: (min(xs), max(xs)) for y, xs in rows.items()} == {
            1: (1, 5),
            0: (-1, 6),
            -1: (0, 4),
        }

    def test_singleton_is_convex(self):
        assert check_lattice_convex(PointConfig.of([(7, -2)])).convex

    def test_dim1_configuration(self):
        gappy = PointConfig.of([(0,), (2,)], dim=1)
        report = check_lattice_convex(gappy)
        assert not report.convex
        assert report.missing.points == ((1,),)

    def test_dim3_rejected_with_pointer(self):
        with pytest.raises(DimensionError, match="witness"):
            check_lattice_convex(PointConfig.of([(0, 0, 0), (1, 0, 0)]))

    def test_dim3_table_refuses_a_hull_fill(self):
        # laid out flat, the third point would sit on a row of the first two
        table = SubsetSumTable([(0, 0, 0), (1, 1, 0), (0, 0, 1)], 1)
        with pytest.raises(DimensionError):
            table.hull_fill(1)
        with pytest.raises(DimensionError):
            table.hull_count(1)
        with pytest.raises(DimensionError):
            table.check_convex(1)

    def test_a_convex_layer_needs_no_fill(self, monkeypatch):
        # the verdict compares the hull count with the popcount; a fill is built only to list missing points
        table = SubsetSumTable([(x, y) for x in range(5) for y in range(5 - x)], 4, dim=2)
        expected = [table.count(size) for size in range(5)]

        def refuse(*args):
            raise AssertionError("a hull fill was built for a convex layer")

        monkeypatch.setattr(SubsetSumTable, "hull_fill", refuse)
        monkeypatch.setattr(wedge_module, "hull_fill", refuse)
        reports = [table.check_convex(size) for size in range(5)]
        assert [(r.convex, r.missing.points, r.cardinality) for r in reports] == [(True, (), n) for n in expected]

    def test_a_layer_that_is_not_convex_lists_its_fill_gaps(self):
        table = SubsetSumTable([(0, 0), (2, 0), (0, 2), (2, 2)], 1)
        report = table.check_convex(1)
        assert (report.convex, report.cardinality) == (False, 4)
        assert report.missing.points == ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
        assert table.hull_count(1) == table.hull_fill(1).bit_count() == 9

    def test_report_serialization(self):
        report = check_lattice_convex(wedge_power(exceptional_triangle(1), 2))
        assert report.to_json() == {
            "convex": False,
            "missing": [[0, 0]],
            "cardinality": 6,
        }

    def test_convexity_is_a_unimodular_invariant(self):
        rng = random.Random(17)
        for _ in range(15):
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 7))}
            config = PointConfig.of(pts)
            transform = oracles.random_unimodular(rng)
            moved = apply_map(transform, config)
            for size in range(len(config) + 1):
                wedge = wedge_power(config, size)
                moved_wedge = wedge_power(moved, size)
                # the wedge conjugates: linear part applied, translation scaled by size
                linear = AffineUnimodularMap(
                    transform.matrix,
                    tuple(size * t for t in transform.translation),
                )
                assert apply_map(linear, wedge) == moved_wedge
                if size == 0:
                    continue
                assert (
                    check_lattice_convex(wedge).convex
                    == check_lattice_convex(moved_wedge).convex
                )


class TestReflectComplement:
    def test_first_exception_is_self_complementary(self):
        base = exceptional_triangle(1)
        assert base.total() == (0, 0)
        reflected = _reflect(wedge_power(base, 2), base.total())
        wedge = wedge_power(base, 2)
        assert reflected == wedge  # N - p == p and the set is symmetric about the origin
        assert set(reflected) == {tuple(-c for c in p) for p in wedge}

    def test_size_zero_reflects_to_total(self):
        config = PointConfig.of([(1, 2), (3, 4), (0, -5)])
        assert _reflect(wedge_power(config, 0), config.total()).points == (config.total(),)

    def test_square_singles_reflect_to_triples(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        reflected = _reflect(wedge_power(square, 1), square.total())
        assert len(reflected) == 4
        assert reflected == wedge_power(square, 3)

    def test_a_reflected_report_is_the_report_of_the_reflected_set(self):
        # the 2x2 square's corners miss five points; reflected through (2, 3) they are
        # the corners of the square [0, 2] x [1, 3], which miss the same five reflected
        corners = PointConfig.of([(0, 0), (2, 0), (0, 2), (2, 2)])
        report = check_lattice_convex(corners)
        reflected = report.reflected((2, 3))
        assert reflected == check_lattice_convex(_reflect(corners, (2, 3)))
        assert (reflected.convex, reflected.cardinality) == (False, 4)
        assert reflected.missing == _reflect(report.missing, (2, 3))
        assert reflected.reflected((2, 3)) == report


class TestSubsetSumTable:
    def test_contains_count_and_coords_agree(self):
        pts = [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 2)]
        table = SubsetSumTable(pts, 3)
        for size in range(4):
            expected = oracles.naive_wedge(pts, size)
            assert table.count(size) == len(expected)
            assert set(table.points_at(size)) == expected
            for point in expected:
                assert table.contains(size, point)
        assert not table.contains(2, (50, 50))
        assert not table.contains(4, (0, 0))

    @pytest.mark.parametrize("point", [(1, 0), (1, 0, 0, 5)])
    def test_contains_refuses_a_point_of_another_dimension(self, point):
        table = SubsetSumTable([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
        assert table.contains(1, (1, 0, 0))
        with pytest.raises(DimensionError, match=f"dimension {len(point)}, the table has dimension 3"):
            table.contains(1, point)

    @pytest.mark.parametrize("size", [-3, -1, 3, 4])
    def test_out_of_range_sizes_read_the_empty_layer(self, size):
        table = SubsetSumTable([(0, 0), (1, 0), (0, 1)], 2)
        assert table.count(size) == 0
        assert table.coords(size).shape == (0, 2)
        assert table.points_at(size) == []
        # the empty layer in the digest box [0, 2] x [0, 2]: 9 cells, 2 bytes
        empty = hashlib.sha256(repr((2, (0, 0), (2, 2), size)).encode() + bytes(2))
        assert table.digest(size) == empty.hexdigest()

    def test_tables_share_a_given_box(self):
        pts = [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 2)]
        base = SubsetSumTable(pts, len(pts))
        for drop in pts:
            rest = [q for q in pts if q != drop]
            inside = base._derived(rest, [base.layer(0)] + [0] * 2)
            alone = SubsetSumTable(rest, 2)
            assert (inside.box_lo, inside.box_hi) == (base.box_lo, base.box_hi)
            for size in range(4):
                assert sorted(inside.points_of(size, inside.layer(size))) == sorted(
                    alone.points_of(size, alone.layer(size))
                )
        assert base.layer(len(pts) + 1) == 0

    def test_oversized_table_is_refused_before_allocating(self):
        # depth 3 over coordinates near 10^4 would need about 2.7e13 cells per layer,
        # and a one-layer table is held to the same budget
        far = [(10_000, 0, 0), (0, 9_999, 1), (1, 2, 10_000)]
        tracemalloc.start()
        try:
            for one_layer in (False, True):
                with pytest.raises(BudgetError, match="table budget"):
                    SubsetSumTable(far, 3, _one_layer=one_layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_admits_exactly_its_bit_count(self, monkeypatch):
        pts = [(0, 0), (2, 1)]  # depth 2: box [0, 2] x [0, 1], 6 cells, 3 + 2 layers
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", 30)
        assert SubsetSumTable(pts, 2).total_cells == 6
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", 29)
        with pytest.raises(BudgetError):
            SubsetSumTable(pts, 2)

    def test_one_layer_budget_charges_the_layers_it_holds(self, monkeypatch):
        # the points 0..4 at depth 4: a table's box is [6, 12], as wide as its widest
        # layers (sums 1..7 of two points, 3..9 of three), 7 cells; a one-layer table
        # holds at most 5 - 4 + 2 = 3 layers at once, a full table all 5, and each
        # shifted OR 2 more
        config = PointConfig.of([(i,) for i in range(5)])
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", 35)
        one = SubsetSumTable(config.points, 4, _one_layer=True)
        assert (one.box_lo, one.box_hi, one.total_cells) == ((6,), (12,), 7)
        assert wedge_power(config, 4).points == ((6,), (7,), (8,), (9,), (10,))
        with pytest.raises(BudgetError, match=r"7 cells x 7 layers \(5 held and 2 in a shifted OR\)"):
            SubsetSumTable(config.points, 4)
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", 34)
        with pytest.raises(BudgetError, match=r"7 cells x 5 layers \(3 held and 2 in a shifted OR\)"):
            wedge_power(config, 4)

    def test_one_layer_feed_holds_no_more_layers_than_charged(self, monkeypatch):
        feed, peaks = SubsetSumTable._feed, []

        class Watched(list):
            peak = 0

            def __setitem__(self, index, value):
                super().__setitem__(index, value)
                self.peak = max(self.peak, sum(map(bool, self)))

        def watched_feed(table, points):
            table._layers = Watched(table._layers)
            feed(table, points)
            peaks.append(table._layers.peak)

        monkeypatch.setattr(SubsetSumTable, "_feed", watched_feed)
        for n in range(1, 13):
            for depth in range(n + 1):
                SubsetSumTable([(i,) for i in range(n)], depth, _one_layer=True)
                assert peaks.pop() <= min(depth + 1, n - depth + 2), (n, depth)

    @pytest.mark.parametrize(
        "points, depth, one_layer",
        [
            ([(i * 200_000,) for i in range(40)], 39, True),  # 80,000,001 cells (layer 20 is widest) x (3 + 2) layers
            # the far point comes last and stretches layers 1..10 to nearly their whole boxes at once
            ([(i,) for i in range(10)] + [(2_000_000,)], 11, False),  # 2,000,021 cells x (12 + 2) layers
        ],
    )
    def test_feed_peak_memory_stays_within_the_charge(self, points, depth, one_layer, monkeypatch):
        held = min(depth + 1, len(points) - depth + 2) if one_layer else depth + 1
        tracemalloc.start()
        try:
            table = SubsetSumTable(points, depth, _one_layer=one_layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charge = table.total_cells * (held + 2)
        assert peak <= charge // 8
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", charge - 1)
        with pytest.raises(BudgetError, match="table budget"):
            SubsetSumTable(points, depth, _one_layer=one_layer)

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6, unique=True)
        ),
        st.data(),
    )
    def test_budget_refuses_exactly_the_tables_above_it(self, points, data):
        depth = data.draw(st.integers(0, len(points)))
        # each layer's own box, from the sums of its size; the table's shape is the widest
        # layer's per coordinate, and its box starts at layer depth's least sums
        dim = len(points[0])
        spans = []
        for size in range(depth + 1):
            sums = [tuple(map(sum, zip((0,) * dim, *subset))) for subset in itertools.combinations(points, size)]
            spans.append([(min(col), max(col)) for col in zip(*sums)])
        shape = [max(b - a + 1 for a, b in column) for column in zip(*spans)]
        lo = tuple(a for a, _ in spans[depth])
        hi = tuple(a + n - 1 for a, n in zip(lo, shape))
        needed = (depth + 3) * prod(shape)
        budget = data.draw(st.one_of(st.integers(0, 2 * needed), st.sampled_from([needed - 1, needed])))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wedge_module, "TABLE_BIT_BUDGET", budget)
            if needed > budget:
                with pytest.raises(BudgetError, match="table budget"):
                    SubsetSumTable(points, depth)
                return
            table = SubsetSumTable(points, depth)
        assert (table.box_lo, table.box_hi) == (lo, hi)

    def test_digest_layout_beyond_the_budget_is_refused(self, monkeypatch):
        # unit vectors at depth 4: a [0, 1]^4 box of 16 cells x (5 + 2) layers, a [0, 4]^4 digest layout
        units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", 112)
        table = SubsetSumTable(units, 4)
        assert table.total_cells == 16
        with pytest.raises(BudgetError, match="digest layout needs 625 cells"):
            table.digest(4)

    def test_digest_is_deterministic(self):
        pts = [(0, 0, 0), (1, 2, 0), (0, 1, 1), (2, 0, 1)]
        first = SubsetSumTable(pts, 2)
        second = SubsetSumTable(pts, 2)
        assert first.digest(2) == second.digest(2)
        assert first.digest(1) != first.digest(2)
