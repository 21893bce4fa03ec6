import itertools
import os
from functools import reduce
from operator import or_

import pytest

from wedgepower import (
    BudgetError,
    GridSpec,
    PointConfig,
    exceptional_triangle,
    is_p_good,
    verify_grid,
    verify_polygon,
    vertex_set,
    wedge_power,
)
from wedgepower.harness import GridSummary, Violation, _hull_is_covered, _tables
from wedgepower.wedge import SubsetSumTable

import oracles
from oracles import library_classes, library_union_decomposition, normal_form, remove_vertex

# is_p_good returns the canonically smallest witness, so single-witness
# examples can be asserted exactly.
FIVE_ON_AXES = PointConfig.of([(0, 0), (0, 1), (1, 0), (2, 0), (3, 0)])


def grid_config(n):
    return PointConfig.of([(x, y) for x in range(n) for y in range(n)])


class TestEnumeration:
    def test_single_cell(self):
        assert len(library_classes(GridSpec(0, 0))) == 1

    def test_two_by_two_cells(self):
        # every nonempty subset of the unit square is lattice-convex ...
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for r in range(1, 5):
            for subset in itertools.combinations(cells, r):
                assert oracles.is_lattice_convex(list(subset))
        # ... and the 15 subsets collapse to 10 translation classes
        assert len(library_classes(GridSpec(1, 1))) == 10

    def test_three_by_three_cells_frozen_count(self):
        configs = library_classes(GridSpec(2, 2))
        assert len(configs) == 132
        for config in configs:
            assert oracles.is_lattice_convex(list(config.points))
            assert min(p[0] for p in config) == 0
            assert min(p[1] for p in config) == 0

    def test_four_by_three_cells_frozen_count(self):
        assert len(library_classes(GridSpec(3, 2))) == 420

    def test_a_row_inside_may_be_empty(self):
        # the segment (0,0)-(1,2) has no lattice point on row 1
        configs = library_classes(GridSpec(1, 2))
        assert PointConfig.of([(0, 0), (1, 2)]) in configs
        assert len(configs) == 30

    def test_five_by_five_cells_frozen_counts(self):
        # 18,019 classes, as the mask loop over all 2^25 masks also finds
        configs = library_classes(GridSpec(4, 4))
        assert len(configs) == 18019
        assert len({normal_form(c) for c in configs}) == 1522

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            GridSpec(5, 4)

    def test_enumeration_is_deterministic(self):
        first = library_classes(GridSpec(2, 1))
        second = library_classes(GridSpec(2, 1))
        assert first == second


class TestPGood:
    def test_five_point_polygon_witness(self):
        witness = is_p_good(FIVE_ON_AXES, 2)
        assert witness == (3, 0)  # the sum of the two interior points (1,0) and (2,0)
        for v in vertex_set(FIVE_ON_AXES):
            assert witness in set(wedge_power(remove_vertex(FIVE_ON_AXES, v), 2))

    def test_translated_variant(self):
        shifted = FIVE_ON_AXES.translate((-1, 0))
        assert is_p_good(shifted, 2) == (1, 0)

    def test_first_exception_is_not_2_good(self):
        assert is_p_good(exceptional_triangle(1), 2) is None

    def test_enough_interior_points_give_goodness(self):
        # whenever at least p points are not vertices, their sum is a witness
        for config in library_classes(GridSpec(2, 2)):
            if len(config) < 2:
                continue
            vertices = set(vertex_set(config))
            inner = [p for p in config if p not in vertices]
            for p in range(1, min(len(inner), len(config) - 1) + 1):
                witness = is_p_good(config, p)
                assert witness is not None
                inner_sum = tuple(map(sum, zip(*inner[:p])))
                for v in vertices:
                    assert inner_sum in set(wedge_power(remove_vertex(config, v), p))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            is_p_good(FIVE_ON_AXES, 0)
        with pytest.raises(ValueError):
            is_p_good(FIVE_ON_AXES, 5)
        with pytest.raises(ValueError):
            is_p_good(PointConfig.of([(0, 0)]), 1)


class TestUnionDecomposition:
    def test_three_by_three_grid(self):
        assert library_union_decomposition(grid_config(3), 2)

    def test_first_exception_fails(self):
        assert not library_union_decomposition(exceptional_triangle(1), 2)

    def test_segments(self):
        for n in (2, 3, 5):
            segment = PointConfig.of([(i, 0) for i in range(n)])
            assert library_union_decomposition(segment, 1)

    def test_failure_point_is_the_missing_origin(self):
        # for the first exception at size 2, the uncovered point is the origin
        base = exceptional_triangle(1)
        for v in vertex_set(base):
            others = wedge_power(remove_vertex(base, v), 2)
            assert not oracles.hull_membership((0, 0), list(others.points))


class TestFillIsCovered:
    """``_hull_is_covered``: is the hull fill inside the deletions' hulls?  Layers are counted, then fills built."""

    @staticmethod
    def _case(config, size):
        base, deletions = _tables(config, size)
        layers = reduce(or_, (table.layer(size) for table in deletions))
        fills = reduce(or_, (table.hull_fill(size) for table in deletions))
        return base, deletions, base.hull_fill(size), layers, fills

    def test_fills_cover_what_the_layers_leave_out(self):
        # the one orbit of the 3x2 grid whose union check needs the fills
        config = PointConfig.of([(0, 0), (1, 1), (1, 2), (2, 1), (3, 1)])
        base, deletions, whole, layers, fills = self._case(config, 2)
        assert whole & ~layers and not whole & ~fills
        assert _hull_is_covered(base, deletions, 2, base.hull_count(2))

    def test_neither_layers_nor_fills_cover(self):
        base, deletions, whole, _, fills = self._case(exceptional_triangle(1), 2)
        assert whole & ~fills
        assert not _hull_is_covered(base, deletions, 2, base.hull_count(2))

    def test_covering_layers_need_no_fill(self, monkeypatch):
        base, deletions, whole, layers, _ = self._case(grid_config(3), 2)
        assert not whole & ~layers

        def refuse(table, size):
            raise AssertionError("a hull fill was computed")

        monkeypatch.setattr(SubsetSumTable, "hull_fill", refuse)
        assert _hull_is_covered(base, deletions, 2, base.hull_count(2))


class TestVerifyPolygon:
    def test_first_exception(self):
        report = verify_polygon(exceptional_triangle(1))
        assert report.exception_k == 1
        assert report.verdict == "conforms"
        assert report.nonconvex_sizes == (2,)

    def test_third_exception(self):
        report = verify_polygon(exceptional_triangle(3))
        assert report.exception_k == 3
        assert report.count == 6
        assert report.nonconvex_sizes == (2, 4)
        assert report.verdict == "conforms"

    def test_unit_square(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        report = verify_polygon(square)
        assert report.exception_k is None
        assert report.nonconvex_sizes == ()
        assert report.verdict == "conforms"

    def test_report_json_shape(self):
        payload = verify_polygon(exceptional_triangle(1)).to_json()
        assert payload["verdict"] == "conforms"
        assert payload["exception_k"] == 1
        assert payload["per_p"][2] == {"p": 2, "convex": False, "missing": [[0, 0]]}

    def test_non_lattice_convex_input_is_refused(self):
        # the theorem is about lattice-convex sets; this hexagon misses six hull points
        hexagon = PointConfig.of([(0, 0), (2, 0), (3, 1), (1, 3), (-1, 1), (1, 1)])
        with pytest.raises(ValueError, match=r"not lattice-convex.*\(0, 1\), \(0, 2\), \(1, 0\)"):
            verify_polygon(hexagon)


class TestVerifyGrid:
    def test_summary_json_lists_violations_with_and_without_size(self):
        square = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        summary = GridSummary(
            GridSpec(1, 1),
            10,
            [Violation("wedge-convexity", square), Violation("not-p-good", FIVE_ON_AXES, 2)],
            {2: 3, 1: 4},
        )
        assert summary.to_json() == {
            "grid": [1, 1],
            "configs": 10,
            "violations": [
                {"kind": "wedge-convexity", "points": [[0, 0], [0, 1], [1, 0], [1, 1]]},
                {"kind": "not-p-good", "points": [[0, 0], [0, 1], [1, 0], [2, 0], [3, 0]], "p": 2},
            ],
            "exceptions_seen": [{"k": 1, "count": 4}, {"k": 2, "count": 3}],
        }

    def test_two_by_two_cells(self):
        summary = verify_grid(GridSpec(1, 1))
        assert summary.config_count == 10
        assert summary.violations == []
        assert summary.exceptions_seen == {}

    def test_three_by_three_cells(self):
        summary = verify_grid(GridSpec(2, 2))
        assert summary.config_count == 132
        assert summary.violations == []
        assert summary.exceptions_seen == {1: 4}

    def test_worker_count_does_not_change_the_summary(self):
        sequential = verify_grid(GridSpec(2, 1))
        parallel = verify_grid(GridSpec(2, 1), jobs=2)
        assert sequential.to_json() == parallel.to_json()

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_worker_count_out_of_range_is_rejected(self, jobs):
        # rejected before enumeration, so no worker pool is ever started
        with pytest.raises(ValueError, match="jobs must be between 1 and the CPU count"):
            verify_grid(GridSpec(1, 1), jobs=jobs)

    def test_summary_json_shape(self):
        payload = verify_grid(GridSpec(1, 1)).to_json()
        assert payload == {
            "grid": [1, 1],
            "configs": 10,
            "violations": [],
            "exceptions_seen": [],
        }


class TestInclusionMonotonicity:
    def test_witness_survives_in_supersets(self):
        # a goodness witness for a polygon works for any larger polygon
        grid = GridSpec(2, 2)
        cells = oracles.grid_cells(grid)
        full = PointConfig.of(cells)
        samples = []
        for mask in range(1, 1 << 9):
            subset = [cells[i] for i in range(9) if mask >> i & 1]
            if len(subset) >= 4 and oracles.is_lattice_convex(subset):
                samples.append(PointConfig.of(subset))
        assert len(samples) > 50
        checked = 0
        for small in samples[:: max(1, len(samples) // 40)]:
            for p in range(1, len(small) // 2 + 1):
                witness = is_p_good(small, p)
                if witness is None:
                    continue
                for v in vertex_set(full):
                    assert witness in set(wedge_power(remove_vertex(full, v), p))
                checked += 1
        assert checked > 10
