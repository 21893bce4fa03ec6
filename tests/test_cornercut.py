import pytest

import wedgepower.cornercut as cornercut_module
from wedgepower import PointConfig, SubsetSumTable, truncated_quadrant, verify_corner_cut, wedge_power

import oracles


def smallest_level_sum(count: int) -> int:
    """Sum of the ``count`` smallest values of x + y over the quadrant (greedy)."""
    total = 0
    taken = 0
    level = 0
    while taken < count:
        batch = min(level + 1, count - taken)  # level k holds k + 1 points
        total += level * batch
        taken += batch
        level += 1
    return total


class TestTruncatedQuadrant:
    @pytest.mark.parametrize("bound, size", [(0, 1), (2, 6), (6, 28)])
    def test_sizes(self, bound, size):
        assert len(truncated_quadrant(bound)) == size

    def test_contents(self):
        quadrant = truncated_quadrant(2)
        assert set(quadrant) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}

    @pytest.mark.parametrize("bound", range(31))
    def test_is_the_sorted_configuration_of_its_points(self, bound):
        # built without PointConfig.of's checks, it must be what they would give
        points = [(x, y) for x in range(bound + 1) for y in range(bound + 1) if x + y <= bound]
        assert truncated_quadrant(bound) == PointConfig.of(reversed(points), dim=2)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            truncated_quadrant(-1)


class TestVerifyCornerCut:
    def test_single_points_are_convex(self):
        for bound in (2, 4, 6):
            assert verify_corner_cut(1, bound).convex

    def test_pairs_at_bound_two(self):
        report = verify_corner_cut(2, 2)
        assert report.convex
        assert report.cardinality == len(oracles.naive_wedge(truncated_quadrant(2).points, 2))

    def test_triples_at_bound_three(self):
        report = verify_corner_cut(3, 3)
        assert report.convex
        assert report.cardinality == len(oracles.naive_wedge(truncated_quadrant(3).points, 3))

    @pytest.mark.parametrize("bound", range(2, 7))
    def test_sizes_above_half_are_the_direct_reading(self, bound, monkeypatch):
        # a size d above N/2 is read from a depth N - d table and reflected; the report
        # must be the one a depth-d table gives directly
        quadrant = truncated_quadrant(bound)
        n = len(quadrant)
        depths = []

        class Spy(SubsetSumTable):
            def __init__(self, points, depth, dim=None, **kwargs):
                depths.append(depth)
                super().__init__(points, depth, dim, **kwargs)

        monkeypatch.setattr(cornercut_module, "SubsetSumTable", Spy)
        for d in range(1, n + 1):
            direct = SubsetSumTable(quadrant.points, d, dim=2).check_convex(d)
            assert verify_corner_cut(d, bound) == direct, d
        assert depths == [min(d, n - d) for d in range(1, n + 1)]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_corner_cut(1, 1)
        with pytest.raises(ValueError):
            verify_corner_cut(0, 3)
        with pytest.raises(ValueError):
            verify_corner_cut(11, 3)  # the bound-3 triangle has only 10 points


class TestGrowth:
    def test_wedges_grow_with_the_bound(self):
        for bound in (2, 3, 4):
            for size in (1, 2, 3):
                smaller = set(wedge_power(truncated_quadrant(bound), size))
                bigger = set(wedge_power(truncated_quadrant(bound + 1), size))
                assert smaller <= bigger


class TestLevelBound:
    def test_coordinate_sums_respect_the_greedy_minimum(self):
        for bound in (2, 3, 4):
            quadrant = truncated_quadrant(bound)
            for size in (1, 2, 3, 5):
                if size > len(quadrant):
                    continue
                wedge = wedge_power(quadrant, size)
                assert all(x >= 0 and y >= 0 for x, y in wedge)
                floor = smallest_level_sum(size)
                levels = [x + y for x, y in wedge]
                assert min(levels) >= floor
                # the greedy picks distinct points inside the truncation, so it is attained
                assert min(levels) == floor
