"""Corner-cut verification: sums of d distinct quadrant points stay lattice-convex.

The nonnegative quadrant is truncated to the staircase triangle x + y <= B,
which is lattice-convex and, for B >= 2, contains the unit square, so it is
never one of the exceptional triangles.  Convexity of its d-th wedge power
then certifies that every lattice point of that wedge's hull is a sum of d
distinct quadrant points.
"""

from .geometry import BudgetError, PointConfig
from .wedge import ConvexityReport, SubsetSumTable, _abridged

BOUND_LIMIT = 1_000  # at it, (B + 1)(B + 2) / 2 = 501,501 points are listed before the table budget is checked


def truncated_quadrant(bound: int) -> PointConfig:
    """All (x, y) with x, y >= 0 and x + y <= bound."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    points = tuple((x, y) for x in range(bound + 1) for y in range(bound + 1 - x))
    assert len(points) == (bound + 1) * (bound + 2) // 2
    return PointConfig(2, points)  # distinct integer points, already in sorted order


def verify_corner_cut(subset_size: int, bound: int) -> ConvexityReport:
    """Lattice-convexity of the ``subset_size``-th wedge power of the truncation.

    Requires bound >= 2 so the truncation contains the unit square, keeping
    it clear of the exceptional family, and refuses a bound above
    BOUND_LIMIT before listing any point.  Of N points, a size d above N/2
    is read as size N - d reflected through the total of the truncation, as
    ``verify_polygon`` reads its upper sizes: leaving d points out reflects
    every sum of the other N - d, so the shallower table gives the same
    verdict, cardinality and reflected missing points.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > BOUND_LIMIT:
        raise BudgetError(f"bound {_abridged(bound)} is above the corner-cut bound limit of {BOUND_LIMIT}")
    quadrant = truncated_quadrant(bound)
    if not 1 <= subset_size <= len(quadrant):
        raise ValueError(
            f"subset size must be between 1 and {len(quadrant)} for bound {bound}"
        )
    depth = min(subset_size, len(quadrant) - subset_size)
    report = SubsetSumTable(quadrant.points, depth, dim=2).check_convex(depth)
    return report if depth == subset_size else report.reflected(quadrant.total())
