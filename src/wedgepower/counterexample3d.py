"""Convexity of wedge powers fails in three dimensions: an explicit witness.

The 84 lattice points of the simplex x + y + z <= 6 split under the linear
form 5x + 4y + 7z into 40 points below level 25, 40 above, and 4 exactly on
it.  The four level-25 points are a planar configuration whose pairwise
sums miss the doubled centre point, and that gap survives into the full
42-fold wedge power: the sum of the 40 low points plus twice the centre
lies in the hull of the wedge but not in the wedge itself.  The wedge's
lowest slice under the form is certified from sorted levels (``_lowest_slice``).
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import LinearFunctional, Point, PointConfig, _xgcd
from .wedge import SubsetSumTable, wedge_power

SIMPLEX_SCALE = 6
WEDGE_DEPTH = 42
LEVEL_COEFFS = (5, 4, 7)
LEVEL_VALUE = 25
LEVEL_POINTS = ((5, 0, 0), (1, 5, 0), (2, 2, 1), (0, 1, 3))


@dataclass(frozen=True)
class ColoredSimplex:
    """The 84-point simplex with its three-way split along the level plane."""

    points: PointConfig
    functional: LinearFunctional
    level: int
    low: PointConfig       # functional value below the level
    high: PointConfig      # above
    on_level: PointConfig  # exactly on it

    @property
    def plane_center(self) -> Point:
        """The on-level point that is the average of all four."""
        total = self.on_level.total()
        assert all(c % 4 == 0 for c in total)
        center = tuple(c // 4 for c in total)
        assert center in self.on_level
        return center

    @property
    def outer_triple(self) -> tuple[Point, ...]:
        return tuple(p for p in self.on_level if p != self.plane_center)


def _plane_normal(a: Point, b: Point, c: Point) -> Optional[tuple[int, ...]]:
    """The cross product of b - a and c - a divided by its gcd; None if the points are collinear."""
    u = tuple(y - x for x, y in zip(a, b))
    v = tuple(y - x for x, y in zip(a, c))
    n = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    g = math.gcd(*n)
    return tuple(x // g for x in n) if g else None


def build_colored_simplex() -> ColoredSimplex:
    """Construct and cross-check the colored simplex.

    The separating form is rederived from the frozen on-level points (it is,
    up to sign, the primitive normal of their plane) before the split is
    made, and the split must reproduce those points and the 40/40/4 counts
    exactly.
    """
    points = PointConfig.of(
        [
            (x, y, z)
            for x in range(SIMPLEX_SCALE + 1)
            for y in range(SIMPLEX_SCALE + 1 - x)
            for z in range(SIMPLEX_SCALE + 1 - x - y)
        ]
    )
    if len(points) != 84:
        raise RuntimeError(f"simplex has {len(points)} points, expected 84")

    p1, p2, _, p4 = LEVEL_POINTS
    normal = _plane_normal(p1, p2, p4)
    if normal not in (LEVEL_COEFFS, tuple(-c for c in LEVEL_COEFFS)):
        raise RuntimeError(f"plane normal {normal} does not match {LEVEL_COEFFS}")
    functional = LinearFunctional(LEVEL_COEFFS)
    if any(functional(p) != LEVEL_VALUE for p in LEVEL_POINTS):
        raise RuntimeError("a frozen on-level point is off the plane")

    low = PointConfig.of([p for p in points if functional(p) < LEVEL_VALUE])
    high = PointConfig.of([p for p in points if functional(p) > LEVEL_VALUE])
    on_level = PointConfig.of([p for p in points if functional(p) == LEVEL_VALUE])
    if (len(low), len(high), len(on_level)) != (40, 40, 4):
        raise RuntimeError(
            f"split counts {(len(low), len(high), len(on_level))} are not (40, 40, 4)"
        )
    if set(on_level.points) != set(LEVEL_POINTS):
        raise RuntimeError("on-level points differ from the frozen four")
    total = on_level.total()
    center = tuple(c // 4 for c in total)
    if any(c % 4 for c in total) or center not in on_level:
        raise RuntimeError("the on-level points do not average to one of them")
    return ColoredSimplex(points, functional, LEVEL_VALUE, low, high, on_level)


def witness_point(simplex: ColoredSimplex) -> Point:
    """Sum of the 40 low points plus twice the plane centre."""
    low_sum = simplex.low.total()
    center = simplex.plane_center
    return tuple(s + 2 * c for s, c in zip(low_sum, center))


@dataclass(frozen=True)
class Counterexample3DReport:
    counts: tuple[int, int, int]
    witness: Point
    witness_in_wedge: bool
    witness_in_hull: bool
    wedge_size: int
    slice_points: tuple[Point, ...]
    min_level_attained: int
    witness_level: int
    digest: str

    @property
    def holds(self) -> bool:
        """True when every expected assertion about the witness checks out."""
        return (
            self.counts == (40, 40, 4)
            and not self.witness_in_wedge
            and self.witness_in_hull
            and len(self.slice_points) == 6
            and self.min_level_attained == self.witness_level
        )

    def to_json(self) -> dict:
        return {
            "counts": list(self.counts),
            "witness": list(self.witness),
            "witness_in_wedge": self.witness_in_wedge,
            "witness_in_hull": self.witness_in_hull,
            "slice_size": len(self.slice_points),
            "min_level_attained": self.min_level_attained,
            "wedge_size": self.wedge_size,
            "digest": self.digest,
        }


def verify_counterexample(simplex: Optional[ColoredSimplex] = None) -> Counterexample3DReport:
    """Run the full 42-fold wedge computation and check the witness claims.

    The hull membership of the witness is certified without any linear
    programming: the witness is one third of the sum of three wedge members
    (low sum plus each pair from the outer on-level triple), and that
    identity is checked in exact integers.  The lowest level and its slice
    come from the certificate ``_lowest_slice``, and any disagreement of
    the table with it raises RuntimeError.
    """
    if simplex is None:
        simplex = build_colored_simplex()
    table = SubsetSumTable(simplex.points.points, WEDGE_DEPTH, _one_layer=True)

    witness = witness_point(simplex)
    functional = simplex.functional
    in_wedge = table.contains(WEDGE_DEPTH, witness)

    low_sum = simplex.low.total()
    generators = wedge_power(PointConfig.of(simplex.outer_triple), 2).translate(low_sum).points
    in_hull = tuple(map(sum, zip(*generators))) == tuple(3 * c for c in witness)

    min_level, slice_points = _lowest_slice(simplex.points.points, WEDGE_DEPTH, functional.coeffs)
    for p in (*generators, *slice_points):
        if not table.contains(WEDGE_DEPTH, p):
            raise RuntimeError(f"expected wedge member {p} is missing")
    if functional(witness) == min_level and in_wedge != (witness in slice_points):
        raise RuntimeError("the table and the certified slice disagree on the witness")

    return Counterexample3DReport(
        counts=(len(simplex.low), len(simplex.high), len(simplex.on_level)),
        witness=witness,
        witness_in_wedge=in_wedge,
        witness_in_hull=in_hull,
        wedge_size=table.count(WEDGE_DEPTH),
        slice_points=slice_points,
        min_level_attained=min_level,
        witness_level=functional(witness),
        digest=table.digest(WEDGE_DEPTH),
    )


def _lowest_slice(points: Sequence[Point], depth: int, coeffs: Sequence[int]) -> tuple[int, tuple[Point, ...]]:
    """The least value of ``coeffs`` . p over the sums p of ``depth`` distinct points, and every sum attaining it, sorted.

    A sum is least exactly when it takes the ``depth`` least levels: with
    ``cut`` the ``depth``-th least level, every point below the cut and the
    rest from the points at it.  No table is read.
    """
    if depth == 0:
        return 0, ((0,) * len(coeffs),)
    ordered = sorted((sum(a * c for a, c in zip(coeffs, p)), p) for p in points)
    levels = [level for level, _ in ordered]
    cut = levels[depth - 1]
    below, above = bisect_left(levels, cut), bisect_right(levels, cut)
    base = PointConfig.of((p for _, p in ordered[:below]), dim=len(coeffs)).total()
    at_cut = PointConfig.of((p for _, p in ordered[below:above]), dim=len(coeffs))
    return sum(levels[:depth]), wedge_power(at_cut, depth - below).translate(base).points


def quadrant_points_below(functional: LinearFunctional, cap: int) -> PointConfig:
    """All points of the nonnegative octant with functional value at most ``cap``.

    Strictly positive coefficients keep the answer finite.
    """
    coeffs = functional.coeffs
    if len(coeffs) != 3:
        raise ValueError("expected a functional on three coordinates")
    if any(c <= 0 for c in coeffs):
        raise ValueError("all coefficients must be strictly positive")
    if cap < 0:
        return PointConfig.of([], dim=3)
    a, b, c = coeffs
    points = [
        (x, y, z)
        for x in range(cap // a + 1)
        for y in range((cap - a * x) // b + 1)
        for z in range((cap - a * x - b * y) // c + 1)
    ]
    return PointConfig.of(points, dim=3)


def plane_coordinates(config: PointConfig) -> PointConfig:
    """Two-dimensional lattice coordinates of a coplanar 3D configuration.

    The points must span a genuine plane.  Its primitive normal and the two
    rows of ``_plane_chart`` form a unimodular matrix, and each point p goes
    to those two rows applied to p - p0, so the resulting planar
    configuration is unimodularly faithful: lattice points of the plane
    correspond exactly to integer pairs.
    """
    pts = config.points
    if config.dim != 3 or len(pts) < 3:
        raise ValueError("need at least three points in ambient dimension 3")
    base = pts[0]
    normals = (_plane_normal(base, b, c) for b, c in itertools.combinations(pts[1:], 2))
    normal = next((n for n in normals if n is not None), None)
    if normal is None:
        raise ValueError("points are collinear, not a plane")
    level = sum(n * c for n, c in zip(normal, base))
    if any(sum(n * c for n, c in zip(normal, p)) != level for p in pts):
        raise ValueError("points are not coplanar")

    rows = _plane_chart(normal)
    coords = [
        tuple(sum(r * (y - x) for r, x, y in zip(row, base, p)) for row in rows) for p in pts
    ]
    return PointConfig.of(coords, dim=2)


def _plane_chart(normal: Sequence[int]) -> tuple[Point, Point]:
    """Two rows that complete a primitive normal (a, b, c) to a unimodular matrix.

    With g = gcd(a, b) = a*x + b*y and g*s + c*t = 1, the rows (-y, x, 0)
    and (-t*a/g, -t*b/g, s) together with the normal have determinant
    s*g + c*t = 1.  The normal (0, 0, +-1), where g = 0, takes the x and y
    rows instead.
    """
    a, b, c = normal
    g, x, y = _xgcd(a, b)
    if g == 0:
        return (1, 0, 0), (0, 1, 0)
    _, s, t = _xgcd(g, c)
    return (-y, x, 0), (-t * a // g, -t * b // g, s)
