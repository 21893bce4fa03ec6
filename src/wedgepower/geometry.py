"""Exact integer geometry for lattice point sets in dimensions 1 to 3.

Everything here runs on plain Python integers: orientation predicates are
exact cross products, polygon rows run between integer ceilings and floors
of two envelopes, and divisions are floor divisions that are exact or
rounded on purpose.  No floating point and no rationals anywhere.  Vertex
sets are planar or one-dimensional, normal forms and equivalences planar;
dimension 3 has configurations, maps and determinants only.
"""

import bisect
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

Point = tuple[int, ...]


class DimensionError(ValueError):
    """Mismatched or unsupported ambient dimension."""


class BudgetError(RuntimeError):
    """A guarded operation would exceed its enumeration or memory budget."""


def _as_point(value: Iterable[int]) -> Point:
    pt = tuple(value)
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"lattice point coordinates must be integers, got {c!r}")
    return pt


@dataclass(frozen=True)
class PointConfig:
    """A finite set of lattice points of one dimension, kept sorted and deduplicated.

    Equality is structural: two configurations are equal exactly when they
    contain the same points in the same ambient dimension.
    """

    dim: int
    points: tuple[Point, ...]

    @classmethod
    def of(cls, points: Iterable[Iterable[int]], dim: Optional[int] = None) -> "PointConfig":
        pts = sorted({_as_point(p) for p in points})
        if pts:
            inferred = len(pts[0])
            if dim is None:
                dim = inferred
            for p in pts:
                if len(p) != dim:
                    raise DimensionError(f"point {p} has dimension {len(p)}, expected {dim}")
        elif dim is None:
            raise DimensionError("an empty configuration needs an explicit dimension")
        if dim not in (1, 2, 3):
            raise DimensionError(f"ambient dimension must be 1, 2 or 3, got {dim}")
        return cls(dim, tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, point: object) -> bool:
        try:
            i = bisect.bisect_left(self.points, point)
        except TypeError:  # not comparable with integer tuples: hashing decides, as a set would
            return point in set(self.points)
        return i < len(self.points) and self.points[i] == point

    def total(self) -> Point:
        """Coordinate-wise sum of all points (the reflection pivot for complements)."""
        return tuple(sum(c) for c in zip(*self.points)) if self.points else (0,) * self.dim

    def translate(self, offset: Sequence[int]) -> "PointConfig":
        off = _as_point(offset)
        if len(off) != self.dim:
            raise DimensionError("translation vector has wrong dimension")
        return PointConfig(self.dim, tuple(tuple(a + b for a, b in zip(p, off)) for p in self.points))


@dataclass(frozen=True)
class AffineUnimodularMap:
    """x -> matrix @ x + translation with an integer matrix of determinant +-1.

    Such maps are exactly the affine bijections of the integer lattice.
    """

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square and nonempty")
        if len(self.translation) != n:
            raise ValueError("translation length must match matrix size")
        for value in (*self.translation, *(c for row in self.matrix for c in row)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"map entries must be integers, got {value!r}")
        if self.det not in (1, -1):
            raise ValueError(f"matrix determinant must be +1 or -1, got {self.det}")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def det(self) -> int:
        return _det(self.matrix)

    @classmethod
    def identity(cls, dim: int) -> "AffineUnimodularMap":
        return cls(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)), (0,) * dim)

    @classmethod
    def from_translation(cls, offset: Sequence[int]) -> "AffineUnimodularMap":
        off = _as_point(offset)
        return cls(tuple(tuple(int(i == j) for j in range(len(off))) for i in range(len(off))), off)

    def apply(self, point: Sequence[int]) -> Point:
        pt = tuple(point)
        if len(pt) != self.dim:
            raise DimensionError("point dimension does not match map")
        return tuple(sum(row[j] * pt[j] for j in range(self.dim)) + t for row, t in zip(self.matrix, self.translation))

    def compose(self, inner: "AffineUnimodularMap") -> "AffineUnimodularMap":
        """The map ``self(inner(x))``."""
        if inner.dim != self.dim:
            raise DimensionError("cannot compose maps of different dimensions")
        n = self.dim
        mat = tuple(
            tuple(sum(self.matrix[i][k] * inner.matrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return AffineUnimodularMap(mat, self.apply(inner.translation))

    def inverse(self) -> "AffineUnimodularMap":
        d, n = self.det, self.dim
        # the adjugate's entry (i, j) is the signed determinant of minor (j, i)
        inv = tuple(
            tuple((-1) ** (i + j) * _det(_minor(self.matrix, j, i)) // d for j in range(n)) for i in range(n)
        )
        shift = tuple(-sum(inv[i][j] * self.translation[j] for j in range(n)) for i in range(n))
        return AffineUnimodularMap(inv, shift)


@dataclass(frozen=True)
class LinearFunctional:
    """Integer linear form; calling it evaluates the dot product."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or not any(self.coeffs):
            raise ValueError("functional coefficients must not all be zero")

    def __call__(self, point: Sequence[int]) -> int:
        return sum(c * x for c, x in zip(self.coeffs, point))


def _minor(matrix: Sequence[Sequence[int]], i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The matrix without row ``i`` and column ``j``."""
    return tuple(tuple(v for c, v in enumerate(row) if c != j) for r, row in enumerate(matrix) if r != i)


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant up to 3x3, expanded along the first row; the empty matrix has determinant 1."""
    n = len(matrix)
    if n == 0:
        return 1
    if n <= 3:
        return sum((-1) ** j * matrix[0][j] * _det(_minor(matrix, 0, j)) for j in range(n))
    raise DimensionError("determinants supported up to 3x3")


def _lower_chain(pts: Iterable[Point]) -> list[Point]:
    """Strict corners of the lower hull of points sorted left to right (monotone chain).

    Before p is appended, corners are popped until chain[-2], chain[-1], p
    turn left, that is until the cross product of the two steps is positive.
    """
    chain: list[Point] = []
    for p in pts:
        bx, by = p
        while len(chain) > 1:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (by - oy) > (ay - oy) * (bx - ox):
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull_ring(pts: Sequence[Point]) -> list[Point]:
    """Strict hull corners of sorted points, counterclockwise."""
    return _lower_chain(pts)[:-1] + _lower_chain(reversed(pts))[:-1]


def _ceil_envelope(rows: Sequence[Point]) -> list[int]:
    """Ceiling of the lower convex envelope of (y, x) rows, y increasing, at every y.

    The envelope is the least x over the hull of the rows at each height, so
    rows of row minima give a hull's left boundary; rows of negated maxima
    give its right boundary negated, since floor(x) = -ceil(-x).
    """
    chain = _lower_chain(rows)
    ay, ax = chain[0]
    out = [ax]
    for by, bx in chain[1:]:
        dy, dx = by - ay, bx - ax
        out += [bx] if dy == 1 else [ax - (-dx * i // dy) for i in range(1, dy + 1)]
        ay, ax = by, bx
    return out


def vertex_set(config: PointConfig) -> PointConfig:
    """The extremal points of conv(config) for dimension 1 or 2: those not in the hull of the others."""
    if config.dim == 3:
        raise DimensionError("vertex sets are computed in dimension 1 or 2, got dimension 3")
    if len(config) == 0:
        raise ValueError("vertex_set needs a nonempty configuration")
    if config.dim == 1:
        lo, hi = config.points[0], config.points[-1]
        return PointConfig.of({lo, hi}, dim=1)
    return PointConfig.of(_hull_ring(config.points) or config.points, dim=2)


def remove_vertex(config: PointConfig, vertex: Sequence[int]) -> PointConfig:
    """Drop one extremal point; rejects interior or absent points.

    Because the removed point is extremal, the remaining points are exactly
    the lattice points of their own hull whenever the input was.
    """
    v = _as_point(vertex)
    if v not in vertex_set(config):
        raise ValueError(f"{v} is not a vertex of the configuration")
    return PointConfig(config.dim, tuple(p for p in config.points if p != v))


def apply_map(transform: AffineUnimodularMap, config: PointConfig) -> PointConfig:
    if transform.dim != config.dim:
        raise DimensionError("map and configuration dimensions differ")
    return PointConfig.of((transform.apply(p) for p in config.points), dim=config.dim)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _frames(ring: Sequence[Point], points: Iterable[Point]) -> Iterator[tuple[list[Point], tuple[Point, Point], Point]]:
    """A planar set's frames at its least-keyed corners, each as (sorted image of ``points``, matrix, translation).

    ``ring`` is the set's strict hull ring, or the set itself below two
    points.  Each corner, walked either way round, fixes one map
    (``_frame``) keyed by the lattice lengths of its outgoing and incoming
    edges and the |det| of the two; only the least-keyed frames are made.
    A collinear set has one frame at each end, pointing along the line, and
    a single point one translation to the origin.  Lattice maps keep keys,
    so if M carries one set onto another, F composed with M's inverse is a
    frame of the other set with F's image for every frame F of the first:
    frames with equal images give every equivalence.  Frames are made one
    at a time, so a least image holds two, not all.
    """
    n = len(ring)
    if n < 2:
        yield from (([(0, 0)], ((1, 0), (0, 1)), (-x, -y)) for x, y in ring)
        return
    if n == 2:  # one key: the far frame is the near one followed by x -> span - x
        least = [(0, 1), (1, -1)]
    else:
        keyed = []
        for i in range(n):
            (vx, vy), (ax, ay), (bx, by) = ring[i], ring[(i + 1) % n], ring[i - 1]
            after, before = gcd(ax - vx, ay - vy), gcd(bx - vx, by - vy)
            det = abs((ax - vx) * (by - vy) - (ay - vy) * (bx - vx))
            keyed += [((after, before, det), i, 1), ((before, after, det), i, -1)]
        key = min(keyed)[0]
        least = [(i, turn) for k, i, turn in keyed if k == key]
    for i, turn in least:
        yield _frame(ring, i, turn, points)


def _frame(
    ring: Sequence[Point], i: int, turn: int, points: Iterable[Point]
) -> tuple[list[Point], tuple[Point, Point], Point]:
    """The frame at corner ``ring[i]`` walked ``turn`` way round, as (sorted image of ``points``, matrix, translation).

    The corner goes to the origin, its outgoing edge, towards
    ``ring[i + turn]``, along the positive x-axis with the set above it, and
    the remaining shear puts the incoming neighbour (a, b) at (a mod b, b).
    """
    (vx, vy), (ax, ay), (bx, by) = ring[i], ring[(i + turn) % len(ring)], ring[(i - turn) % len(ring)]
    g, s, t = _xgcd(ax - vx, ay - vy)
    # rows (s, t) and (ux, uy) send the edge's primitive step to (1, 0) and the set to
    # y >= 0; adding k times row two to row one moves the neighbour to x in [0, height)
    ux, uy = turn * (vy - ay) // g, turn * (ax - vx) // g
    height = ux * (bx - vx) + uy * (by - vy)
    if height:  # zero along a line, whose frames need no shear
        k = -((s * (bx - vx) + t * (by - vy)) // height)
        s, t = s + k * ux, t + k * uy
    cx, cy = -s * vx - t * vy, -ux * vx - uy * vy
    image = [(s * x + t * y + cx, ux * x + uy * y + cy) for x, y in points]
    image.sort()
    return image, ((s, t), (ux, uy)), (cx, cy)


def are_equivalent(source: PointConfig, target: PointConfig) -> Optional[AffineUnimodularMap]:
    """An affine unimodular map carrying ``source`` onto ``target``, or None.

    Every equivalence is the first frame of the source followed by the
    inverse of a target frame with the same image.  Of those maps, the one
    returned sends the source's sorted points to the lexicographically least
    sequence of images.
    """
    if source.dim != 2 or target.dim != 2:
        raise DimensionError("equivalence is decided for planar configurations")
    if len(source) != len(target):
        return None
    if len(source) == 0:  # both normal forms are (), and any map carries one empty set onto the other
        return AffineUnimodularMap.identity(2)
    sources, targets = (_frames(_hull_ring(c.points) or c.points, c.points) for c in (source, target))
    image, *frame = next(sources)
    first = AffineUnimodularMap(*frame)
    maps = [AffineUnimodularMap(*other).inverse().compose(first) for found, *other in targets if found == image]
    return min(maps, key=lambda m: list(map(m.apply, source.points)), default=None)


def normal_form(config: PointConfig) -> tuple[Point, ...]:
    """A canonical member of the affine unimodular class of a planar configuration.

    Two configurations are equivalent exactly when their normal forms are
    equal: the normal form is the least sorted image over the frames of
    ``_frames``, those at the least-keyed hull corners, so a collinear set
    becomes the lesser of its two gap patterns along the x-axis, and a
    single point the origin.
    """
    if config.dim != 2:
        raise DimensionError("normal forms are for planar configurations")
    return _least_image(_hull_ring(config.points) or config.points, config.points)


def _least_image(ring: Sequence[Point], points: Iterable[Point]) -> tuple[Point, ...]:
    """The least sorted image of ``points`` over the frames of ``_frames`` at ``ring``."""
    return tuple(min((image for image, _, _ in _frames(ring, points)), default=()))


def exceptional_triangle(index: int) -> PointConfig:
    """Lattice points of the triangle conv{(0,1), (index,0), (-1,-1)}.

    These triangles, one for each index >= 1, are the only planar
    configurations whose wedge powers can fail to be lattice-convex.  The
    triangle with a given index has index+3 lattice points: its three
    corners plus index points strung along the x-axis.
    """
    if index < 1:
        raise ValueError("exceptional triangles are indexed from 1")
    return PointConfig.of([(0, 1), (-1, -1)] + [(x, 0) for x in range(index + 1)])


def exception_index(config: PointConfig) -> Optional[int]:
    """The index k if ``config`` is equivalent to the k-th exceptional triangle, else None.

    Only one k can possibly match a given configuration: the triangle with
    index k has exactly k+3 points.  It has three strict hull corners, a
    count lattice maps keep, so any other set is turned down on its hull
    ring, whose least frame image is then compared.  The triangle's edges are
    primitive and its twice-area is 2k+1, so that image is ((0, 0), (1, 0),
    (2, 2k+1)), and by Pick's theorem it holds no lattice points beyond its
    k+3: a set of k+3 points with those corners is all of them.
    """
    if config.dim != 2:
        raise DimensionError("exception detection is for planar configurations")
    k = len(config) - 3
    ring = _hull_ring(config.points)
    if k < 1 or len(ring) != 3:
        return None
    return k if _least_image(ring, ring) == ((0, 0), (1, 0), (2, 2 * k + 1)) else None

