"""Sums of fixed-size subsets of a lattice point set, computed exactly.

The workhorse is a layered subset-sum table: layer c holds a bitset over a
dense integer box of its own marking every sum of c distinct points seen
so far.  The box starts, per coordinate, at the sum of the c smallest
values, so it holds the sums up to the c largest and keeps its cells when
the points are translated.  Feeding one point at a time and updating
layers from the top down keeps each point to a single use, and the whole
update is one shifted OR on a big integer, so the inner loop is
bit-parallel.  Points are fed in ascending order of their flat offset: a
layer is a set of sums, so the order does not change it, but a shift costs
time linear in the length of the integer it makes, and small offsets first
keep every layer short until the last points.  A table asked for a single
layer d (the 3D witness, ``wedge_power``) updates layer c only while
c >= d - (points still to feed), since no lower layer can still reach d.

A planar layer is lattice-convex exactly when its hull holds as many
lattice points as the layer has bits.  ``hull_count`` counts them from the
hull's corners by Pick's theorem; ``hull_fill`` builds the hull's lattice
points as a bitset, and verdicts build it only to list what a layer that
is not convex misses.

numpy is imported only by ``digest``, which unpacks a layer into one
boolean array over the box, and by ``coords``, which packs the points of
``points_at`` into an array.  Every reader of points, wedge powers
included, goes through the pure-Python ``points_of`` and never pays for
the import.
"""

import itertools
from dataclasses import dataclass
from math import gcd, prod
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .geometry import BudgetError, DimensionError, Point, PointConfig, _ceil_envelope, _lower_chain

if TYPE_CHECKING:
    import numpy as np

TABLE_BIT_BUDGET = 1 << 33  # cells times charged layers of one SubsetSumTable: 1 GiB of bitsets
_DIGEST_CHUNK = 1 << 16  # bytes of a digest's layout hashed at a time
_SET_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


class SubsetSumTable:
    """Exactly-c subset sums of an integer point set, for all c up to ``depth``.

    Every table has one layout.  Layer c flattens points into a dense box of
    its own that starts, per coordinate, at the sum of the c smallest values
    and holds every sum of c distinct points.  All layers share one shape,
    as wide as the widest of them: the c largest values less the c smallest
    grow while c <= N / 2 of N points, so the widest is layer min(depth,
    N // 2).  The table's box, ``box_lo`` to ``box_hi``, is layer
    ``depth``'s.  A shifted OR can never alias a bit into a neighbouring
    row, and the layout keeps its cells when the points are translated, so
    a set far from the origin costs what the same set near it does.  Layer
    bitsets live in arbitrary-precision integers: shifting by a point's
    flattened offset adds that point to every sum of the layer below in one
    operation.

    ``_derived`` builds further tables in the same layout, so a bit means
    the same point in all of them.  A table of more than TABLE_BIT_BUDGET
    bits is refused with BudgetError before anything is allocated: it is
    charged its cells times the layers it holds plus two, for the shifted
    copy and the new layer that each shifted OR briefly holds beside the
    old one.  ``digest`` lays layers out in a box of its own, which is why
    it is stable.

    With ``_one_layer`` the table holds layer ``depth`` and no other: the
    layers below it are left partial and dropped as the feed passes them,
    so reading any other layer raises ValueError, and so does growing a
    table from it with ``_derived``.  Of N points, at most N - depth + 2
    of its layers are nonempty at once, so it holds min(depth + 1,
    N - depth + 2) layers where a full table holds depth + 1.
    """

    def __init__(
        self,
        points: Sequence[Point],
        depth: int,
        dim: Optional[int] = None,
        *,
        _one_layer: bool = False,
    ):
        points = list(points)
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > len(points):
            raise ValueError("depth cannot exceed the number of points")
        if dim is None:
            if not points:
                raise ValueError("dimension required for an empty point list")
            dim = len(points[0])
        self.dim = dim
        self.depth = depth
        columns = [sorted(col) for col in zip(*points)] if points else [[0]] * self.dim
        # the widest layer's sums, from its c smallest values to its c largest, set the shape
        widest = min(depth, len(points) // 2)
        shape = [sum(col[len(col) - widest :]) - sum(col[:widest]) + 1 for col in columns]
        # layer c starts at the sum of each column's c smallest values; a derived table keeps its parent's
        self._smallest = tuple(col[:depth] for col in columns)
        self.box_lo = self._origin(depth)
        self.box_hi = tuple(lo + n - 1 for lo, n in zip(self.box_lo, shape))
        # digest reads its box off the build depth and each column's extremes
        self._digest_depth = depth
        self._extremes = tuple((col[0], col[-1]) for col in columns)
        strides = [1] * self.dim
        for d in range(1, self.dim):
            strides[d] = strides[d - 1] * shape[d - 1]
        self._shape = tuple(shape)
        self._strides = tuple(strides)
        self.total_cells = strides[-1] * shape[-1]
        held = min(depth + 1, len(points) - depth + 2) if _one_layer else depth + 1
        if self.total_cells * (held + 2) > TABLE_BIT_BUDGET:
            raise BudgetError(
                f"subset-sum table needs {_abridged(self.total_cells)} cells x {held + 2} layers, "
                f"above the table budget of {TABLE_BIT_BUDGET} bits"
            )

        self._one_layer = _one_layer
        # a sum moving from layer c - 1 to layer c moves to a box that starts higher by the c-th smallest values
        self._steps = [0] + [sum(map(mul, values, strides)) for values in zip(*self._smallest)]
        self._layers = [1] + [0] * depth  # the empty sum, at the low corner of layer 0's box: the origin
        self._feed(points)

    def _feed(self, points: Iterable[Point]) -> None:
        """Add each point to every sum of the layers: one shifted OR per layer and point.

        Layers are updated from the top down, so a sum uses each point at
        most once; an empty layer below adds nothing and is skipped.  Points
        go in ascending order of flat offset.  The sums do not depend on the
        order, but the time does: a shifted OR costs the length of the
        integer it makes, and layer c reaches as far as the c largest
        offsets fed so far.  Small offsets first keep the layers short until
        the last points; a configuration's lexicographic order brings
        the last coordinate's large stride in early and widens every layer
        at once.

        Layer c starts higher than layer c - 1 by the c-th smallest value of
        each coordinate, so a point moves a sum into it by its offset less
        that step's flat offset.  A negative move is a right shift and drops
        no bit: every sum of c distinct points lies in layer c's box.  A
        one-layer table's window skips layer c while c + (points still to
        feed) < depth, as it can no longer reach the depth, and zeroes each
        layer as soon as no later point reads it.
        """
        layers, depth, steps = self._layers, self.depth, self._steps
        columns = zip(*points)
        offsets = list(next(columns, ()))  # the first coordinate's stride is 1
        for column, stride in zip(columns, self._strides[1:]):
            offsets = list(map(add, offsets, map(mul, column, itertools.repeat(stride))))
        offsets.sort()
        # the lowest layer each point updates: a one-layer table's rises by one a point over the last depth - 1
        if self._one_layer:
            lows = itertools.chain(itertools.repeat(1, len(offsets) - depth + 1), range(2, depth + 1))
        else:
            lows = itertools.repeat(1)
        for offset, low in zip(offsets, lows):
            if low > 1:
                layers[low - 2] = 0  # no point from here on reads below layer low - 1
            for c in range(depth, low - 1, -1):
                below = layers[c - 1]
                if below:
                    shift = offset - steps[c]
                    layers[c] |= (below << shift) if shift >= 0 else (below >> -shift)

    def _derived(self, points: Iterable[Point], layers: Optional[list[int]] = None) -> "SubsetSumTable":
        """A table in this layout that starts from ``layers`` (this table's own by default) and is fed ``points``.

        Its depth is len(layers) - 1.  It skips the constructor and checks
        nothing, so it may hold fewer points than its depth.  The caller
        vouches for what the constructor would check: that depth is at most
        this table's, so the budget holds, and that every sum it makes is of
        distinct points of this table, so layer c's box holds every sum of
        c of them.  A one-layer table is refused: its layers below the depth
        are partial.
        """
        if self._one_layer:
            raise ValueError(f"a one-layer table holds only layer {self.depth}; no table can grow from it")
        layers = list(self._layers if layers is None else layers)
        table = object.__new__(SubsetSumTable)  # the layout's attributes are immutable and shared
        table.__dict__.update(self.__dict__, depth=len(layers) - 1, _layers=layers)
        table._feed(points)
        return table

    def _origin(self, size: int) -> Point:
        """The low corner of layer ``size``'s box: the sum of each column's ``size`` smallest values.

        A size outside 0..depth reads an empty layer; its corner, a sum of at
        most the build depth's smallest values, still lies in the digest box.
        """
        return tuple(sum(col[:size]) for col in self._smallest)

    def contains(self, size: int, point: Sequence[int]) -> bool:
        """Is ``point`` a sum of exactly ``size`` distinct input points?"""
        layer = self.layer(size)
        pt = tuple(point)
        if len(pt) != self.dim:
            raise DimensionError(f"point {pt} has dimension {len(pt)}, the table has dimension {self.dim}")
        cells = tuple(map(sub, pt, self._origin(size)))
        if not all(0 <= c < n for c, n in zip(cells, self._shape)):
            return False
        return bool(layer >> sum(map(mul, cells, self._strides)) & 1)

    def count(self, size: int) -> int:
        return self.layer(size).bit_count()

    def layer(self, size: int) -> int:
        """The bitset of sums of exactly ``size`` points; 0 beyond the depth.

        A one-layer table raises ValueError for any size but its depth.
        """
        if self._one_layer and size != self.depth:
            raise ValueError(f"a one-layer table holds only layer {self.depth}, not layer {size}")
        return self._layers[size] if 0 <= size <= self.depth else 0

    def hull_fill(self, size: int) -> int:
        """The lattice points of the hull of one layer of a table of dimension 1 or 2, as a bitset."""
        return hull_fill(self._planar_layer(size), self._shape[0])

    def hull_count(self, size: int) -> int:
        """The number of lattice points of the hull of one layer of a table of dimension 1 or 2."""
        return hull_count(self._planar_layer(size), self._shape[0])

    def _planar_layer(self, size: int) -> int:
        if self.dim > 2:
            raise DimensionError("layer convexity is decided in dimension <= 2 only")
        return self.layer(size)

    def check_convex(self, size: int) -> "ConvexityReport":
        """Lattice-convexity of one layer of a table of dimension 1 or 2.

        The layer is convex when it has as many points as its hull; only a
        layer that is not gets its hull fill built, to list what it misses.
        """
        count = self.hull_count(size)
        layer = self.layer(size)
        if count == layer.bit_count():
            return ConvexityReport(True, PointConfig(self.dim, ()), count)
        missing = self.hull_fill(size) & ~layer
        return ConvexityReport(False, PointConfig.of(self.points_of(size, missing), dim=self.dim), layer.bit_count())

    def points_of(self, size: int, bits: int) -> list[Point]:
        """The points of a bitset laid out in layer ``size``'s box, in flat order.

        A walk over the bitset's nonzero bytes with a table of each byte's
        set bits, in plain Python: its cost is linear in the box's bytes
        plus the points found.  The last byte's bits past the box's last
        cell are ignored.
        """
        cells, origin = self.total_cells, self._origin(size)
        first = origin[0]
        # (stride, low corner) from the last coordinate down to the second; the first is what remains
        steps = tuple(zip(self._strides[:0:-1], origin[:0:-1]))
        raw = bits.to_bytes((cells + 7) // 8, "little")
        points = []
        for index in itertools.compress(range(len(raw)), raw):
            for bit in _SET_BITS[raw[index]]:
                flat = 8 * index + bit
                if flat >= cells:
                    break
                point = []
                for stride, lo in steps:
                    c, flat = divmod(flat, stride)
                    point.append(c + lo)
                point.append(flat + first)
                point.reverse()
                points.append(tuple(point))
        return points

    def coords(self, size: int) -> "np.ndarray":
        """All sums of ``size`` distinct points as an (n, dim) int64 array, in flat order."""
        import numpy as np

        return np.array(self.points_at(size), dtype=np.int64).reshape(-1, self.dim)

    def points_at(self, size: int) -> list[Point]:
        return self.points_of(size, self.layer(size))

    def digest(self, size: int) -> str:
        """Stable fingerprint of one layer, for regression comparisons.

        The layer is hashed as laid out in the digest box, each coordinate
        [min(0, depth * lo), max(0, depth * hi)] for its input range [lo, hi]
        and the depth it was built with (a derived table keeps the depth and
        ranges of the table it grew from), so
        fingerprints do not depend on the layout the table is built in.
        The layout is built and hashed one slab of planes along the last
        coordinate at a time: the part of the layer's bit grid inside the
        digest box is copied into the slab at the layer box's offset.  Every
        sum of ``size`` points lies in the digest box, but the layer's box,
        as wide as the widest layer, can overhang its high side.  A slab is a
        whole number of bytes, about _DIGEST_CHUNK of them, and never fewer
        than the 8 / gcd(plane cells, 8) planes that make one.  A slab outside
        the layer box is all zeros and is hashed from one buffer of zero
        bytes.
        """
        import hashlib  # loaded here, as its import maps OpenSSL into every process that loads this module

        import numpy as np

        lo = tuple(min(0, self._digest_depth * low) for low, _ in self._extremes)
        hi = tuple(max(0, self._digest_depth * high) for _, high in self._extremes)
        shape = [b - a + 1 for a, b in zip(lo, hi)]
        cells = prod(shape)
        if cells > TABLE_BIT_BUDGET:
            raise BudgetError(
                f"digest layout needs {_abridged(cells)} cells, above the table budget of {TABLE_BIT_BUDGET} bits"
            )
        raw = np.frombuffer(self.layer(size).to_bytes((self.total_cells + 7) // 8, "little"), dtype=np.uint8)
        grid = np.unpackbits(raw, count=self.total_cells, bitorder="little").view(bool).reshape(self._shape[::-1])
        del raw  # grid[z, y, x] in 3D, last coordinate first; the layer's bytes are not kept through the slabs
        origin = self._origin(size)[::-1]  # the layer box's low corner, last coordinate first; it is >= lo
        grid = grid[tuple(slice(0, b - a + 1) for a, b in zip(origin, hi[::-1]))]
        plane_shape = shape[-2::-1]  # the axes of one plane of the last coordinate, last coordinate first
        plane_cells = prod(plane_shape)
        whole = 8 // gcd(plane_cells, 8)  # the fewest planes that make whole bytes
        planes = max(whole, 8 * _DIGEST_CHUNK // plane_cells // whole * whole)
        # the layer box inside the digest box: its first plane, and its extent within a plane
        first = origin[0] - lo[-1]
        inner = tuple(slice(b - a, b - a + n) for a, b, n in zip(lo[-2::-1], origin[1:], grid.shape[1:]))
        zeros = memoryview(bytes(planes * plane_cells // 8))  # the bytes of any slab outside the layer box
        slab = np.zeros((planes, *plane_shape), dtype=bool)  # one buffer for the slabs inside it
        h = hashlib.sha256()
        h.update(repr((self.dim, lo, hi, size)).encode())
        for start in range(0, shape[-1], planes):
            count = min(planes, shape[-1] - start)
            a, b = max(start, first), min(start + count, first + len(grid))
            if a >= b:
                h.update(zeros[: (count * plane_cells + 7) // 8])
                continue
            part = slab[:count]
            part[: a - start] = part[b - start :] = False  # planes outside the layer box that an earlier slab set
            part[(slice(a - start, b - start), *inner)] = grid[a - first : b - first]
            h.update(np.packbits(part, bitorder="little").tobytes())
        return h.hexdigest()


def _abridged(count: int) -> str:
    """A count for a message: in full up to 15 digits, else its first four and its digit count, in integers only."""
    digits = count.bit_length() * 3 // 10  # at most the digit count, as log10(2) > 0.3
    while 10**digits <= count:
        digits += 1
    return str(count) if digits <= 15 else f"{count // 10 ** (digits - 4)}... ({digits} digits)"


def wedge_power(base: PointConfig, subset_size: int) -> PointConfig:
    """The set of sums of all ``subset_size``-element subsets of ``base``.

    Out-of-range sizes give the empty configuration (there are no such
    subsets); size 0 gives the origin, the empty sum.
    """
    if not 0 <= subset_size <= len(base):
        return PointConfig.of([], dim=base.dim)
    table = SubsetSumTable(base.points, subset_size, dim=base.dim, _one_layer=True)
    return PointConfig.of(table.points_at(subset_size), dim=base.dim)


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a lattice-convexity check.

    ``missing`` lists the lattice points of the hull that the set does not
    contain; the set is lattice-convex exactly when it is empty.
    """

    convex: bool
    missing: PointConfig
    cardinality: int

    def reflected(self, pivot: Point) -> "ConvexityReport":
        """The report on the set's point reflection p -> pivot - p: same verdict and size, missing points reflected.

        A report that misses nothing is its own reflection.
        """
        if not self.missing:
            return self
        return ConvexityReport(self.convex, _reflect(self.missing, pivot), self.cardinality)

    def to_json(self) -> dict:
        return {
            "convex": self.convex,
            "missing": [list(p) for p in self.missing],
            "cardinality": self.cardinality,
        }


def _row_ends(layer: int, width: int) -> tuple[int, list[Point], list[Point]]:
    """The bit offset of a nonempty planar bitset's lowest row, and each nonempty row's (y, min x) and (y, -max x).

    Bit ``x + y * width`` is the point (x, y).  One pass goes up the rows.
    """
    y = ((layer & -layer).bit_length() - 1) // width
    shift = y * width
    rest, full = layer >> shift, (1 << width) - 1
    lows, neg_highs = [], []
    while rest:
        row = rest & full
        if row:
            lows.append((y, (row & -row).bit_length() - 1))
            neg_highs.append((y, 1 - row.bit_length()))
        rest >>= width
        y += 1
    return shift, lows, neg_highs


def hull_count(layer: int, width: int) -> int:
    """The number of lattice points in the convex hull of a planar bitset, by Pick's theorem.

    Bit ``x + y * width`` is the point (x, y).  The lower chains of the row
    minima and of the negated row maxima are the hull's left and right
    boundaries, and ``_pick_count`` counts the points between them.  A
    layer is lattice-convex exactly when this equals its popcount, and no
    fill is built to say so.
    """
    if not layer:
        return 0
    _, lows, neg_highs = _row_ends(layer, width)
    return _pick_count(_lower_chain(lows), _lower_chain(neg_highs))


def _pick_count(lows: list[Point], neg_highs: list[Point]) -> int:
    """The lattice points of a hull given as the lower chains of its row minima (y, x) and negated maxima (y, -x).

    Walked up the one chain and down the other, the chains close into the
    hull's corner ring.  With 2A the ring's shoelace sum and B the lattice
    points on it, the sum of the gcds of its steps, the hull holds
    A + B/2 + 1 points.  A point, a row or a column makes a ring that goes
    out and back along itself: A is 0 and B counts every boundary point
    twice, so the same formula counts it.
    """
    ring = lows + [(y, -x) for y, x in reversed(neg_highs)]
    twice_area = boundary = 0
    ay, ax = ring[-1]
    for by, bx in ring:
        twice_area += ax * by - bx * ay
        boundary += gcd(bx - ax, by - ay)
        ay, ax = by, bx
    return (abs(twice_area) + boundary) // 2 + 1


def hull_fill(layer: int, width: int) -> int:
    """The lattice points of the convex hull of a planar bitset, as a bitset.

    Bit ``x + y * width`` is the point (x, y).  A row of the hull runs from
    the ceiling of the lower convex envelope of the row minima to the floor
    of the upper concave envelope of the row maxima.  ``fill & ~layer`` is
    what is missing.  Verdicts compare ``hull_count`` with the layer's
    popcount instead; the fill is built only to list the missing points of a
    layer that is not convex.
    """
    if not layer:
        return 0
    shift, lows, neg_highs = _row_ends(layer, width)
    fill = 0
    for lo, neg_hi in zip(_ceil_envelope(lows), _ceil_envelope(neg_highs)):
        fill |= ((1 << (1 - neg_hi - lo)) - 1) << (shift + lo)
        shift += width
    return fill


def check_lattice_convex(config: PointConfig) -> ConvexityReport:
    """Is the set exactly the lattice points of its own convex hull?"""
    if config.dim > 2:
        raise DimensionError(
            "lattice-convexity decisions are limited to dimension <= 2; "
            "dimension 3 failures are established by explicit witness points"
        )
    if len(config) == 0:
        raise ValueError("cannot check an empty configuration")
    # the set is the size-1 layer of a table over its points, laid out in its bounding box
    return SubsetSumTable(config.points, 1, dim=config.dim).check_convex(1)


def _reflect(config: PointConfig, pivot: Point) -> PointConfig:
    """The point reflection p -> pivot - p of a configuration, sorted again."""
    return PointConfig.of((tuple(t - c for t, c in zip(pivot, p)) for p in config), dim=config.dim)
