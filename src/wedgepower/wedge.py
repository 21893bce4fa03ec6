"""Sums of fixed-size subsets of a lattice point set, computed exactly.

The workhorse is a layered subset-sum table: layer c holds a bitset over a
dense integer box marking every sum of c distinct points seen so far.  The
box spans, per coordinate, only the sums that at most ``depth`` distinct
points can reach.  Feeding one point at a time and updating layers from the
top down keeps each point to a single use, and the whole update is one
shifted OR on a big integer, so the inner loop is bit-parallel.  Points are
fed in ascending order of their flat offset: a layer is a set of sums, so
the order does not change it, but a shift costs time linear in the length
of the integer it makes, and small offsets first keep every layer short
until the last points.  A table asked for a single layer d (the 3D witness,
``wedge_power``) updates layer c only while c >= d - (points still to
feed), since no lower layer can still reach d, and keeps each layer in a
box of its own: layer c holds only sums from the c smallest to the c
largest values of each coordinate.

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
from bisect import bisect_left, bisect_right
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

    A full table flattens points into a dense box that holds exactly the
    reachable range of every coordinate: from the sum of the negative
    values among its ``depth`` smallest to the sum of the positive values
    among its ``depth`` largest.  Every sum of at most ``depth`` distinct
    points, the empty sum (the origin) included, lies in it, so a shifted OR
    can never alias a bit into a neighbouring row.  Layer bitsets live in
    arbitrary-precision integers: shifting by a point's flattened offset
    adds that point to every sum of the layer below in one operation.

    ``_derived`` builds further tables in the same box, so a bit means the
    same point in all of them.  A table of more than TABLE_BIT_BUDGET bits
    is refused with BudgetError before anything is allocated: it is
    charged its cells times the layers it holds plus two, for the shifted
    copy and the new layer that each shifted OR briefly holds beside the
    old one.  ``digest`` lays layers out in a box of its own, which is why
    it is stable.

    With ``_one_layer`` the table holds layer ``depth`` and no other: the
    layers below it are left partial and dropped as the feed passes them,
    so reading any other layer raises ValueError, and so does growing a
    table from it with ``_derived``.  Of N points, at most N - depth + 2
    of its layers are nonempty at once, so it holds min(depth + 1,
    N - depth + 2) layers where a full table holds depth + 1.  Its layers
    are not laid out from the origin: layer c starts, per coordinate, at
    the sum of the c smallest values, all layers share one shape, as wide
    as the widest of them (the c largest values less the c smallest, for
    some c up to the depth), and the table's box is layer ``depth``'s.
    That box is never wider than a full table's, lies inside the digest's,
    and keeps its cells when the points are translated, so a set far from
    the origin costs what the same set near it does.  Only a full table's
    box always contains the origin.
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
        if _one_layer:
            # layer c from the sum of each column's c smallest values, as wide as the widest layer up to the depth
            lows = [list(itertools.accumulate(col[:depth], initial=0)) for col in columns]
            highs = [itertools.accumulate(col[::-1][:depth], initial=0) for col in columns]
            shape = [max(map(sub, high, low)) + 1 for low, high in zip(lows, highs)]
            self.box_lo = tuple(low[-1] for low in lows)
            self.box_hi = tuple(lo + n - 1 for lo, n in zip(self.box_lo, shape))
        else:
            # the negative values among the depth smallest, the positive among the depth largest
            self.box_lo = tuple(sum(col[: min(depth, bisect_left(col, 0))]) for col in columns)
            self.box_hi = tuple(sum(col[max(len(col) - depth, bisect_right(col, 0)) :]) for col in columns)
            shape = [hi - lo + 1 for lo, hi in zip(self.box_lo, self.box_hi)]
        # digest reads its box off the build depth and each column's extremes; a derived table keeps its parent's
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
                f"subset-sum table needs {_abridged(self.total_cells)} cells x {held + 2} layers ({held} held and 2 in "
                f"a shifted OR), above the table budget of {TABLE_BIT_BUDGET} bits"
            )

        self._one_layer = _one_layer
        if _one_layer:
            # a sum moving from layer c - 1 to layer c moves to a box that starts higher by the c-th smallest values
            self._steps = [0] + [sum(map(mul, values, strides)) for values in zip(*(col[:depth] for col in columns))]
            self._layers = [1] + [0] * depth  # the empty sum, at the low corner of layer 0's box
        else:
            self._layers = [1 << self._flatten((0,) * self.dim)] + [0] * depth
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

        A full table takes the plain loop.  A one-layer table skips layer c
        while c + (points still to feed) < depth, as it can no longer reach
        the depth, and zeroes each layer as soon as no later point reads it.
        Its layer c starts higher than layer c - 1 by the c-th smallest value
        of each coordinate, so a point moves a sum into it by its offset less
        that step's flat offset.  A negative move is a right shift and drops
        no bit: every sum of c distinct points lies in layer c's box.
        """
        layers, depth = self._layers, self.depth
        columns = zip(*points)
        offsets = list(next(columns, ()))  # the first coordinate's stride is 1
        for column, stride in zip(columns, self._strides[1:]):
            offsets = list(map(add, offsets, map(mul, column, itertools.repeat(stride))))
        offsets.sort()
        if not self._one_layer:
            for offset in offsets:
                for c in range(depth, 0, -1):
                    below = layers[c - 1]
                    if below:
                        layers[c] |= (below << offset) if offset >= 0 else (below >> -offset)
            return
        steps, todo = self._steps, len(offsets)
        for offset in offsets:
            todo -= 1
            low = max(depth - todo, 1)
            if low > 1:
                layers[low - 2] = 0  # no point from here on reads below layer low - 1
            for c in range(depth, low - 1, -1):
                below = layers[c - 1]
                if below:
                    shift = offset - steps[c]
                    layers[c] |= (below << shift) if shift >= 0 else (below >> -shift)

    def _derived(self, points: Iterable[Point], layers: Optional[list[int]] = None) -> "SubsetSumTable":
        """A table in this box that starts from ``layers`` (this table's own by default) and is fed ``points``.

        Its depth is len(layers) - 1.  It skips the constructor and checks
        nothing, so it may hold fewer points than its depth.  The caller
        vouches for what the constructor would check: that depth is at most
        this table's, so the budget holds, and this box holds every sum of
        at most that many of the new table's points.  A one-layer table is
        refused: its layers below the depth are partial.
        """
        if self._one_layer:
            raise ValueError(f"a one-layer table holds only layer {self.depth}; no table can grow from it")
        layers = list(self._layers if layers is None else layers)
        table = object.__new__(SubsetSumTable)  # the box's attributes are immutable and shared
        table.__dict__.update(self.__dict__, depth=len(layers) - 1, _layers=layers)
        table._feed(points)
        return table

    def _flatten(self, point: Point) -> int:
        return sum((c - lo) * s for c, lo, s in zip(point, self.box_lo, self._strides))

    def _in_box(self, point: Sequence[int]) -> bool:
        return all(lo <= c <= hi for c, lo, hi in zip(point, self.box_lo, self.box_hi))

    def contains(self, size: int, point: Sequence[int]) -> bool:
        """Is ``point`` a sum of exactly ``size`` distinct input points?"""
        layer = self.layer(size)
        pt = tuple(point)
        if len(pt) != self.dim:
            raise DimensionError(f"point {pt} has dimension {len(pt)}, the table has dimension {self.dim}")
        return self._in_box(pt) and bool((layer >> self._flatten(pt)) & 1)

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
        return ConvexityReport(False, PointConfig.of(self.points_of(missing), dim=self.dim), layer.bit_count())

    def points_of(self, bits: int) -> list[Point]:
        """The points of a bitset laid out in this table's box, in flat order.

        A walk over the bitset's nonzero bytes with a table of each byte's
        set bits, in plain Python: its cost is linear in the box's bytes
        plus the points found.  The last byte's bits past the box's last
        cell are ignored.
        """
        cells, first = self.total_cells, self.box_lo[0]
        # (stride, low corner) from the last coordinate down to the second; the first is what remains
        steps = tuple(zip(self._strides[:0:-1], self.box_lo[:0:-1]))
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
        return self.points_of(self.layer(size))

    def digest(self, size: int) -> str:
        """Stable fingerprint of one layer, for regression comparisons.

        The layer is hashed as laid out in the digest box, each coordinate
        [min(0, depth * lo), max(0, depth * hi)] for its input range [lo, hi]
        and the depth it was built with (a derived table keeps the depth and
        ranges of the table it grew from), so
        fingerprints do not depend on the box the table is built in.  The
        layout is built and hashed one slab of planes along the last
        coordinate at a time: the layer's bit grid is copied into the slab at
        the table box's offset inside the digest box.  A slab is a whole
        number of bytes, about _DIGEST_CHUNK of them, and never fewer than
        the 8 / gcd(plane cells, 8) planes that make one.  A slab outside the
        table box is all zeros and is hashed from one buffer of zero bytes.
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
        plane_shape = shape[-2::-1]  # the axes of one plane of the last coordinate, last coordinate first
        plane_cells = prod(plane_shape)
        whole = 8 // gcd(plane_cells, 8)  # the fewest planes that make whole bytes
        planes = max(whole, 8 * _DIGEST_CHUNK // plane_cells // whole * whole)
        # the table box inside the digest box: its first plane, and its extent within a plane
        first = self.box_lo[-1] - lo[-1]
        inner = tuple(slice(b - a, b - a + n) for a, b, n in zip(lo[-2::-1], self.box_lo[-2::-1], grid.shape[1:]))
        zeros = memoryview(bytes(planes * plane_cells // 8))  # the bytes of any slab outside the table box
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
            part[: a - start] = part[b - start :] = False  # planes outside the table box that an earlier slab set
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
    # moved to its minimum corner, the set is the size-1 layer of a table over its bounding box
    corner = tuple(map(min, zip(*config.points)))
    moved = config.translate(tuple(-c for c in corner))
    report = SubsetSumTable(moved.points, 1, dim=config.dim).check_convex(1)
    return ConvexityReport(report.convex, report.missing.translate(corner), report.cardinality)


def _reflect(config: PointConfig, pivot: Point) -> PointConfig:
    """The point reflection p -> pivot - p of a configuration, sorted again."""
    return PointConfig.of((tuple(t - c for t, c in zip(pivot, p)) for p in config), dim=config.dim)
