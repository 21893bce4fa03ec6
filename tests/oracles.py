"""Brute-force reference implementations used only by the tests.

These deliberately avoid the library's algorithms: hull membership goes
through exhaustive point/segment/triangle checks, lattice point sets come
from bounding-box filtering, and wedge sets from direct subset enumeration.

The tuple-path references further down keep the library's earlier
implementations of the convexity, goodness and decomposition checks, which
materialise every wedge as points and scan hull rows in ``Fraction``
arithmetic; the bitset code is tested against them.  The earlier
equivalence search over ordered triples of the target, ``equivalence_by_search``,
is kept there too: it is the reference for the maps ``are_equivalent`` reads
off the normal-form frames, down to which map a symmetric input gets, and,
run against the candidate triangle, for the normal-form exception detection.
So is the
subset-sum table with its earlier box, depth times each coordinate's
extremes, whose layers and digests the tight-box table must reproduce.
The earlier bitset hull fill, a monotone-chain hull ring of the row ends
cut row by row along its edges, is the reference for the two-envelope
``hull_fill``, and the earlier grid enumerator, one ``hull_fill`` per mask
over all 2^cells masks (``enumerate_by_masks``), for the row-interval one.
The row-interval search as it was before it carried the hull's chains,
one ``hull_count`` of a prefix bitset per candidate row
(``enumerate_by_prefix_counts``), is the reference for the chains.
The normal form of a set's strict hull corners (``corner_form``), by which
grid runs once grouped their orbits, is the reference for the grouping by
registered frame images.
The numpy unpacking that ``SubsetSumTable.points_of`` and ``coords`` once
ran, flat indices split by ``divmod`` per coordinate (``points_of``), is
the reference for the byte walk and for ``coords``.
The 3D witness's earlier reading of its lowest level, a scan of the
layer's bit grid one plane at a time (``lowest_level``, which unpacks the
grid itself), is the reference for the certificate
``counterexample3d._lowest_slice`` reads off the sorted levels.
The full-depth ``verify_polygon`` and ``_examine_config``, which read every
size 0..N from a depth-N table and ran each check on its own hull fill,
are kept (``full_depth_verify_polygon``, ``full_depth_examine_config``) as
the reference for the half-depth reading that reflects sizes above N//2,
and the plain normal-form comparison with the candidate triangle
(``exception_index_by_normal_form``) for ``exception_index``'s comparison of
three corners.  They build their tables the earlier way too, each deletion
table from its own points (``per_deletion_tables``), which is the reference
for the deletion tables that ``harness._tables`` grows from one shared
stem, and they test the union decomposition on the union of the deletion
tables' hull fills alone.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

from wedgepower import (
    AffineUnimodularMap,
    ConvexityReport,
    DimensionError,
    PointConfig,
    apply_map,
    exceptional_triangle,
    remove_vertex,
    vertex_set,
    wedge_power,
)
from wedgepower import harness
from wedgepower.geometry import Point, _least_image, _xgcd, normal_form
from wedgepower.harness import GridSpec, TheoremReport
from wedgepower.wedge import SubsetSumTable as BitsetTable
from wedgepower.wedge import hull_count, hull_fill


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(q, a, b):
    if _cross(a, b, q) != 0:
        return False
    return min(a[0], b[0]) <= q[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])


def _in_triangle(q, a, b, c):
    orient = _cross(a, b, c)
    if orient == 0:
        return False
    if orient < 0:
        b, c = c, b
    return _cross(a, b, q) >= 0 and _cross(b, c, q) >= 0 and _cross(c, a, q) >= 0


def hull_membership(q, points):
    """q in conv(points), decided by exhaustive low-dimensional checks."""
    pts = list(points)
    if q in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if _on_segment(q, a, b):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        if _in_triangle(q, a, b, c):
            return True
    return False


def hull_lattice_points(points):
    """All lattice points of conv(points) via bounding-box filtering."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return sorted(
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if hull_membership((x, y), points)
    )


def is_lattice_convex(points):
    return sorted(points) == hull_lattice_points(points)


def naive_wedge(points, size):
    dim = len(next(iter(points))) if points else 2
    if size == 0:
        return {(0,) * dim}
    return {
        tuple(sum(coord) for coord in zip(*combo))
        for combo in itertools.combinations(sorted(points), size)
    }


def naive_wedge_power(config, size):
    """``wedge_power`` by subset enumeration: the sorted configuration of ``naive_wedge``."""
    return PointConfig.of(naive_wedge(config.points, size), dim=config.dim)


def grid_cells(grid):
    """The points of the grid [0, width] x [0, height], x-major."""
    return [(x, y) for x in range(grid.width + 1) for y in range(grid.height + 1)]


def random_unimodular(rng: random.Random, radius: int = 3, shift: int = 4) -> AffineUnimodularMap:
    """Rejection-sample a 2x2 integer matrix with determinant +-1."""
    while True:
        a, b, c, d = (rng.randint(-radius, radius) for _ in range(4))
        if a * d - b * c in (1, -1):
            t = (rng.randint(-shift, shift), rng.randint(-shift, shift))
            return AffineUnimodularMap(((a, b), (c, d)), t)


# --- tuple-path references -------------------------------------------------


def fraction_polygon_lattice_points(vertices):
    """Lattice points of a counterclockwise polygon, rows cut in Fraction arithmetic."""
    verts = list(vertices)
    ys = [v[1] for v in verts]
    out = []
    for y in range(min(ys), max(ys) + 1):
        xs = []
        for a, b in zip(verts, verts[1:] + verts[:1]):
            y0, y1 = a[1], b[1]
            if y0 == y1:
                if y0 == y:
                    xs.append(Fraction(a[0]))
                    xs.append(Fraction(b[0]))
                continue
            if min(y0, y1) <= y <= max(y0, y1):
                xs.append(Fraction(a[0]) + Fraction((y - y0) * (b[0] - a[0]), y1 - y0))
        lo = math.ceil(min(xs))
        hi = math.floor(max(xs))
        out.extend((x, y) for x in range(lo, hi + 1))
    return PointConfig.of(out, dim=2)


def _segment_points(a, b):
    if a == b:
        return [a]
    diff = tuple(y - x for x, y in zip(a, b))
    g = math.gcd(*(abs(d) for d in diff))
    step = tuple(d // g for d in diff)
    return [tuple(x + t * s for x, s in zip(a, step)) for t in range(g + 1)]


def tuple_hull_points(config):
    """Lattice points of conv(config) for a nonempty planar configuration."""
    ring = _hull_ring(config.points)
    if len(ring) < 3:  # a single point, or a collinear set between its two ends
        return PointConfig.of(_segment_points(config.points[0], config.points[-1]), dim=2)
    return fraction_polygon_lattice_points(ring)


def check_lattice_convex(config):
    if config.dim > 2:
        raise DimensionError("lattice-convexity decisions are limited to dimension <= 2")
    if len(config) == 0:
        raise ValueError("cannot check an empty configuration")
    if config.dim == 1:
        lo, hi = config.points[0][0], config.points[-1][0]
        hull_points = PointConfig.of([(x,) for x in range(lo, hi + 1)], dim=1)
    else:
        hull_points = tuple_hull_points(config)
    present = set(config.points)
    missing = PointConfig.of([p for p in hull_points if p not in present], dim=config.dim)
    return ConvexityReport(len(missing) == 0, missing, len(config))


def is_p_good(config, subset_size):
    if len(config) < 2:
        raise ValueError("p-goodness needs at least two points")
    if not 1 <= subset_size <= len(config) - 1:
        raise ValueError("subset size must be between 1 and N-1")
    common = None
    for v in vertex_set(config):
        wedge = set(wedge_power(remove_vertex(config, v), subset_size).points)
        common = wedge if common is None else common & wedge
        if not common:
            return None
    return min(common) if common else None


def _hull_lattice_point_set(config):
    if len(config) == 0:
        return set()
    return set(tuple_hull_points(config).points)


def union_decomposition_holds(config, subset_size):
    if not 1 <= subset_size <= len(config):
        raise ValueError("subset size must be between 1 and N")
    whole = _hull_lattice_point_set(wedge_power(config, subset_size))
    covered = set()
    for v in vertex_set(config):
        covered |= _hull_lattice_point_set(wedge_power(remove_vertex(config, v), subset_size))
        if whole <= covered:
            return True
    return whole <= covered


def enumerate_lattice_convex(grid):
    """Translation classes of lattice-convex grid subsets, by the tuple-path mask loop."""
    cells = grid_cells(grid)
    seen = set()
    out = []
    for mask in range(1, 1 << len(cells)):
        subset = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        min_x = min(p[0] for p in subset)
        min_y = min(p[1] for p in subset)
        canon = tuple(sorted((p[0] - min_x, p[1] - min_y) for p in subset))
        if canon in seen:
            continue
        seen.add(canon)
        config = PointConfig(2, canon)
        if check_lattice_convex(config).convex:
            out.append(config)
    out.sort(key=lambda c: (len(c), c.points))
    return out


def enumerate_by_masks(grid):
    """Translation classes of lattice-convex grid subsets, one ``hull_fill`` per mask.

    The library's earlier enumerator, which tries all 2^cells masks; the
    row-interval enumerator must give the same list.
    """
    cells = grid_cells(grid)
    canons = set()
    for mask in range(1, 1 << len(cells)):
        # cells run x-major, so bit x * (height + 1) + y of the mask is (x, y):
        # the mask is the subset's mirror image in hull_fill's row layout, and
        # mirroring through the diagonal keeps lattice-convexity
        if hull_fill(mask, grid.height + 1) != mask:
            continue
        subset = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        min_x = min(p[0] for p in subset)
        min_y = min(p[1] for p in subset)
        canons.add(tuple(sorted((p[0] - min_x, p[1] - min_y) for p in subset)))
    return sorted((PointConfig(2, c) for c in canons), key=lambda c: (len(c), c.points))


def enumerate_by_prefix_counts(grid: GridSpec) -> list[PointConfig]:
    """The library's earlier row-interval enumerator, which counts each prefix's hull on a bitset.

    Rows are chosen depth first from y = 0 on a bitset in hull_count's
    layout, bit x + y * (width + 1), and a prefix is extended only while its
    hull holds no more lattice points than it does.  It shares the search
    skeleton and Pick's formula with the chain enumerator, which reads the
    hull off two chains carried down the search instead of off the bitset,
    so the two are only partly independent; ``enumerate_by_masks`` shares
    neither.
    """
    row_width = grid.width + 1
    found: list[tuple[Point, ...]] = []

    def extend(prefix: int, y: int, points: list[Point], at_left: bool) -> None:
        if y > grid.height:
            return
        for lo in range(row_width):
            for hi in range(lo, row_width):
                bits = prefix | ((1 << (hi - lo + 1)) - 1) << (y * row_width + lo)
                if hull_count(bits, row_width) != len(points) + hi - lo + 1:
                    # a wider top row only grows the hull over the same rows
                    # below, so it misses the same points
                    break
                grown = points + [(x, y) for x in range(lo, hi + 1)]
                left = at_left or lo == 0
                if left:
                    found.append(tuple(sorted(grown)))
                extend(bits, y + 1, grown, left)
        if y:
            extend(prefix, y + 1, points, at_left)  # an empty row

    extend(0, 0, [], False)
    found.sort(key=lambda points: (len(points), points))
    return [PointConfig(2, points) for points in found]


def _hull_ring(pts):
    """Strict hull corners of sorted points, counterclockwise (monotone chain)."""
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, pts[::-1])):
        for p in seq:
            while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def corner_form(config):
    """The normal form of the strict hull corners, computed from the hull ring.

    Equivalent sets have equivalent corners and so equal corner forms.
    Equal corner forms make the corners equivalent, and lattice-convex sets
    are the lattice points of the hulls of their corners, so on them equal
    corner forms mean equivalence.  On other sets they do not (a square's
    corners with and without its centre).
    """
    ring = _hull_ring(config.points) or config.points
    return _least_image(ring, ring)


def _row_ranges(ring):
    """The lowest row of a hull ring, and its integer x-range [lo, hi] on each row up."""
    xs, ys = [x for x, _ in ring], [y for _, y in ring]
    first = min(ys)
    los, his = [max(xs)] * (max(ys) - first + 1), [min(xs)] * (max(ys) - first + 1)
    for (ax, ay), (bx, by) in zip(ring, [*ring[1:], ring[0]]):
        if ay > by:
            ax, ay, bx, by = bx, by, ax, ay
        dx, dy = bx - ax, by - ay
        if dy == 0:
            los[ay - first] = min(los[ay - first], ax, bx)
            his[ay - first] = max(his[ay - first], ax, bx)
            continue
        num = ax * dy
        for i in range(ay - first, by - first + 1):
            los[i] = min(los[i], -(-num // dy))
            his[i] = max(his[i], num // dy)
            num += dx
    return first, list(zip(los, his))


def ring_hull_fill(layer, width):
    """The earlier ``hull_fill``: the hull ring of each row's end bits, filled row by row."""
    if not layer:
        return 0
    first = ((layer & -layer).bit_length() - 1) // width
    last = (layer.bit_length() - 1) // width
    full = (1 << width) - 1
    ends = set()
    for y in range(first, last + 1):
        row = (layer >> (y * width)) & full
        if row:
            ends.add(((row & -row).bit_length() - 1, y))
            ends.add((row.bit_length() - 1, y))
    first, ranges = _row_ranges(_hull_ring(sorted(ends)) or list(ends))
    fill = 0
    for y, (lo, hi) in enumerate(ranges, first):
        fill |= ((1 << (hi - lo + 1)) - 1) << (y * width + lo)
    return fill


def _first_independent_triple(points):
    if len(points) < 3:
        return None
    a, b = points[0], points[1]
    for c in points[2:]:
        if _cross(a, b, c) != 0:
            return (a, b, c)
    return None


def _line_parameters(points):
    """Affine coordinates of collinear points: base point, primitive step, sorted offsets."""
    base = points[0]
    other = next(p for p in points if p != base)
    diff = tuple(b - a for a, b in zip(base, other))
    g = math.gcd(*(abs(d) for d in diff))
    step = tuple(d // g for d in diff)
    axis = 0 if step[0] != 0 else 1
    params = sorted((p[axis] - base[axis]) // step[axis] for p in points)
    origin = tuple(b + params[0] * s for b, s in zip(base, step))
    return origin, step, [t - params[0] for t in params]


def _line_frame(origin, step):
    """A unimodular map sending the x-axis onto the given lattice line."""
    dx, dy = step
    g, ex, ey = _xgcd(dx, dy)
    # det of ((dx, -ey), (dy, ex)) is dx*ex + dy*ey = g = 1 for primitive steps
    return AffineUnimodularMap(((dx, -ey), (dy, ex)), origin)


def _equivalent_degenerate(source, target):
    if len(source) == 1:
        offset = tuple(b - a for a, b in zip(source.points[0], target.points[0]))
        return AffineUnimodularMap.from_translation(offset)
    s_origin, s_step, s_params = _line_parameters(source.points)
    t_origin, t_step, t_params = _line_parameters(target.points)
    frame_s = _line_frame(s_origin, s_step)
    frame_t = _line_frame(t_origin, t_step)
    span = s_params[-1]
    candidates = []
    if s_params == t_params:
        candidates.append(frame_t.compose(frame_s.inverse()))
    if [span - t for t in reversed(s_params)] == t_params:
        flip = AffineUnimodularMap(((-1, 0), (0, 1)), (span, 0))
        candidates.append(frame_t.compose(flip).compose(frame_s.inverse()))
    for witness in candidates:
        if apply_map(witness, source) == target:
            return witness
    return None


def equivalence_by_search(source, target):
    """The earlier ``are_equivalent``: a search over ordered triples of the target.

    One affinely independent triple of the source is fixed; every ordered
    triple of the target determines at most one affine map, which is kept if
    it is integral with determinant +-1 and bijects the whole configuration.
    Collinear and singleton configurations are matched by their gap patterns
    along the line instead.
    """
    if source.dim != 2 or target.dim != 2:
        raise DimensionError("equivalence search is for planar configurations")
    if len(source) != len(target):
        return None
    if len(source) == 0:
        return AffineUnimodularMap.identity(2)
    if len(vertex_set(source)) != len(vertex_set(target)):
        return None

    triple = _first_independent_triple(source.points)
    if triple is None:
        if _first_independent_triple(target.points) is not None:
            return None
        return _equivalent_degenerate(source, target)
    if _first_independent_triple(target.points) is None:
        return None

    p0, p1, p2 = triple
    u = (p1[0] - p0[0], p1[1] - p0[1])
    v = (p2[0] - p0[0], p2[1] - p0[1])
    det_a = u[0] * v[1] - u[1] * v[0]
    src_set = source.points
    tgt_sorted = target.points
    for q0, q1, q2 in itertools.permutations(target.points, 3):
        b1 = (q1[0] - q0[0], q1[1] - q0[1])
        b2 = (q2[0] - q0[0], q2[1] - q0[1])
        # M = [b1 b2] @ adj([u v]) / det([u v]), entries must divide evenly
        m00 = b1[0] * v[1] - b2[0] * u[1]
        m01 = -b1[0] * v[0] + b2[0] * u[0]
        m10 = b1[1] * v[1] - b2[1] * u[1]
        m11 = -b1[1] * v[0] + b2[1] * u[0]
        if m00 % det_a or m01 % det_a or m10 % det_a or m11 % det_a:
            continue
        mat = ((m00 // det_a, m01 // det_a), (m10 // det_a, m11 // det_a))
        if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] not in (1, -1):
            continue
        shift = (
            q0[0] - mat[0][0] * p0[0] - mat[0][1] * p0[1],
            q0[1] - mat[1][0] * p0[0] - mat[1][1] * p0[1],
        )
        image = sorted(
            (
                mat[0][0] * p[0] + mat[0][1] * p[1] + shift[0],
                mat[1][0] * p[0] + mat[1][1] * p[1] + shift[1],
            )
            for p in src_set
        )
        if tuple(image) == tgt_sorted:
            return AffineUnimodularMap(mat, shift)
    return None


def exception_index(config):
    """The k-th exceptional triangle's index if ``config`` is equivalent to it, by search."""
    if config.dim != 2:
        raise DimensionError("exception detection is for planar configurations")
    k = len(config) - 3
    if k < 1:
        return None
    if equivalence_by_search(config, exceptional_triangle(k)) is not None:
        return k
    return None


def exception_index_by_normal_form(config):
    """The k-th exceptional triangle's index if their normal forms are equal, for every k+3 points."""
    if config.dim != 2:
        raise DimensionError("exception detection is for planar configurations")
    k = len(config) - 3
    if k < 1:
        return None
    return k if normal_form(config) == normal_form(exceptional_triangle(k)) else None


def full_depth_verify_polygon(config, tables=None):
    """Check lattice-convexity of every wedge power of one configuration.

    Conforming behaviour is: convex everywhere for ordinary configurations,
    and non-convex exactly at sizes 2 and N-2 for configurations equivalent
    to an exceptional triangle.  Every size is read from one depth-N table.
    A set that is not lattice-convex lies outside the theorem and raises
    ValueError naming the hull points it misses.
    """
    if config.dim != 2:
        raise DimensionError("verify_polygon expects a planar configuration")
    n = len(config)
    table = tables[0] if tables else BitsetTable(config.points, n, dim=2)
    per_size = []
    for p in range(n + 1):
        report = table.check_convex(p)
        per_size.append((p, report.convex, report.missing.points))
    if n and not per_size[1][1]:  # the size-1 layer is the configuration itself
        missing = ", ".join(map(str, per_size[1][2]))
        raise ValueError(f"the configuration is not lattice-convex: its hull also holds {missing}")
    k = exception_index_by_normal_form(config)
    failures = {p for p, convex, _ in per_size if not convex}
    expected = {2, n - 2} if k is not None else set()
    verdict = "conforms" if failures == expected else "violates"
    return TheoremReport(config, n, k, tuple(per_size), verdict)


def per_deletion_tables(config, depth, deletion_depth):
    """The earlier ``harness._tables``: the base table and every vertex deletion's, each fed all its own points."""
    base = BitsetTable(config.points, depth, dim=config.dim)
    rests = ([q for q in config.points if q != v] for v in vertex_set(config))
    return base, [base._derived(r, [base.layer(0)] + [0] * deletion_depth) for r in rests]


def full_depth_examine_config(config):
    problems = []
    n = len(config)
    base, deletions = tables = per_deletion_tables(config, n, n // 2)
    report = full_depth_verify_polygon(config, tables)
    if report.verdict != "conforms":
        problems.append(("wedge-convexity", None))
    for p in range(1, n // 2 + 1):
        good = bool(harness._common_layer(deletions, p))
        if n >= 5 and not good:
            problems.append(("not-p-good", p))
        if n >= 4 and good and not _fills_cover(base.hull_fill(p), deletions, p):
            problems.append(("union-decomposition", p))
    return report.exception_k, problems


def _fills_cover(whole, deletions, size):
    """Is the bitset ``whole`` inside the union of the deletion tables' hull fills at ``size``?"""
    covered = 0
    for table in deletions:
        covered |= table.hull_fill(size)
    return not whole & ~covered


class SubsetSumTable:
    """The layered bitset table in its earlier box [min(0, depth * lo), max(0, depth * hi)]."""

    def __init__(self, points, depth, dim, box=None):
        points = list(points)
        self.dim, self.depth = dim, depth
        lows = [min((p[d] for p in points), default=0) for d in range(dim)]
        highs = [max((p[d] for p in points), default=0) for d in range(dim)]
        self.box_lo = tuple(min(0, depth * lo) for lo in lows)
        self.box_hi = tuple(max(0, depth * hi) for hi in highs)
        if box is not None:
            self.box_lo, self.box_hi = box.box_lo, box.box_hi
        self.shape = [hi - lo + 1 for lo, hi in zip(self.box_lo, self.box_hi)]
        self.total_cells = math.prod(self.shape)
        self.layers = [0] * (depth + 1)
        self.layers[0] = 1 << self._flatten((0,) * dim)
        for seen, point in enumerate(points, start=1):
            offset = self._flatten(point) - self._flatten((0,) * dim)
            for c in range(min(seen, depth), 0, -1):
                below = self.layers[c - 1]
                self.layers[c] |= (below << offset) if offset >= 0 else (below >> -offset)

    def _flatten(self, point):
        flat, stride = 0, 1
        for c, lo, side in zip(point, self.box_lo, self.shape):
            flat += (c - lo) * stride
            stride *= side
        return flat

    def contains(self, size, point):
        if not 0 <= size <= self.depth:
            return False
        if not all(lo <= c <= hi for c, lo, hi in zip(point, self.box_lo, self.box_hi)):
            return False
        return bool(self.layers[size] >> self._flatten(point) & 1)

    def points_at(self, size):
        out = []
        for flat in range(self.layers[size].bit_length()):
            if self.layers[size] >> flat & 1:
                point, rest = [], flat
                for lo, side in zip(self.box_lo, self.shape):
                    rest, c = divmod(rest, side)
                    point.append(lo + c)
                out.append(tuple(point))
        return sorted(out)

    def digest(self, size):
        h = hashlib.sha256()
        h.update(repr((self.dim, self.box_lo, self.box_hi, size)).encode())
        h.update(self.layers[size].to_bytes((self.total_cells + 7) // 8, "little"))
        return h.hexdigest()


def points_of(table, size, bits):
    """The points of a bitset in the box of ``table``'s layer ``size``, in flat order.

    Flat indices are split per coordinate and moved to the layer's low corner.
    """
    import numpy as np

    nbytes = (table.total_cells + 7) // 8
    raw = bits.to_bytes(nbytes, "little")
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    flat = np.flatnonzero(unpacked[: table.total_cells]).astype(np.int64)
    out = np.empty((flat.size, table.dim), dtype=np.int64)
    for d in range(table.dim - 1, -1, -1):
        out[:, d], flat = np.divmod(flat, table._strides[d])
    out += np.array(table._origin(size), dtype=np.int64)
    return list(map(tuple, out.tolist()))


def lowest_level(table, size, coeffs):
    """The least value of ``coeffs`` . p over the sums p in one layer, and every sum attaining it, sorted.

    The layer of a table of dimension 2 or 3 is read as its bit grid, one
    slice along the last coordinate at a time: a slice's values are one
    array, the other coordinates' part of the form, plus the last
    coordinate's term.  No array of coordinates, or of values over the
    whole box, is built.  An empty layer raises ValueError.
    """
    import numpy as np

    raw = np.frombuffer(table.layer(size).to_bytes((table.total_cells + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=table.total_cells, bitorder="little")
    grid = bits.view(bool).reshape(table._shape[::-1])  # grid[z, y, x] in 3D
    lo, coeffs = table.box_lo[::-1], tuple(coeffs)[::-1]  # last coordinate first, as the grid
    # the form on one slice, less the last coordinate's term: a sum of one open grid per other axis
    terms = (np.arange(b, b + n, dtype=np.int64) * a for n, b, a in zip(grid.shape[1:], lo[1:], coeffs[1:]))
    plane = sum(np.ix_(*terms))
    best, found = None, []
    for index, cells in enumerate(grid):
        if not cells.any():
            continue
        last = index + lo[0]
        level = int(plane.min(where=cells, initial=np.iinfo(np.int64).max)) + coeffs[0] * last
        if best is None or level < best:
            best, found = level, []
        if level == best:
            at_level = np.argwhere(cells & (plane == level - coeffs[0] * last)) + lo[1:]
            found.extend((last, *rest) for rest in at_level.tolist())
    if best is None:
        raise ValueError(f"layer {size} is empty")
    return best, tuple(sorted(tuple(reversed(p)) for p in found))
