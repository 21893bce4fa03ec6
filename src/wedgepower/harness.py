"""Exhaustive verification of wedge-power convexity over small grids.

Enumerates every lattice-convex subset of a rectangular grid (up to
translation), runs the full battery of convexity checks on one member of
each affine unimodular orbit, and reduces the results to a summary whose
violation list is expected to stay empty: non-convex wedge powers may
appear only for the exceptional triangles, and only at subset sizes 2 and
N-2.
"""

import os
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Optional

from .geometry import (
    BudgetError,
    DimensionError,
    Point,
    PointConfig,
    _frames,
    _lower_chain,
    exception_index,
    vertex_set,
)
from .wedge import SubsetSumTable, _abridged, _pick_count

GRID_CELL_BUDGET = 25


@dataclass(frozen=True)
class GridSpec:
    """The grid [0, width] x [0, height]; cell count is capped for enumeration."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError("grid extents must be nonnegative")
        if self.cell_count > GRID_CELL_BUDGET:
            raise BudgetError(
                f"grid has {_abridged(self.cell_count)} cells, enumeration budget is {GRID_CELL_BUDGET}"
            )

    @property
    def cell_count(self) -> int:
        return (self.width + 1) * (self.height + 1)


def enumerate_lattice_convex(grid: GridSpec) -> list[PointConfig]:
    """All lattice-convex subsets of the grid, one per translation class, in the order of ``_classes``."""
    return [PointConfig(2, points) for points, _ in _classes(grid)]


def _classes(grid: GridSpec) -> list[tuple[tuple[Point, ...], list[Point]]]:
    """Each lattice-convex class of the grid as (sorted points, strict counterclockwise hull ring).

    A lattice-convex set is a run of row intervals [l, r], and a row inside
    the run may be empty: the segment (0,0)-(1,2) has no lattice point on
    row 1.  Rows are chosen depth first from y = 0, and the search carries
    the hull's two boundaries: the lower chains of the row minima (y, l)
    and of the negated row maxima (y, -r).  A candidate row is pushed onto
    both with ``_lower_chain``, and the prefix is extended only while it is
    lattice-convex, that is while Pick's count of the chains' ring equals
    its number of points: the hull of a set contains the hull of each of its
    prefixes, so a prefix missing a hull point never gets it back.  A set
    is kept when its top row is nonempty and some row starts at x = 0, so
    each translation class appears once, moved to the origin, with its ring
    read off the chains: up the right boundary, down the left, less a corner
    met twice.  Classes are sorted by size and then by points.
    """
    row_width = grid.width + 1
    cells = [[(x, y) for x in range(row_width)] for y in range(grid.height + 1)]  # shared by every class
    found: list[tuple[tuple[Point, ...], list[Point]]] = []

    def extend(y: int, points: list[Point], lows: list[Point], neg_highs: list[Point], at_left: bool) -> None:
        if y > grid.height:
            return
        for lo in range(row_width):
            grown_lows = _lower_chain(lows + [(y, lo)])
            for hi in range(lo, row_width):
                grown_highs = _lower_chain(neg_highs + [(y, -hi)])
                if _pick_count(grown_lows, grown_highs) != len(points) + hi - lo + 1:
                    # a wider top row only grows the hull over the same rows
                    # below, so it misses the same points
                    break
                grown = points + cells[y][lo : hi + 1]
                left = at_left or lo == 0
                if left:
                    ring = [cells[row][-x] for row, x in grown_highs]
                    ring += [cells[row][x] for row, x in reversed(grown_lows)][lo == hi :]  # a one-point top row once
                    if len(ring) > 1 and ring[-1] == ring[0]:  # and a one-point bottom row
                        ring.pop()
                    found.append((tuple(sorted(grown)), ring))
                extend(y + 1, grown, grown_lows, grown_highs, left)
        if y:
            extend(y + 1, points, lows, neg_highs, at_left)  # an empty row

    extend(0, [], [], [], False)
    found.sort(key=lambda item: (len(item[0]), item[0]))
    return found


def _tables(config: PointConfig, depth: int) -> tuple[SubsetSumTable, list[SubsetSumTable]]:
    """The base table and each vertex deletion's, all at ``depth``.

    All of them share one layout, so wedges compare with integer AND and
    OR.  Every deletion keeps the points that are not vertices, so they are
    fed once, into a stem in the base table's layout; each deletion table
    is the stem with the other vertices fed in.  Layers are sets of sums,
    which do not depend on the order points are fed in.  A deletion has one
    point fewer than the base, so at depth N its layer N is empty.
    """
    vertices = vertex_set(config)
    base = SubsetSumTable(config.points, depth, dim=config.dim)
    inner = [q for q in config.points if q not in vertices]
    stem = base._derived(inner, [base.layer(0)] + [0] * depth)
    return base, [stem._derived([w for w in vertices if w != v]) for v in vertices]


def is_p_good(config: PointConfig, subset_size: int) -> Optional[Point]:
    """A common point of the size-``subset_size`` wedges of all one-vertex deletions.

    Returns the canonically smallest witness, or None when the intersection
    over the hull vertices is empty.  Configurations of dimension 3 are
    refused with DimensionError, as their vertex sets are.
    """
    if len(config) < 2:
        raise ValueError("p-goodness needs at least two points")
    if not 1 <= subset_size <= len(config) - 1:
        raise ValueError("subset size must be between 1 and N-1")
    base, deletions = _tables(config, subset_size)
    common = _common_layer(deletions, subset_size)
    return min(base.points_of(subset_size, common)) if common else None


def _common_layer(deletions: list[SubsetSumTable], size: int) -> int:
    """The sums of ``size`` points that every deletion table reaches, as a bitset."""
    return reduce(and_, (table.layer(size) for table in deletions))


def union_decomposition_holds(config: PointConfig, subset_size: int) -> bool:
    """Does the hull of the wedge decompose into the hulls of the deleted-vertex wedges?

    Checked at lattice level: every lattice point of conv of the full wedge
    must lie in conv of the wedge of some one-vertex deletion.
    """
    if not 1 <= subset_size <= len(config):
        raise ValueError("subset size must be between 1 and N")
    if config.dim != 2:
        raise DimensionError("union decomposition is checked for planar configurations")
    base, deletions = _tables(config, subset_size)
    return _hull_is_covered(base, deletions, subset_size, base.hull_count(subset_size))


def _hull_is_covered(base: SubsetSumTable, deletions: list[SubsetSumTable], size: int, count: int) -> bool:
    """Is the hull of ``base``'s layer ``size``, of ``count`` lattice points, inside the deletions' hulls at ``size``?

    Each deletion layer lies in the base layer and so in its hull, so the
    union of the deletion layers covers the hull exactly when it has
    ``count`` points.  Only when it has fewer is the hull fill built, and
    the deletions' fills, each holding its own layer, join the union one at
    a time until it covers the fill.
    """
    covered = reduce(or_, (table.layer(size) for table in deletions))
    if covered.bit_count() == count:
        return True
    whole = base.hull_fill(size)
    for table in deletions:
        covered |= table.hull_fill(size)
        if not whole & ~covered:
            return True
    return False


@dataclass(frozen=True)
class TheoremReport:
    """Convexity verdicts for one configuration across all subset sizes."""

    base: PointConfig
    count: int
    exception_k: Optional[int]
    per_size: tuple[tuple[int, bool, tuple[Point, ...]], ...]
    verdict: str  # "conforms" or "violates"

    @property
    def nonconvex_sizes(self) -> tuple[int, ...]:
        return tuple(p for p, convex, _ in self.per_size if not convex)

    def to_json(self) -> dict:
        return {
            "base": {"dim": self.base.dim, "points": [list(p) for p in self.base]},
            "count": self.count,
            "exception_k": self.exception_k,
            "per_p": [
                {"p": p, "convex": convex, "missing": [list(m) for m in missing]}
                for p, convex, missing in self.per_size
            ],
            "verdict": self.verdict,
        }


def verify_polygon(config: PointConfig) -> TheoremReport:
    """Check lattice-convexity of every wedge power of one configuration.

    Conforming behaviour is: convex everywhere for ordinary configurations,
    and non-convex exactly at sizes 2 and N-2 for configurations equivalent
    to an exceptional triangle.  Sizes 0..N//2 are read from one table of
    depth N//2; size N-p is size p reflected through the total of the
    configuration, as leaving p points out reflects every sum of the other
    N-p (``tests/oracles.py`` keeps the full-depth reading as a reference).
    A set that is not lattice-convex lies outside the theorem and raises
    ValueError naming the hull points it misses.
    """
    if config.dim != 2:
        raise DimensionError("verify_polygon expects a planar configuration")
    return _theorem_report(config, SubsetSumTable(config.points, len(config) // 2, dim=2))[0]


def _theorem_report(config: PointConfig, base: SubsetSumTable) -> tuple[TheoremReport, list[int]]:
    """verify_polygon's report from a table of depth N//2, and the hull count of each size it read."""
    n = len(config)
    reports = [base.check_convex(p) for p in range(base.depth + 1)]
    total = config.total()
    reflected = [reports[n - p].reflected(total) for p in range(len(reports), n + 1)]
    per_size = [(p, report.convex, report.missing.points) for p, report in enumerate(reports + reflected)]
    if n and not per_size[1][1]:  # the size-1 layer is the configuration itself
        missing = ", ".join(map(str, per_size[1][2]))
        raise ValueError(f"the configuration is not lattice-convex: its hull also holds {missing}")
    k = exception_index(config)
    failures = {p for p, convex, _ in per_size if not convex}
    expected = {2, n - 2} if k is not None else set()
    verdict = "conforms" if failures == expected else "violates"
    # a layer lies in its hull fill, so its hull holds its points and the ones it misses
    counts = [report.cardinality + len(report.missing) for report in reports]
    return TheoremReport(config, n, k, tuple(per_size), verdict), counts


@dataclass(frozen=True)
class Violation:
    kind: str
    config: PointConfig
    subset_size: Optional[int] = None

    def to_json(self) -> dict:
        entry = {"kind": self.kind, "points": [list(p) for p in self.config]}
        if self.subset_size is not None:
            entry["p"] = self.subset_size
        return entry


@dataclass
class GridSummary:
    grid: GridSpec
    config_count: int
    violations: list[Violation] = field(default_factory=list)
    exceptions_seen: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "grid": [self.grid.width, self.grid.height],
            "configs": self.config_count,
            "violations": [v.to_json() for v in self.violations],
            "exceptions_seen": [
                {"k": k, "count": self.exceptions_seen[k]} for k in sorted(self.exceptions_seen)
            ],
        }


def _examine_config(config: PointConfig) -> tuple[Optional[int], list[tuple[str, Optional[int]]]]:
    problems: list[tuple[str, Optional[int]]] = []
    n = len(config)
    base, deletions = _tables(config, n // 2)
    report, counts = _theorem_report(config, base)
    if report.verdict != "conforms":
        problems.append(("wedge-convexity", None))
    for p in range(1, n // 2 + 1):
        good = bool(_common_layer(deletions, p))
        if n >= 5 and not good:
            problems.append(("not-p-good", p))
        if n >= 4 and good and not _hull_is_covered(base, deletions, p, counts[p]):
            problems.append(("union-decomposition", p))
    return report.exception_k, problems


def verify_grid(grid: GridSpec, jobs: int = 1) -> GridSummary:
    """Run verify_polygon plus the goodness and decomposition checks over a grid.

    Every check is invariant under affine unimodular maps, so one
    representative per orbit, its first class in sorted order, is examined
    and its outcome counted for every member.  A representative registers
    its ring's image under each of its frames (``_frames``), and a later
    class joins the orbit that registered its ring's image under its first
    frame.  Lattice maps carry frames to frames with their images, and a
    lattice-convex set is the lattice points of the hull of its corners, so
    this is exact.  The work can be spread over 1 to os.cpu_count() worker
    processes; the summary does not depend on their count.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and the CPU count ({cpus}), got {jobs}")
    classes = _classes(grid)
    representatives: list[PointConfig] = []
    orbit_of: dict[tuple[Point, ...], int] = {}  # each representative's ring images -> its orbit
    orbits = []
    for points, ring in classes:
        frames = _frames(ring, ring)
        first = tuple(next(frames)[0])
        if first not in orbit_of:  # the first class of its orbit
            for image in [first] + [tuple(other) for other, _, _ in frames]:
                orbit_of[image] = len(representatives)
            representatives.append(PointConfig(2, points))
        orbits.append(orbit_of[first])
    if jobs > 1:
        import multiprocessing  # loaded only for a pool: its import slows every command's start

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_examine_config, representatives)
    else:
        results = [_examine_config(c) for c in representatives]

    summary = GridSummary(grid, len(classes))
    for (points, _), orbit in zip(classes, orbits):  # sorted by size, then by points
        k, problems = results[orbit]
        if k is not None:
            summary.exceptions_seen[k] = summary.exceptions_seen.get(k, 0) + 1
        for kind, p in problems:
            summary.violations.append(Violation(kind, PointConfig(2, points), p))
    return summary
