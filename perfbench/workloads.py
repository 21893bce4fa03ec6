"""The benchmark's workloads: inputs from a seed, one iteration, frozen answers.

Each workload calls the public functions that the command line calls and
checks every result against answers frozen here.  An iteration is one full
verification of the workload's claims; its result is checked outside the
timed region.  The package is passed in rather than imported, so that the
caller controls where ``wedgepower`` is loaded from and when.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

FROZEN_WEDGE42_SIZE = 425997
FROZEN_WEDGE42_DIGEST = "853fc3c7563748996e3d5e4dbad3fac4309f62069bb27ecfcbb9c52fbbdd3fba"

FROZEN_GRIDS = {
    # (width, height): (configurations, exceptions_seen)
    (2, 2): (132, {1: 4}),
    (3, 2): (420, {1: 8, 2: 4}),
}

TRIANGLE_BOUND = 8
# |wedge_p| for p = 0..45 of the triangle x, y >= 0, x + y <= 8.  Unimodular
# maps preserve these cardinalities, so every seed must reproduce them.
FROZEN_TRIANGLE_SIZES = (
    1, 45, 150, 310, 519, 768, 1045, 1347, 1656, 1960, 2280, 2592, 2881, 3171,
    3438, 3682, 3906, 4098, 4264, 4401, 4497, 4564, 4608, 4608, 4564, 4497,
    4401, 4264, 4098, 3906, 3682, 3438, 3171, 2881, 2592, 2280, 1960, 1656,
    1347, 1045, 768, 519, 310, 150, 45, 1,
)
CORNER_BOUNDS = range(2, 13)
CORNER_MAX_SIZE = 10
FROZEN_CORNER_POINTS = 103788  # total wedge cardinality over the corner-cut matrix

# Rows (a, b) for which a*x + b*y spans exactly [0, 8] or [-8, 0] over the
# triangle.  Every unimodular matrix built from two of them keeps the
# triangle's bounding box 9 x 9, so after moving the minimum corner to the
# origin every seed asks the table for the same number of cells.
_BOX_KEEPING_ROWS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))
POLYGON_MAPS = tuple(
    (r1, r2)
    for r1 in _BOX_KEEPING_ROWS
    for r2 in _BOX_KEEPING_ROWS
    if r1[0] * r2[1] - r1[1] * r2[0] in (1, -1)
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    spares: str
    build: Callable[[Any, int], Any]
    iterate: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], list[str]]
    # (package, inputs, result, work dir) -> (CLI arguments, expected stdout)
    cli: Callable[[Any, Any, Any, Path], tuple[list[str], str]]


# --- witness3d ------------------------------------------------------------

def _witness3d_build(wp, seed: int) -> None:
    # The 84-point simplex is fixed; the seed is recorded but changes nothing.
    return None


def _witness3d_iterate(wp, inputs):
    # Passing the simplex makes every iteration build its own table, as each
    # command-line run does; with no argument the cached table would be timed.
    return wp.verify_counterexample(wp.build_colored_simplex())


def _witness3d_check(wp, inputs, report) -> list[str]:
    errors = []
    if report.wedge_size != FROZEN_WEDGE42_SIZE:
        errors.append(f"wedge_size {report.wedge_size} != {FROZEN_WEDGE42_SIZE}")
    if report.digest != FROZEN_WEDGE42_DIGEST:
        errors.append(f"digest {report.digest} differs from the frozen digest")
    if not report.holds:
        errors.append("the witness claims do not hold")
    return errors


def _witness3d_cli(wp, inputs, report, workdir: Path):
    return ["counterexample3d"], wp.jsonio.dumps(report.to_json())


# --- grid -----------------------------------------------------------------

def _grid_build(wp, seed: int):
    # Both grids are fixed; the seed is recorded but changes nothing.
    return tuple(wp.GridSpec(w, h) for w, h in FROZEN_GRIDS)


def _grid_iterate(wp, grids, jobs: int = 1):
    return tuple(wp.verify_grid(grid, jobs=jobs) for grid in grids)


def _grid_check(wp, grids, summaries) -> list[str]:
    errors = []
    for grid, summary in zip(grids, summaries):
        count, exceptions = FROZEN_GRIDS[(grid.width, grid.height)]
        label = f"{grid.width}x{grid.height}"
        if summary.config_count != count:
            errors.append(f"{label}: {summary.config_count} configurations, expected {count}")
        if summary.exceptions_seen != exceptions:
            errors.append(f"{label}: exceptions_seen {summary.exceptions_seen} != {exceptions}")
        if summary.violations:
            errors.append(f"{label}: {len(summary.violations)} violations")
    return errors


def _grid_cli(wp, grids, summaries, workdir: Path):
    return ["verify-grid", "--grid", "3x2"], wp.jsonio.dumps(summaries[1].to_json())


# --- polygon --------------------------------------------------------------

def polygon_map(seed: int):
    """The seeded linear part; seed 0 is the identity."""
    if seed == 0:
        return ((1, 0), (0, 1))
    return random.Random(seed).choice(POLYGON_MAPS)


def _polygon_build(wp, seed: int):
    matrix = polygon_map(seed)
    triangle = wp.truncated_quadrant(TRIANGLE_BOUND)
    image = [tuple(r[0] * x + r[1] * y for r in matrix) for x, y in triangle]
    shift = tuple(-min(p[d] for p in image) for d in range(2))
    transform = wp.AffineUnimodularMap(matrix, shift)
    config = wp.apply_map(transform, triangle)
    cells = tuple(
        (d, bound)
        for bound in CORNER_BOUNDS
        for d in range(1, min(CORNER_MAX_SIZE, (bound + 1) * (bound + 2) // 2) + 1)
    )
    return config, cells


def _polygon_iterate(wp, inputs):
    config, cells = inputs
    return wp.verify_polygon(config), [wp.verify_corner_cut(d, b) for d, b in cells]


def _polygon_check(wp, inputs, result) -> list[str]:
    config, cells = inputs
    report, corner = result
    errors = []
    if report.verdict != "conforms":
        errors.append(f"verdict {report.verdict!r}")
    if report.nonconvex_sizes:
        errors.append(f"non-convex at sizes {report.nonconvex_sizes}")
    table = wp.SubsetSumTable(config.points, len(config))
    sizes = tuple(table.count(p) for p in range(len(config) + 1))
    if sizes != FROZEN_TRIANGLE_SIZES:
        errors.append("per-size wedge cardinalities differ from the frozen seed-0 values")
    for (d, bound), cell in zip(cells, corner):
        if not cell.convex:
            errors.append(f"corner cut d={d} B={bound} is not convex")
    total = sum(cell.cardinality for cell in corner)
    if total != FROZEN_CORNER_POINTS:
        errors.append(f"corner-cut wedge points {total} != {FROZEN_CORNER_POINTS}")
    return errors


def _polygon_cli(wp, inputs, result, workdir: Path):
    config, _ = inputs
    path = workdir / "polygon-input.json"
    path.write_text(wp.jsonio.dumps(wp.jsonio.config_to_json(config)))
    return ["verify-polygon", "--input", str(path)], wp.jsonio.dumps(result[0].to_json())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="witness3d",
            why="the 16.2M-cell, depth-42 table over the 84-point simplex: the only "
            "workload where the big-integer shift kernel, numpy extraction and memory dominate",
            stresses="wedge table build (~85%), wedge extraction via coords (~10%), "
            "counterexample3d; peak_rss_mb",
            spares="geometry, harness and cornercut: no 2D hull, scan or enumeration runs",
            build=_witness3d_build,
            iterate=_witness3d_iterate,
            check=_witness3d_check,
            cli=_witness3d_cli,
        ),
        Workload(
            name="grid",
            why="552 tiny configurations over the 2x2 and 3x2 grids: per-call overhead, "
            "geometry and harness enumeration dominate, the table kernel is negligible",
            stresses="harness enumeration, p-goodness and union decomposition; geometry "
            "hulls, row scans, equivalence search; PointConfig.of; ~15k tiny tables",
            spares="big tables: table build time and memory barely register",
            build=_grid_build,
            iterate=_grid_iterate,
            check=_grid_check,
            cli=_grid_cli,
        ),
        Workload(
            name="polygon",
            why="the 45-point triangle under a seeded unimodular map plus the corner-cut "
            "matrix: the layers grid uses, but a few large inputs instead of many small, so a "
            "change that trades one case against the other shows",
            stresses="wedge extraction and PointConfig.of on thousands of points, geometry "
            "hulls and row scans of large wedges, cornercut; a little table build",
            spares="harness enumeration, p-goodness, union decomposition and counterexample3d",
            build=_polygon_build,
            iterate=_polygon_iterate,
            check=_polygon_check,
            cli=_polygon_cli,
        ),
    )
}
