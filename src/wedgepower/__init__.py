"""Exact wedge powers of lattice point sets.

The wedge power of a finite lattice point set at size p is the set of sums
of its p-element subsets.  This package computes wedge powers exactly,
decides whether planar point sets are lattice-convex, verifies the
convexity behaviour of wedge powers exhaustively over small grids, and
reproduces the three-dimensional configuration where that behaviour
breaks down.

``import wedgepower`` loads none of its modules.  Each public name is
looked up in its home module when it is read (PEP 562), so a command that
checks planar sets never loads the 3D witness, the corner cut or the
renderer.  The name is not kept in the package afterwards: it is read
through its module every time, so anything that rebinds a module's
function, such as a tracer, is seen through the package too.  A loaded
module is read from ``sys.modules``, so only the first read of a name
goes through the import machinery.
"""

import importlib
import sys

__version__ = "0.1.0"

_HOMES = {
    "cornercut": ("truncated_quadrant", "verify_corner_cut"),
    "counterexample3d": (
        "ColoredSimplex",
        "build_colored_simplex",
        "verify_counterexample",
        "witness_point",
    ),
    "geometry": (
        "AffineUnimodularMap",
        "BudgetError",
        "DimensionError",
        "LinearFunctional",
        "Point",
        "PointConfig",
        "apply_map",
        "are_equivalent",
        "exception_index",
        "exceptional_triangle",
        "vertex_set",
    ),
    "harness": (
        "GridSpec",
        "TheoremReport",
        "is_p_good",
        "verify_grid",
        "verify_polygon",
    ),
    "wedge": ("ConvexityReport", "SubsetSumTable", "check_lattice_convex", "wedge_power"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{module}"
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
