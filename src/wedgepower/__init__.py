"""Exact wedge powers of lattice point sets.

The wedge power of a finite lattice point set at size p is the set of sums
of its p-element subsets.  This package computes wedge powers exactly,
decides whether planar point sets are lattice-convex, verifies the
convexity behaviour of wedge powers exhaustively over small grids, and
reproduces the three-dimensional configuration where that behaviour
breaks down.
"""

from .cornercut import truncated_quadrant, verify_corner_cut
from .counterexample3d import (
    ColoredSimplex,
    build_colored_simplex,
    plane_coordinates,
    quadrant_points_below,
    verify_counterexample,
    witness_point,
)
from .geometry import (
    AffineUnimodularMap,
    BudgetError,
    DimensionError,
    LinearFunctional,
    Point,
    PointConfig,
    apply_map,
    are_equivalent,
    exception_index,
    exceptional_triangle,
    normal_form,
    remove_vertex,
    vertex_set,
)
from .harness import (
    GridSpec,
    TheoremReport,
    enumerate_lattice_convex,
    is_p_good,
    union_decomposition_holds,
    verify_grid,
    verify_polygon,
)
from .wedge import (
    ConvexityReport,
    SubsetSumTable,
    check_lattice_convex,
    wedge_power,
)

__version__ = "0.1.0"

__all__ = [
    "AffineUnimodularMap",
    "BudgetError",
    "ColoredSimplex",
    "ConvexityReport",
    "DimensionError",
    "GridSpec",
    "LinearFunctional",
    "Point",
    "PointConfig",
    "SubsetSumTable",
    "TheoremReport",
    "apply_map",
    "are_equivalent",
    "build_colored_simplex",
    "check_lattice_convex",
    "enumerate_lattice_convex",
    "exception_index",
    "exceptional_triangle",
    "is_p_good",
    "normal_form",
    "plane_coordinates",
    "quadrant_points_below",
    "remove_vertex",
    "truncated_quadrant",
    "union_decomposition_holds",
    "verify_corner_cut",
    "verify_counterexample",
    "verify_grid",
    "verify_polygon",
    "vertex_set",
    "wedge_power",
    "witness_point",
]
