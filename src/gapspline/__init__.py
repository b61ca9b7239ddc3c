"""gapspline: reconstruct the occluded piece of a B-spline curve.

Given two visible B-spline curves separated by a gap, compute the control
points of a connecting curve that makes a user-chosen Lagrangian in
Euclidean difference invariants stationary, in 2D or 3D.  See the README
for the Lagrangian DSL and the command-line interface.
"""

from .bspline import BSplineCurve, KnotVector, make_knot_vector
from .errors import (
    BalanceError,
    ConvergenceFailure,
    DegenerateScene,
    DslSyntaxError,
    DslTypeError,
    FormatError,
    GapsplineError,
    InvalidArgument,
    OrientationFailure,
    UnsupportedComplexity,
)
from .lagrangian import (
    eval_lagrangian,
    format_lagrangian,
    grad_lagrangian,
    parse_lagrangian,
    validate_lagrangian,
)
from .planner import (
    TopologyPlan,
    classify_case,
    count_inflections,
    plan,
    signed_curvature,
    target_inflections,
)
from .formats import (
    SceneDocument,
    curve_payload,
    emit_json,
    format_float,
    read_scene,
    read_solution,
    solution_curve_from_document,
    transform_payload,
    write_csv,
    write_solution,
)
from .rigid import RigidTransform, normalize_2d, normalize_3d
from .solver import Solution, SolverConfig, default_initial_guess, newton, solve, start_grid
from .system import (
    CoordinateTie,
    NormalizedScene,
    ResidualSystem,
    Scene,
    UnknownLayout,
    build_layout,
    case1_tie,
    case2_tie,
    normalize_scene,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "BSplineCurve",
    "KnotVector",
    "make_knot_vector",
    "GapsplineError",
    "InvalidArgument",
    "FormatError",
    "DslSyntaxError",
    "DslTypeError",
    "BalanceError",
    "ConvergenceFailure",
    "OrientationFailure",
    "DegenerateScene",
    "UnsupportedComplexity",
    "parse_lagrangian",
    "format_lagrangian",
    "validate_lagrangian",
    "eval_lagrangian",
    "grad_lagrangian",
    "RigidTransform",
    "normalize_2d",
    "normalize_3d",
    "Scene",
    "NormalizedScene",
    "normalize_scene",
    "CoordinateTie",
    "case1_tie",
    "case2_tie",
    "build_layout",
    "UnknownLayout",
    "ResidualSystem",
    "SolverConfig",
    "Solution",
    "solve",
    "newton",
    "default_initial_guess",
    "start_grid",
    "TopologyPlan",
    "plan",
    "classify_case",
    "count_inflections",
    "signed_curvature",
    "target_inflections",
    "SceneDocument",
    "read_scene",
    "read_solution",
    "write_solution",
    "solution_curve_from_document",
    "curve_payload",
    "transform_payload",
    "write_csv",
    "emit_json",
    "format_float",
    "render_svg",
    "__version__",
]
