"""Scene and solution documents (JSON-shaped), plus CSV polylines.

Parsing uses the stdlib JSON reader; emission is done by a small serializer
of our own because the output contract is byte-level determinism with floats
at 17 significant digits (exact double round-trip), which ``json.dump`` does
not let us control.  Numeric vectors are kept on one line, structures are
indented two spaces, key order is fixed by construction.
"""

import json
from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, KnotVector, make_knot_vector
from .errors import FormatError
from .rigid import RigidTransform
from .solver import Solution
from .system import Scene

SCENE_VERSION = 1


def format_float(x: float) -> str:
    """Shortest-ish decimal that round-trips a double: 17 significant digits."""
    return "%.17g" % float(x)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(value) -> bool:
    """Whether a JSON value is an array of numbers: no strings, no true/false."""
    return isinstance(value, list) and all(_is_number(v) for v in value)


def emit_json(value, indent: int = 0) -> str:
    """Deterministic JSON text; see module docstring for the conventions."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {emit_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if all(isinstance(v, float) for v in items):
            return "[" + ", ".join(["%.17g"] * len(items)) % tuple(items) + "]"
        if all(_is_number(v) for v in items):
            return "[" + ", ".join(
                format_float(v) if isinstance(v, float) else str(v) for v in items
            ) + "]"
        rows = [f"{inner}{emit_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise FormatError(f"cannot serialize {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class SceneDocument:
    """A parsed scene file: the scene plus what the file left to defaults."""

    scene: Scene
    has_topology: bool
    lagrangian_text: "str | None"


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise FormatError(f"{context} is missing required field {key!r}")
    return obj[key]


def _parse_curve(obj, dim: int, context: str) -> BSplineCurve:
    if not isinstance(obj, dict):
        raise FormatError(f"{context} must be an object with degree/knots/points")
    degree = _require(obj, "degree", context)
    knots = _require(obj, "knots", context)
    points = _require(obj, "points", context)
    if type(degree) is not int:  # JSON true loads as bool, a subclass of int
        raise FormatError(f"{context}.degree must be an integer")
    if not _is_numbers(knots):
        raise FormatError(f"{context}.knots invalid: must be an array of numbers")
    try:
        kv = KnotVector(tuple(knots), degree)
    except (OverflowError, ValueError) as exc:  # an integer beyond float range
        raise FormatError(f"{context}.knots invalid: {exc}") from exc
    if not (isinstance(points, list) and all(_is_numbers(p) for p in points)):
        raise FormatError(f"{context}.points must be an n x {dim} array of numbers")
    try:
        pts = np.asarray(points, dtype=float)
    except (OverflowError, ValueError) as exc:  # ragged rows, or beyond float range
        raise FormatError(f"{context}.points must be an n x {dim} array of numbers") from exc
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise FormatError(f"{context}.points must be an n x {dim} array")
    return BSplineCurve(kv, pts)


def _parse_dim(doc: dict, context: str) -> int:
    dim = _require(doc, "dim", context)
    if type(dim) is not int or dim not in (2, 3):
        raise FormatError(f"dim must be 2 or 3, got {dim!r}")
    return dim


def read_scene(text: str) -> SceneDocument:
    """Parse scene-file text; malformed documents raise FormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"scene file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("scene file must be a JSON object")
    version = _require(doc, "version", "scene file")
    if type(version) is not int or version != SCENE_VERSION:
        raise FormatError(f"unsupported scene file version {version!r}")
    dim = _parse_dim(doc, "scene file")
    left = _parse_curve(_require(doc, "left", "scene file"), dim, "left")
    right = _parse_curve(_require(doc, "right", "scene file"), dim, "right")

    solution = doc.get("solution")
    has_topology = solution is not None
    degree, pieces = 3, 1
    if has_topology:
        if not isinstance(solution, dict):
            raise FormatError("solution must be an object with degree and pieces")
        degree = _require(solution, "degree", "solution")
        pieces = _require(solution, "pieces", "solution")
        if type(degree) is not int or type(pieces) is not int:
            raise FormatError("solution degree and pieces must be integers")

    lagrangian = doc.get("lagrangian")
    if lagrangian is not None and not isinstance(lagrangian, str):
        raise FormatError("lagrangian must be a string")
    return SceneDocument(Scene(left, right, degree, pieces), has_topology, lagrangian)


def curve_payload(curve: BSplineCurve) -> dict:
    return {
        "degree": curve.degree,
        "knots": list(curve.knots.knots),
        "points": curve.points.tolist(),
    }


def transform_payload(transform: RigidTransform) -> dict:
    return {
        "rotation": transform.rotation.tolist(),
        "translation": transform.translation.tolist(),
    }


def write_solution(
    scene: Scene,
    solution: Solution,
    transform: RigidTransform,
    lagrangian_text: str,
    plan_echo: "dict | None",
) -> str:
    """Solution-file text: normalized and original control points plus
    the diagnostics needed to reproduce or render the result."""
    original = transform.inverse().apply(solution.control_points)
    knots = make_knot_vector(scene.solution_degree, scene.solution_pieces)
    payload = {
        "version": SCENE_VERSION,
        "dim": scene.dim,
        "solution": {
            "degree": scene.solution_degree,
            "pieces": scene.solution_pieces,
            "knots": list(knots.knots),
        },
        "lagrangian": lagrangian_text,
        "alpha": solution.alpha,
        "beta": solution.beta,
        "unknowns": solution.unknowns.tolist(),
        "residual_norm": solution.residual_norm,
        "iterations": solution.iterations,
        "start_used": solution.start_used,
        "normalized_points": solution.control_points.tolist(),
        "original_points": original.tolist(),
        "transform": transform_payload(transform),
        "plan": plan_echo,
    }
    return emit_json(payload) + "\n"


def read_solution(text: str) -> dict:
    """Parse a solution file back to a plain dict (numbers exact)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"solution file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "original_points" not in doc:
        raise FormatError("not a solution file (no original_points)")
    return doc


def solution_curve_from_document(doc: dict) -> BSplineCurve:
    """The original-frame solution curve of a solution file, parsed like a
    scene file's curves: the solution's degree and knots, ``original_points``."""
    info = _require(doc, "solution", "solution file")
    if not isinstance(info, dict):
        raise FormatError("solution must be an object with degree and knots")
    curve = {**info, "points": _require(doc, "original_points", "solution file")}
    return _parse_curve(curve, _parse_dim(doc, "solution file"), "solution")


def write_csv(samples: np.ndarray, ts: np.ndarray) -> str:
    """CSV polyline: t,x,y[,z] with full-precision decimals."""
    dim = samples.shape[1]
    header = "t,x,y" if dim == 2 else "t,x,y,z"
    rows = [header]
    for t, p in zip(ts, samples):
        rows.append(",".join(format_float(v) for v in (t, *p)))
    return "\n".join(rows) + "\n"
