from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from gapspline.bspline import BSplineCurve, KnotVector, make_knot_vector
from gapspline.formats import SCENE_VERSION, SceneDocument, curve_payload, emit_json, read_scene
from gapspline.planner import plan
from gapspline.rigid import RigidTransform
from gapspline.system import Scene, build_layout, normalize_scene

SCENES_DIR = Path(__file__).resolve().parent.parent / "scenes"

CUBIC = make_knot_vector(3, 1)

LEFT_2D = [(0.0, 0.0), (1.0, 4.0), (2.0, 1.0), (4.0, 3.0)]
RIGHT_2D = [(7.0, 2.0), (8.0, 3.0), (9.0, 1.0), (10.0, 2.0)]

LEFT_3D = [(0.0, 0.0, -2.0), (1.0, 4.0, -1.5), (2.0, 1.0, -1.0), (4.0, 3.0, -0.5)]
RIGHT_3D = [(7.0, 2.0, 0.0), (8.0, 3.0, 0.5), (9.0, 1.0, 1.0), (10.0, 2.0, 1.5)]

# wiggly left + arch right: the same-slope-signs planner scene
WIGGLE_LEFT = [(-6.0, 0.0), (-5.0, -1.0), (-4.0, 0.0), (-3.0, 1.0),
               (-2.0, 0.0), (-1.0, -1.0), (0.0, 0.0)]
WIGGLE_RIGHT = [(3.0, 0.0), (4.0, 2.0), (5.0, 2.0), (6.0, 0.0)]

# opposite-slope-signs planner scene
MIXED_LEFT = [(-2.0, 6.0), (-1.0, 3.0), (0.0, 6.0), (1.0, 4.0), (2.0, 3.0), (4.0, 3.0)]
MIXED_RIGHT = [(7.0, 2.0), (8.0, 1.0), (9.0, 3.0), (10.0, 2.0)]

L_EX1 = "dot(D2(1),D2(2))"
L_EX2 = "dot(D1(1),D1(3))"
L_EX3 = "trip(D2(1),D2(2),D2(3)) + dot(D3(1),D3(2))"
L_PLANNER = "dot(D2(1),D2(2))*dot(D2(2),D2(3))"


@pytest.fixture
def scene_2d() -> Scene:
    left = BSplineCurve(CUBIC, LEFT_2D)
    right = BSplineCurve(CUBIC, RIGHT_2D)
    return Scene(left, right, 3, 1)


@pytest.fixture
def scene_3d() -> Scene:
    left = BSplineCurve(CUBIC, LEFT_3D)
    right = BSplineCurve(CUBIC, RIGHT_3D)
    return Scene(left, right, 3, 2)


@pytest.fixture
def wiggle_scene() -> Scene:
    left = BSplineCurve(KnotVector((0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1), 3), WIGGLE_LEFT)
    right = BSplineCurve(CUBIC, WIGGLE_RIGHT)
    return Scene(left, right, 3, 2)


@pytest.fixture
def mixed_scene() -> Scene:
    left = BSplineCurve(KnotVector((0, 0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1, 1), 3), MIXED_LEFT)
    right = BSplineCurve(CUBIC, MIXED_RIGHT)
    return Scene(left, right, 3, 2)


@pytest.fixture
def straight_scene() -> Scene:
    """Both tangents along the chord: the obvious-straight-line scene."""
    left = BSplineCurve(CUBIC, [(-3.0, 0.0), (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0)])
    right = BSplineCurve(CUBIC, [(4.0, 0.0), (5.0, 0.0), (6.0, 0.0), (7.0, 0.0)])
    return Scene(left, right, 3, 1)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random proper rotation via QR."""
    m = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def moved_scene(scene: Scene, g: RigidTransform) -> Scene:
    """The scene with both data curves moved by g, topology unchanged."""
    return Scene(
        scene.left.transformed(g.apply(scene.left.points)),
        scene.right.transformed(g.apply(scene.right.points)),
        scene.solution_degree,
        scene.solution_pieces,
    )


def insert_knot(curve, u):
    """Boehm's insertion of the knot u; the curve itself is unchanged."""
    kn, k, p = curve.knots.knots, curve.degree, curve.points
    s = bisect_right(kn, u) - 1
    q = []
    for i in range(len(p) + 1):
        if i <= s - k:
            q.append(p[i])
        elif i > s:
            q.append(p[i - 1])
        else:
            a = (u - kn[i]) / (kn[i + k] - kn[i])
            q.append(a * p[i] + (1.0 - a) * p[i - 1])
    return BSplineCurve(KnotVector(kn[: s + 1] + (u,) + kn[s + 1 :], k), np.array(q))


def random_knot_curves(rng: np.random.Generator):
    """Planar curves of degrees 1-5 and 1-6 pieces with random interior
    knots, each followed by itself refined by one knot."""
    for degree in range(1, 6):
        for pieces in range(1, 7):
            interior = tuple(np.sort(rng.uniform(0.02, 0.98, pieces - 1)))
            kv = KnotVector((0.0,) * (degree + 1) + interior + (1.0,) * (degree + 1), degree)
            curve = BSplineCurve(kv, rng.normal(scale=3.0, size=(kv.point_count, 2)))
            yield curve
            yield insert_knot(curve, float(rng.uniform(0.01, 0.99)))


def shipped_layout(name: str):
    """The layout `gapspline solve` builds for a shipped scene, and the
    scene's Lagrangian text."""
    doc = read_scene((SCENES_DIR / f"{name}.json").read_text())
    scene, ties = doc.scene, ()
    if not doc.has_topology:
        tp = plan(normalize_scene(scene))
        scene, ties = scene.with_topology(tp.degree, tp.pieces), tp.constraints
    return build_layout(normalize_scene(scene), ties), doc.lagrangian_text


def write_scene(doc: SceneDocument) -> str:
    """Scene-file text that ``read_scene`` parses back to ``doc``."""
    scene = doc.scene
    payload = {
        "version": SCENE_VERSION,
        "dim": scene.dim,
        "left": curve_payload(scene.left),
        "right": curve_payload(scene.right),
    }
    if doc.has_topology:
        payload["solution"] = {"degree": scene.solution_degree, "pieces": scene.solution_pieces}
    if doc.lagrangian_text is not None:
        payload["lagrangian"] = doc.lagrangian_text
    return emit_json(payload) + "\n"
