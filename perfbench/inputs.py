"""Seeded generation of benchmark inputs from the shipped scenes.

Every input is a shipped scene under a random proper rigid motion (a
rotation plus a translation), because rigid motion is the invariance the
library guarantees: each input then has a known reference outcome, pinned
in ``reference.json``.  Uniform scale is not varied, since Lagrangians that
are not homogeneous (example3's) move their root when the scene is scaled.

Inputs are made one operation at a time: the input of operation ``op`` is
drawn from a generator keyed on (seed, stream, op), so no input repeats
within a run however many operations it makes, and the same seed gives
byte-identical inputs.  Scene text is built with numpy and the standard
library only, whatever the library under test does.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENES_DIR = ROOT / "scenes"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
BASE_SCENES = ("example1", "example2", "example3", "example4", "mul_0_1", "mul_1_1")


@dataclass(frozen=True)
class Item:
    """One generated input: scene text for the program, motion for the check."""

    base: str
    text: str
    rotation: np.ndarray
    translation: np.ndarray
    tie: "str | None" = None  # "case1" / "case2" coordinate tie for a stated topology
    refine: int = 1  # control-point multiple reached by knot insertion


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@lru_cache(maxsize=None)
def _base_text(name: str) -> str:
    return (SCENES_DIR / f"{name}.json").read_text()


def load_base(name: str) -> dict:
    return json.loads(_base_text(name))


def random_motion(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform proper rotation (QR of a Gaussian matrix) and a Gaussian shift."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(scale=5.0, size=dim)


def insert_knot(degree: int, knots: list, points: np.ndarray, t: float):
    """Boehm's insertion of one knot t; the curve itself is unchanged."""
    k = next(i for i in range(len(knots) - 1) if knots[i] <= t < knots[i + 1])
    new = [points[i] for i in range(k - degree + 1)]
    for i in range(k - degree + 1, k + 1):
        a = (t - knots[i]) / (knots[i + degree] - knots[i])
        new.append((1.0 - a) * points[i - 1] + a * points[i])
    new.extend(points[k:])
    return knots[: k + 1] + [t] + knots[k + 1 :], np.array(new)


def refine_curve(curve: dict, rng: np.random.Generator, factor: int) -> dict:
    """Insert seeded interior knots until the curve has ``factor`` times its
    control points.  New knots keep a 1e-3 clearance from existing ones, so
    the interior knots stay simple as the scene format requires."""
    degree = curve["degree"]
    knots = [float(t) for t in curve["knots"]]
    points = np.asarray(curve["points"], dtype=float)
    target = factor * len(points)
    while len(points) < target:
        t = float(rng.uniform(0.01, 0.99))
        if min(abs(t - u) for u in knots) < 1e-3:
            continue
        knots, points = insert_knot(degree, knots, points, t)
    return {"degree": degree, "knots": knots, "points": points.tolist()}


def moved_scene(doc: dict, rotation: np.ndarray, translation: np.ndarray) -> dict:
    out = dict(doc)
    for side in ("left", "right"):
        curve = dict(doc[side])
        points = np.asarray(curve["points"], dtype=float)
        curve["points"] = (points @ rotation.T + translation).tolist()
        out[side] = curve
    return out


def scene_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def make_item(
    base: str,
    rng: "np.random.Generator | None",
    topology: "dict | None" = None,
    refine: int = 1,
) -> Item:
    """Move one shipped scene; optionally state a topology or refine its curves.

    ``topology`` is ``{"degree", "pieces", "tie"}``: the degree and pieces
    go into the scene's ``solution`` block, the tie rides beside the text.
    Without ``rng`` the scene keeps its shipped position.
    """
    doc = load_base(base)
    if topology is not None:
        doc["solution"] = {"degree": topology["degree"], "pieces": topology["pieces"]}
    for side in ("left", "right"):
        if refine > 1:
            doc[side] = refine_curve(doc[side], rng, refine)
    if rng is None:
        rotation, translation = np.eye(doc["dim"]), np.zeros(doc["dim"])
    else:
        rotation, translation = random_motion(rng, doc["dim"])
    text = scene_text(moved_scene(doc, rotation, translation))
    tie = topology["tie"] if topology is not None else None
    return Item(base, text, rotation, translation, tie, refine)


def mix_entry(cycle: "list[tuple[object, int]]", seed: int, op: int):
    """The entry of operation ``op`` in the seeded weighted mix.

    ``cycle`` lists (entry, weight).  Operations come in rounds that hold
    each entry exactly ``weight`` times, each round in its own seeded order,
    so the mix is exact over whole rounds.
    """
    entries = [entry for entry, weight in cycle for _ in range(weight)]
    round_, k = divmod(op, len(entries))
    order = np.random.default_rng([seed, 0, round_]).permutation(len(entries))
    return entries[order[k]]


def op_rng(seed: int, stream: int, op: int) -> np.random.Generator:
    """Generator of the input of operation ``op`` in ``stream``.  Its keys
    never equal those of the mix order, so the two draws stay apart."""
    return np.random.default_rng([seed, 1 + stream, op])
