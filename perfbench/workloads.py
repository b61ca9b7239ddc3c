"""The two workloads: their mixes, one operation each, and the checks.

Each workload is driven by one closed-loop client: one operation at a
time, the next sent only when the previous has returned, because callers of
gapspline wait for each result.  ``CliProbes`` runs the same check on one
``gapspline solve`` process per shipped scene, for the cli layer metrics.

Mix weights are whole counts per round (see ``inputs.mix_entry``).  They
are set so that, at the commit that added them, latency p50 and p90 each
sit in the middle of one base scene's latency band rather than on the edge
between two bands; the per-operation latencies are strongly multi-modal,
and a percentile on an edge flips between modes from run to run.
"""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gapspline as gs

from inputs import BASE_SCENES, ROOT, Item, make_item, mix_entry, op_rng

TIES = {"case1": gs.case1_tie, "case2": gs.case2_tie}
CHILD = Path(__file__).resolve().parent / "cli_child.py"
ORIENTATION = re.compile(r"alpha=(\S+), beta=(\S+)\)")
PROBE_STREAM = 99  # input stream of the cli probes, apart from the measured ones


def _original_frame(item: Item, points) -> np.ndarray:
    """Undo the item's rigid motion: x = R^T (y - t)."""
    return (np.asarray(points, dtype=float) - item.translation) @ item.rotation


@dataclass
class Outcome:
    """What one solve returned: exit code, alpha and beta, and the control
    points in the input's frame (the written solution's, or on exit 5 the
    rejected root's); ``text`` is the written solution file."""

    exit: int
    alpha: "float | None"
    beta: "float | None"
    text: "str | None" = None
    root_points: "np.ndarray | None" = None

    def points(self) -> "np.ndarray | None":
        if self.text is not None:
            return np.asarray(json.loads(self.text)["original_points"], dtype=float)
        return self.root_points


@dataclass
class Check:
    ok: bool
    flip: bool = False  # exit differs from the pin on a root at the orientation boundary


def check_outcome(ref: dict, item: Item, outcome: Outcome, tol: float) -> Check:
    """Compare one solve outcome with the scene's pinned outcome.

    A pinned root that lies within ``tol`` of the orientation boundary
    alpha = 0 or beta = 0 cannot have its verdict decided at that
    tolerance; rounding under a rigid motion moves it to either side.  For
    such a root both exit 0 and 5 match the pin, and the change of verdict
    is reported as a flip.  Every exit-0 outcome has its written control
    points compared with the pinned ones, flipped ones included.
    """
    pin = ref["scenes"][item.base]
    if outcome.alpha is None or outcome.beta is None:
        return Check(False)
    if abs(outcome.alpha - pin["alpha"]) > tol or abs(outcome.beta - pin["beta"]) > tol:
        return Check(False)
    flip = False
    if outcome.exit != pin["exit"]:
        on_boundary = min(abs(pin["alpha"]), abs(pin["beta"])) <= tol
        flip = on_boundary and outcome.exit in (0, 5)
        if not flip:
            return Check(False)
    if outcome.exit == 0:
        points = outcome.points()
        if points is None:
            return Check(False)
        points = _original_frame(item, points)
        if points.shape != np.shape(pin["original_points"]):
            return Check(False)
        if np.max(np.abs(points - pin["original_points"])) > tol:
            return Check(False)
    return Check(True, flip)


def solve_once(item: Item) -> Outcome:
    """One in-process solve of a scene whose topology is stated."""
    doc = gs.read_scene(item.text)
    expr = gs.parse_lagrangian(doc.lagrangian_text)
    normalized = gs.normalize_scene(doc.scene)
    ties = (TIES[item.tie](),) if item.tie else ()
    system = gs.ResidualSystem(gs.build_layout(normalized, ties), expr)
    try:
        solution = gs.solve(system)
    except gs.OrientationFailure as exc:
        root = normalized.transform.inverse().apply(system.layout.solution_points(exc.root))
        return Outcome(exc.exit_code, exc.alpha, exc.beta, root_points=root)
    except gs.GapsplineError as exc:
        return Outcome(exc.exit_code, None, None)
    text = gs.write_solution(doc.scene, solution, normalized.transform, doc.lagrangian_text, None)
    return Outcome(0, solution.alpha, solution.beta, text)


def curves_once(item: Item, samples: int = 101):
    """(plan, left samples, right samples, SVG text) of one moved 2D scene."""
    doc = gs.read_scene(item.text)
    tp = gs.plan(gs.normalize_scene(doc.scene))
    left = doc.scene.left.sample(samples)
    right = doc.scene.right.sample(samples)
    return tp, left, right, gs.render_svg(doc.scene.left, doc.scene.right)


class SolveWorkload:
    """In-process library calls, topology stated in the input.

    One operation: read_scene -> parse_lagrangian -> normalize_scene ->
    build_layout -> ResidualSystem -> solve -> write_solution.  With the
    topology given, plan and the B-spline evaluator do almost no work; the
    solver, system and lagrangian modules do nearly all of it.
    """

    name = "solve"
    # latency bands when the mix was set: example1/2 ~5 ms, mul_0_1 ~24 ms,
    # example3 ~57 ms, example4 ~72 ms, mul_1_1 ~650 ms.  p50 falls in
    # mul_0_1's band (cumulative 0.35-0.65), p90 in example4's (0.80-0.95).
    cycle = [("example1", 7), ("example2", 7), ("mul_0_1", 12), ("example3", 6),
             ("example4", 6), ("mul_1_1", 2)]

    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref

    def item(self, op: int, stream: int = 0) -> Item:
        """Input of operation ``op``; scenes without a solution block get the
        degree, pieces and tie that plan picked when the references were
        pinned."""
        base = mix_entry(self.cycle, self.seed, op)
        return make_item(base, op_rng(self.seed, stream, op),
                         self.ref["scenes"][base]["stated_topology"])

    def run(self, item: Item) -> Outcome:
        return solve_once(item)

    def check(self, item: Item, outcome: Outcome) -> Check:
        return check_outcome(self.ref, item, outcome, tol=self.ref["tolerance"])


class CurvesWorkload:
    """In-process library calls with no Newton at all.

    One operation: read_scene -> normalize_scene -> plan -> sample(101) of
    both curves -> render_svg.  Both curves are first refined by seeded
    knot insertion to 1x-4x their control points; that leaves the curves,
    and therefore the plan, unchanged, while the cost of evaluating them
    grows with the number of control points.  example2 is not listed: its
    curves are example1's.
    """

    name = "curves"
    # latency bands when the mix was set (ms): example1 x1 ~100, mul_0_1 x1
    # ~170, mul_1_1 x2 ~380, example1 x4 ~620; on a shared 2-core VM each
    # widened by up to 1.6x while other tenants were busy.  p50 is the middle
    # of mul_0_1 x1 (cumulative 0.25-0.75) and p90 the middle of example1 x4
    # (0.80-1.00): wide bands, so that each percentile is the median of many
    # operations.
    cycle = [(("example1", 1), 5), (("mul_0_1", 1), 10), (("mul_1_1", 2), 1),
             (("example1", 4), 4)]

    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref

    def item(self, op: int, stream: int = 0) -> Item:
        base, factor = mix_entry(self.cycle, self.seed, op)
        return make_item(base, op_rng(self.seed, stream, op), refine=factor)

    def run(self, item: Item):
        return curves_once(item)

    def check(self, item: Item, outcome) -> Check:
        tp, left, right, svg = outcome
        pin = self.ref["scenes"][item.base]
        plan = pin["plan"]
        if (tp.realization, tp.case, tp.left_inflections, tp.right_inflections,
                tp.degree, tp.pieces) != (plan["realization"], plan["case"],
                                          plan["left_inflections"], plan["right_inflections"],
                                          plan["degree"], plan["pieces"]):
            return Check(False)
        tol = self.ref["tolerance"]
        for samples, side in ((left, "left"), (right, "right")):
            back = _original_frame(item, samples)
            if np.max(np.abs(back - pin["samples"][side])) > tol:
                return Check(False)
        return Check(svg.count("<path ") == 2 and svg.endswith("</svg>\n"))


class CliProbes:
    """One fresh interpreter per shipped scene: a traced ``gapspline solve``.

    Each process runs ``cli_child.py`` on a moved copy of the scene, written
    during set-up; the mul_* scenes carry no topology, so the planner runs
    inside the process.  It pays interpreter start, ``import gapspline`` and
    a file write, so the cli layer metrics show work moved into import time.
    """

    def __init__(self, seed: int, ref: dict, workdir: Path):
        self.ref = ref
        self.workdir = workdir
        self.items = [make_item(base, op_rng(seed, PROBE_STREAM, i))
                      for i, base in enumerate(BASE_SCENES)]
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for i, item in enumerate(self.items):
            self._scene(i).write_text(item.text)

    def _scene(self, i: int) -> Path:
        return self.workdir / f"scene{i}.json"

    def run(self, i: int, tracer):
        """(exit code, stderr, solution text or None); the child's spans go
        under a ``cli.process`` span of ``tracer``."""
        out = self.workdir / f"solution{i}.json"
        spans = self.workdir / f"spans{i}.json"
        start = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spans), "solve", str(self._scene(i)), "-o", str(out)],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        end = time.perf_counter_ns()
        child = json.loads(spans.read_text())
        tracer.adopt(child["spans"], child["counts"], tracer.record("cli.process", start, end))
        text = out.read_text() if proc.returncode == 0 and out.exists() else None
        return proc.returncode, proc.stderr, text

    def check(self, i: int, outcome) -> Check:
        """The solution file on exit 0; otherwise exactly one ``error:``
        line on stderr whose root matches the pin."""
        item = self.items[i]
        code, stderr, text = outcome
        tol = self.ref["tolerance"]
        if code == 0:
            if stderr or text is None:
                return Check(False)
            doc = json.loads(text)
            return check_outcome(self.ref, item, Outcome(0, doc["alpha"], doc["beta"], text), tol)
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return Check(False)
        match = ORIENTATION.search(lines[0])
        if match is None:
            return Check(False)
        alpha, beta = float(match[1]), float(match[2])
        pin = self.ref["scenes"][item.base]
        # the message prints 6 significant digits, so allow for that rounding
        digits = 1e-5 * max(abs(pin["alpha"]), abs(pin["beta"]))
        return check_outcome(self.ref, item, Outcome(code, alpha, beta), max(tol, digits))


WORKLOADS = {w.name: w for w in (SolveWorkload, CurvesWorkload)}
