"""Command-line interface: solve, eval, render, normalize, plan."""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError, GapsplineError, InvalidArgument
from .formats import (
    curve_payload,
    emit_json,
    read_scene,
    read_solution,
    solution_curve_from_document,
    transform_payload,
    write_csv,
    write_solution,
)
from .lagrangian import parse_lagrangian
from .planner import TopologyPlan, plan
from .solver import SolverConfig, solve
from .svg import render_svg
from .system import ResidualSystem, build_layout, normalize_scene


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as InvalidArgument: one stderr line, exit 2.
    The subcommands' parsers are of this class too."""

    def error(self, message):
        raise InvalidArgument(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gapspline",
        description="Reconstruct the hidden piece of an occluded B-spline curve "
        "by extremizing a Lagrangian in difference invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scene and emit a solution file")
    p.add_argument("scene", help="scene file (JSON)")
    p.add_argument("-o", "--output", help="solution file path (default: stdout)")
    p.add_argument("--lagrangian", help="Lagrangian DSL text (overrides the scene file)")
    p.add_argument("--degree", type=int, help="solution curve degree")
    p.add_argument("--pieces", type=int, help="solution curve piece count")
    p.add_argument("--tol", type=float, default=1e-10, help="residual max-norm tolerance")
    p.add_argument("--max-iters", type=int, default=100, help="Newton iteration cap")
    p.add_argument(
        "--compat-eq7-literal",
        action="store_true",
        help="anchor the right tangency tie at the origin instead of the right "
        "boundary point (the literal published form)",
    )
    p.add_argument("--svg", help="also render the solved scene to this SVG path")
    p.add_argument("--seed", type=int, help="jitter the multistart grid (default: off)")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("eval", help="sample a curve to CSV (t,x,y[,z])")
    p.add_argument("file", help="scene or solution file")
    p.add_argument(
        "--curve",
        choices=["left", "right", "solution"],
        default="solution",
        help="which curve to sample (left/right need a scene file)",
    )
    p.add_argument("--count", type=int, default=101, help="number of samples")
    p.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("render", help="render a scene (and optional solution) to SVG")
    p.add_argument("scene", help="scene file (JSON)")
    p.add_argument("--solution", help="solution file to overlay")
    p.add_argument("-o", "--output", help="SVG path (default: stdout)")
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser("normalize", help="report the normalized scene and transform")
    p.add_argument("scene", help="scene file (JSON)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("plan", help="report the planned solution topology")
    p.add_argument("scene", help="scene file (JSON)")
    p.add_argument("--degree", type=int, default=3, help="requested degree (3 or 4)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_plan)
    return parser


def _emit(text: str, output: "str | None"):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _plan_payload(tp: TopologyPlan) -> dict:
    # every field in declared order but the ties, which are not JSON values
    return {f.name: getattr(tp, f.name) for f in dataclasses.fields(tp) if f.name != "constraints"}


def cmd_solve(args) -> int:
    doc = read_scene(Path(args.scene).read_text())
    scene = doc.scene
    text = args.lagrangian if args.lagrangian is not None else doc.lagrangian_text
    if text is None:
        raise InvalidArgument(
            "no Lagrangian: pass --lagrangian or set the scene file's lagrangian field"
        )
    expr = parse_lagrangian(text)

    topology_given = doc.has_topology or args.degree is not None or args.pieces is not None
    if args.degree is not None or args.pieces is not None:
        degree = args.degree if args.degree is not None else scene.solution_degree
        pieces = args.pieces if args.pieces is not None else scene.solution_pieces
        scene = scene.with_topology(degree, pieces)

    normalized = normalize_scene(scene)
    constraints = ()
    plan_echo = None
    if not topology_given:
        if scene.dim != 2:
            raise InvalidArgument(
                "3D scenes need an explicit solution topology "
                "(--degree/--pieces or the scene file's solution field)"
            )
        tp = plan(normalized)
        scene = scene.with_topology(tp.degree, tp.pieces)
        # the curves and the transform do not depend on the topology
        normalized = dataclasses.replace(normalized, original=scene)
        constraints = tp.constraints
        plan_echo = _plan_payload(tp)

    layout = build_layout(normalized, constraints, literal_beta_tie=args.compat_eq7_literal)
    system = ResidualSystem(layout, expr)
    config = SolverConfig(tol=args.tol, max_iters=args.max_iters, seed=args.seed)
    solution = solve(system, config)
    written = write_solution(scene, solution, normalized.transform, text, plan_echo)
    _emit(written, args.output)

    if args.svg:
        # the curve of the solution just written, as render --solution reads it
        curve = solution_curve_from_document(read_solution(written))
        Path(args.svg).write_text(render_svg(scene.left, scene.right, curve))
    return 0


def _load_any(path: str):
    text = Path(path).read_text()
    try:
        return "solution", read_solution(text)
    except FormatError:
        return "scene", read_scene(text)


def cmd_eval(args) -> int:
    kind, doc = _load_any(args.file)
    if args.curve == "solution":
        if kind != "solution":
            raise InvalidArgument("--curve solution needs a solution file")
        curve = solution_curve_from_document(doc)
    else:
        if kind != "scene":
            raise InvalidArgument(f"--curve {args.curve} needs a scene file")
        curve = doc.scene.left if args.curve == "left" else doc.scene.right
    if args.count < 2:
        raise InvalidArgument(f"--count must be >= 2, got {args.count}")
    ts = np.linspace(0.0, 1.0, args.count)
    _emit(write_csv(curve.sample(args.count), ts), args.output)
    return 0


def cmd_render(args) -> int:
    doc = read_scene(Path(args.scene).read_text())
    solution = None
    if args.solution:
        solution = solution_curve_from_document(read_solution(Path(args.solution).read_text()))
    _emit(render_svg(doc.scene.left, doc.scene.right, solution), args.output)
    return 0


def cmd_normalize(args) -> int:
    doc = read_scene(Path(args.scene).read_text())
    normalized = normalize_scene(doc.scene)
    payload = {
        "dim": normalized.dim,
        "gap": normalized.gap,
        "transform": transform_payload(normalized.transform),
        "left": curve_payload(normalized.left),
        "right": curve_payload(normalized.right),
    }
    _emit(emit_json(payload) + "\n", args.output)
    return 0


def cmd_plan(args) -> int:
    doc = read_scene(Path(args.scene).read_text())
    tp = plan(normalize_scene(doc.scene), degree_request=args.degree)
    _emit(emit_json(_plan_payload(tp)) + "\n", args.output)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except GapsplineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:  # unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return InvalidArgument.exit_code


if __name__ == "__main__":
    sys.exit(main())
