"""Write ``reference.json``: each shipped scene's outcome, to check against.

    PYTHONPATH=src python perfbench/pin.py

Run it only at a commit whose outcomes are to become the reference; the
checked-in file was written at the commit that added the benchmark.
For every scene it records the exit status with alpha and beta (or the
root carried by the ``OrientationFailure``), the original-frame control
points of the solution (or of that root), the residual and Jacobian evaluations of one solve,
and for 2D scenes the plan and 101 samples of each curve.
"""

import json

import gapspline as gs

import tracing
from inputs import BASE_SCENES, REFERENCE_PATH, load_base, make_item
from workloads import curves_once, solve_once


def stated_topology(plan) -> dict:
    ties = {gs.case1_tie(): "case1", gs.case2_tie(): "case2"}
    tie = ties[plan.constraints[0]] if plan.constraints else None
    return {"degree": plan.degree, "pieces": plan.pieces, "tie": tie}


def pin_scene(base: str) -> dict:
    pin = {"stated_topology": None}
    if load_base(base)["dim"] == 2:
        tp, left, right, _ = curves_once(make_item(base, None))
        pin["plan"] = {
            "realization": tp.realization,
            "case": tp.case,
            "left_inflections": tp.left_inflections,
            "right_inflections": tp.right_inflections,
            "degree": tp.degree,
            "pieces": tp.pieces,
        }
        pin["samples"] = {"left": left.tolist(), "right": right.tolist()}
        if "solution" not in load_base(base):
            pin["stated_topology"] = stated_topology(tp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = solve_once(make_item(base, None, pin["stated_topology"]))
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    pin["counts"] = {
        "residual": names.count("system.residual"),
        "jacobian": names.count("system.jacobian"),
    }
    pin.update(exit=outcome.exit, alpha=outcome.alpha, beta=outcome.beta,
               original_points=outcome.points().tolist())
    return pin


def main():
    ref = {"tolerance": 1e-6, "scenes": {base: pin_scene(base) for base in BASE_SCENES}}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
