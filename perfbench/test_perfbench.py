"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gapspline as gs  # noqa: E402

import tracing  # noqa: E402
from inputs import BASE_SCENES, load_base, load_reference, make_item, refine_curve  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CliProbes,
    CurvesWorkload,
    Outcome,
    SolveWorkload,
    check_outcome,
    solve_once,
)

REF = load_reference()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    ops = range(2 * sum(weight for _, weight in WORKLOADS[name].cycle))
    first = WORKLOADS[name](7, REF)
    again = WORKLOADS[name](7, REF)
    other = WORKLOADS[name](8, REF)
    texts = [first.item(op).text for op in ops]
    assert texts == [again.item(op).text for op in ops]
    assert texts != [other.item(op).text for op in ops]
    # no input repeats within a run, and the traced half draws its own
    # inputs for the same sequence of mix entries
    traced = [first.item(op, stream=1) for op in ops]
    assert len(set(texts + [item.text for item in traced])) == 2 * len(ops)
    assert [(item.base, item.refine) for item in traced] == [
        (first.item(op).base, first.item(op).refine) for op in ops
    ]


def test_probe_scene_files_are_byte_identical_per_seed(tmp_path):
    CliProbes(7, REF, tmp_path / "a")
    CliProbes(7, REF, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 6 and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )


def test_knot_insertion_keeps_the_curve():
    curve = load_base("mul_0_1")["left"]
    refined = refine_curve(curve, np.random.default_rng(3), 4)
    assert len(refined["points"]) == 4 * len(curve["points"])

    def sampled(c):
        kv = gs.KnotVector(tuple(float(t) for t in c["knots"]), c["degree"])
        return gs.BSplineCurve(kv, np.asarray(c["points"], dtype=float)).sample(33)

    assert np.max(np.abs(sampled(refined) - sampled(curve))) < 1e-12


def test_round_latency_averages_each_rounds_percentile():
    import run

    fast = [0.001 * i for i in range(1, 21)]  # median 10.5 ms
    slow = [2 * t for t in fast]  # median 21 ms
    measured = {"latencies": fast + slow, "round_len": 20}
    assert run.round_latency_ms(measured, 5) == pytest.approx((10.5 + 21.0) / 2)


def _solved(base: str, seed: int = 5):
    item = make_item(base, np.random.default_rng(seed), REF["scenes"][base]["stated_topology"])
    return item, solve_once(item)


def test_reference_check_accepts_a_moved_solution():
    item, outcome = _solved("example1")
    assert check_outcome(REF, item, outcome, tol=1e-6).ok


def test_reference_check_flags_a_perturbed_alpha():
    item, outcome = _solved("example1")
    assert not check_outcome(REF, item, replace(outcome, alpha=outcome.alpha + 1e-5), 1e-6).ok
    item, outcome = _solved("mul_0_1")
    assert outcome.exit == 5
    assert not check_outcome(REF, item, replace(outcome, alpha=outcome.alpha * (1 + 1e-5)), 1e-6).ok


def test_reference_check_flags_moved_control_points():
    item, outcome = _solved("example1")
    doc = json.loads(outcome.text)
    doc["original_points"][1][0] += 1e-5
    assert not check_outcome(REF, item, replace(outcome, text=json.dumps(doc)), tol=1e-6).ok


def test_reference_check_flags_a_wrong_exit_code():
    item, outcome = _solved("mul_0_1")
    assert check_outcome(REF, item, outcome, tol=1e-6).ok
    for wrong in (0, 4):
        assert not check_outcome(REF, item, replace(outcome, exit=wrong), tol=1e-6).ok


def test_boundary_root_accepts_either_verdict_and_reports_the_flip():
    # example2's pinned root has alpha, beta ~ 1e-11: on the orientation boundary
    item, outcome = _solved("example2")
    pin = REF["scenes"]["example2"]
    assert pin["exit"] == 5
    same = check_outcome(REF, item, replace(outcome, exit=5), tol=1e-6)
    assert same.ok and not same.flip
    # a flipped verdict passes only with the pinned root's control points
    moved = item.translation + np.asarray(pin["original_points"]) @ item.rotation.T
    flipped = Outcome(0, 1e-12, 1e-12, root_points=moved)
    check = check_outcome(REF, item, flipped, tol=1e-6)
    assert check.ok and check.flip
    off = Outcome(0, 1e-12, 1e-12, root_points=moved + 1e-5)
    assert not check_outcome(REF, item, off, tol=1e-6).ok
    assert not check_outcome(REF, item, replace(outcome, exit=4), tol=1e-6).ok


def test_cli_check_wants_one_error_line(tmp_path):
    probes = CliProbes(3, REF, tmp_path)
    i = BASE_SCENES.index("mul_0_1")
    code, stderr, text = probes.run(i, tracing.Tracer())
    assert code == 5 and probes.check(i, (code, stderr, text)).ok
    assert not probes.check(i, (code, stderr + "Traceback\n", text)).ok
    assert not probes.check(i, (2, stderr, text)).ok


def test_curves_check_flags_a_moved_sample():
    workload = CurvesWorkload(3, REF)
    item = workload.item(0)
    tp, left, right, svg = workload.run(item)
    assert workload.check(item, (tp, left, right, svg)).ok
    left = left.copy()
    left[10, 0] += 1e-5
    assert not workload.check(item, (tp, left, right, svg)).ok


def _traced(run, inputs) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, x in enumerate(inputs):
            tracer.op = op
            tracer.begin("op")
            run(x)
            tracer.end()
    finally:
        tracer.uninstall()
    return tracer


def _span_tree_checks(tracer: tracing.Tracer, ops: int):
    assert tracing.check_tree(tracer.spans) == []
    own = tracing.self_times(tracer.spans)
    assert all(ns >= 0 for ns in own.values())
    for op in range(ops):
        root = next(s for s in tracer.spans if s[2] == op and s[3] is None)
        assert sum(own[s[0]] for s in tracer.spans if s[2] == op) <= root[5] - root[4]
    assert {s[1] for s in tracer.spans} > {"op", "formats.read_scene"}
    # uninstall puts the library back
    assert not hasattr(gs.solve, "__wrapped__")
    assert not hasattr(gs.ResidualSystem.residual, "__wrapped__")


@pytest.mark.parametrize("kind", [SolveWorkload, CurvesWorkload])
def test_span_tree_is_well_formed(kind):
    workload = kind(11, REF)
    # skip mul_1_1, the slowest scene, to keep the test short
    items = [item for item in map(workload.item, range(20)) if item.base != "mul_1_1"][:3]
    _span_tree_checks(_traced(workload.run, items), 3)


def test_probe_span_tree_is_well_formed(tmp_path):
    probes = CliProbes(11, REF, tmp_path)
    tracer = tracing.Tracer()
    for op, base in enumerate(("example1", "mul_0_1")):
        tracer.op = op
        tracer.begin("op")
        probes.run(BASE_SCENES.index(base), tracer)
        tracer.end()
    _span_tree_checks(tracer, 2)
    assert {"cli.process", "cli.import", "solver.solve"} < {s[1] for s in tracer.spans}


def test_check_tree_flags_malformed_trees():
    assert tracing.check_tree([(0, "op", 0, None, 0, 10), (1, "a", 0, 0, 2, 8)]) == []
    # child outside its parent
    assert tracing.check_tree([(0, "op", 0, None, 0, 10), (1, "a", 0, 0, 5, 12)])
    # two roots in one operation
    assert tracing.check_tree([(0, "op", 0, None, 0, 10), (1, "a", 0, None, 2, 8)])
    # missing parent
    assert tracing.check_tree([(0, "op", 0, None, 0, 10), (1, "a", 0, 7, 2, 8)])


def test_backtracks_come_from_span_parentage():
    item = make_item("mul_0_1", None, REF["scenes"]["mul_0_1"]["stated_topology"])
    tracer = _traced(solve_once, [item])
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    starts = metrics["solver.newton.starts"][0]
    iterations = metrics["solver.newton.iterations"][0]
    backtracks = metrics["solver.newton.backtracks"][0]
    by_id = {s[0]: s for s in tracer.spans}
    from_newton = sum(
        1 for s in tracer.spans
        if s[1] == "system.residual" and by_id[s[3]][1] == "solver.newton"
    )
    # newton evaluates each start once, then once per accepted step and
    # once per rejected trial step
    assert starts > 0 and backtracks >= 0
    assert from_newton == starts + iterations + backtracks
