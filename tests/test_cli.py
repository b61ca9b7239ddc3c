"""End-to-end command-line checks, run in process via main(argv), and once as `python -m`."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gapspline
import gapspline.cli
from gapspline import OrientationFailure, SceneDocument, read_solution
from gapspline.cli import main
from gapspline.system import normalize_scene

from conftest import SCENES_DIR, L_EX1, write_scene

EX1 = str(SCENES_DIR / "example1.json")
EX3 = str(SCENES_DIR / "example3.json")
MUL01 = str(SCENES_DIR / "mul_0_1.json")
MUL11 = str(SCENES_DIR / "mul_1_1.json")


def _solve_to(tmp_path, scene=EX1, *extra):
    out = tmp_path / "solution.json"
    code = main(["solve", scene, "-o", str(out), *extra])
    return code, out


# ------------------------------------------------------------------ solve


def test_solve_writes_solution_file(tmp_path):
    code, out = _solve_to(tmp_path)
    assert code == 0
    doc = read_solution(out.read_text())
    assert doc["alpha"] == pytest.approx(1 / 6, abs=1e-12)
    assert doc["beta"] == pytest.approx(1 / 3, abs=1e-12)
    assert doc["residual_norm"] < 1e-10
    assert doc["plan"] is None  # topology came from the scene file
    np.testing.assert_allclose(
        doc["original_points"],
        [[4.0, 3.0], [13 / 3, 10 / 3], [20 / 3, 5 / 3], [7.0, 2.0]],
        atol=1e-9,
    )


def test_solve_stdout_default(capsys):
    assert main(["solve", EX1]) == 0
    doc = read_solution(capsys.readouterr().out)
    assert doc["dim"] == 2


def test_solve_seed_jitter_still_finds_the_root(tmp_path):
    code, out = _solve_to(tmp_path, EX1, "--seed", "3")
    assert code == 0
    doc = read_solution(out.read_text())
    assert doc["alpha"] == pytest.approx(1 / 6, abs=1e-9)


def test_solve_lagrangian_flag_overrides_file(tmp_path):
    code, out = _solve_to(tmp_path, EX1, "--lagrangian", L_EX1)
    assert code == 0
    assert read_solution(out.read_text())["lagrangian"] == L_EX1


def test_solve_autoplan_echoes_plan(tmp_path, straight_scene):
    scene = tmp_path / "straight.json"
    scene.write_text(write_scene(SceneDocument(straight_scene, False, L_EX1)))
    code, out = _solve_to(tmp_path, str(scene))
    assert code == 0
    doc = read_solution(out.read_text())
    assert doc["plan"]["realization"] == "OnePieceCubic"
    assert doc["plan"]["case"] == "Baseline"
    assert doc["plan"]["window_clamped"] is True  # gap is longer than the curves
    assert doc["solution"]["pieces"] == 1
    assert doc["alpha"] == pytest.approx(4 / 3, abs=1e-9)


def test_solve_autoplan_can_still_hit_the_orientation_filter(tmp_path, capsys):
    # the planner picks a plain cubic here, and the product Lagrangian's
    # only stationary point on that topology is misoriented
    code, _ = _solve_to(tmp_path, MUL01)
    assert code == 5


def test_solve_normalizes_a_planned_scene_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(scene):
        calls.append(scene)
        return normalize_scene(scene)

    monkeypatch.setattr(gapspline.cli, "normalize_scene", counted)
    code, _ = _solve_to(tmp_path, MUL01)
    assert code == 5
    assert len(calls) == 1


def test_solve_literal_compat_rejects_example_root(tmp_path, capsys):
    # The published right-tangency line passes through the origin, not the
    # boundary point; on this scene its stationary root has beta < 0, which
    # the orientation filter refuses.
    code, _ = _solve_to(tmp_path, EX1, "--compat-eq7-literal")
    assert code == 5
    assert "orientation" in capsys.readouterr().err


def test_solve_convergence_budget_exhausted(tmp_path, capsys):
    code, _ = _solve_to(tmp_path, MUL01, "--max-iters", "1")
    assert code == 4
    assert "no start converged" in capsys.readouterr().err


def test_solve_misoriented_scene_exit(tmp_path, capsys):
    code, _ = _solve_to(tmp_path, MUL11)
    assert code == 5
    assert "orientation" in capsys.readouterr().err


def test_solve_dsl_error_exit(tmp_path, capsys):
    code, _ = _solve_to(tmp_path, EX1, "--lagrangian", "dot(D2(1)")
    assert code == 2
    assert "byte offset" in capsys.readouterr().err


def test_solve_balance_error_exit(tmp_path, capsys):
    code, _ = _solve_to(tmp_path, EX1, "--lagrangian", "dot(D2(-2),D2(-1))")
    assert code == 3
    assert "under-determined" in capsys.readouterr().err


def test_solve_bad_topology_exit(tmp_path, capsys):
    code, _ = _solve_to(tmp_path, EX1, "--degree", "2", "--pieces", "1")
    assert code == 2


def test_solve_missing_lagrangian_exit(tmp_path, scene_2d, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(write_scene(SceneDocument(scene_2d, True, None)))
    code = main(["solve", str(scene)])
    assert code == 2
    assert "lagrangian" in capsys.readouterr().err.lower()


def test_solve_3d_requires_explicit_topology(tmp_path, scene_3d, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(write_scene(SceneDocument(scene_3d, False, "dot(D2(1),D2(2))")))
    code = main(["solve", str(scene)])
    assert code == 2
    assert "topology" in capsys.readouterr().err


def test_solve_degenerate_scene_exit(tmp_path, capsys):
    scene = {
        "version": 1,
        "dim": 2,
        "left": {"degree": 3, "knots": [0, 0, 0, 0, 1, 1, 1, 1],
                 "points": [[0, 0], [1, 1], [2, 0], [3, 1]]},
        "right": {"degree": 3, "knots": [0, 0, 0, 0, 1, 1, 1, 1],
                  "points": [[3, 1], [4, 2], [5, 1], [6, 2]]},
        "lagrangian": "dot(D2(1),D2(2))",
    }
    path = tmp_path / "touching.json"
    path.write_text(json.dumps(scene))
    assert main(["solve", str(path)]) == 6
    assert "no gap" in capsys.readouterr().err


def test_solve_reruns_are_byte_identical(tmp_path):
    _, a = _solve_to(tmp_path)
    b = tmp_path / "again.json"
    main(["solve", EX1, "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_writes_the_solution(tmp_path):
    out = tmp_path / "module.json"
    src = str(Path(gapspline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "gapspline.cli", "solve", EX1, "-o", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, expected = _solve_to(tmp_path)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{tmp}/missing.json"],
        ["solve", EX1, "-o", "{tmp}/no/such/dir/out.json"],
        ["render", EX1, "--solution", "{tmp}/missing.json"],
        ["solve", "{tmp}/binary.json"],
    ],
    ids=["missing-scene", "unwritable-output", "missing-solution", "non-utf8-scene"],
)
def test_file_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", EX1, "--max-iters", "abc"],
        ["solve", EX1, "--no-such-flag"],
        ["solve"],
        ["unsolve", EX1],
        ["eval", EX1, "--curve", "middle"],
    ],
    ids=["bad-int", "unknown-flag", "missing-scene", "unknown-subcommand", "bad-choice"],
)
def test_flag_errors_exit_2_with_one_line(capsys, argv):
    # one line: no usage block ahead of the error
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gapspline solve")


def _malformed_files(tmp_path):
    """A scene with a non-numeric point, a scene whose left curve is a number,
    a solution with a non-numeric knot, and a solution with a float dim."""
    scene = json.loads(Path(EX1).read_text())
    scene["left"]["points"][1] = [1.0, "a"]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    _, sol = _solve_to(tmp_path)
    solution = json.loads(sol.read_text())
    (tmp_path / "float-dim.json").write_text(json.dumps({**solution, "dim": 2.0}))
    (tmp_path / "curve-not-object.json").write_text(json.dumps({**scene, "left": 5}))
    solution["solution"]["knots"][2] = "b"
    (tmp_path / "solution.json").write_text(json.dumps(solution))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{tmp}/scene.json"], "left.points must be an n x 2 array of numbers"),
        (["eval", "{tmp}/solution.json"], "solution.knots invalid"),
        (["render", EX1, "--solution", "{tmp}/solution.json"], "solution.knots invalid"),
        (["eval", "{tmp}/float-dim.json"], "dim must be 2 or 3, got 2.0"),
        (["solve", "{tmp}/curve-not-object.json"], "left must be an object with degree/knots/points"),
    ],
    ids=["solve-scene", "eval-solution", "render-solution", "eval-float-dim", "solve-curve-not-object"],
)
def test_malformed_files_exit_2_with_one_line(tmp_path, capsys, argv, message):
    _malformed_files(tmp_path)
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""


def test_numeric_strings_and_a_float_dim_exit_2_with_one_line(tmp_path, capsys):
    # written this way, example1 would otherwise solve to example1's bytes
    scene = json.loads(Path(EX1).read_text())
    for side in ("left", "right"):
        curve = scene[side]
        curve["knots"] = [str(t) for t in curve["knots"]]
        curve["points"] = [[str(c) for c in p] for p in curve["points"]]
    for doc, message in [
        ({**scene, "dim": 2.0}, "dim must be 2 or 3, got 2.0"),
        (scene, "left.knots invalid: must be an array of numbers"),
    ]:
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        code, out = _solve_to(tmp_path, str(tmp_path / "scene.json"))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


_ORIENTATION = "boundary tangents would point away from the gap"


# What `gapspline solve` gives on each shipped scene: exit code, stderr, and
# alpha and beta of the solution, or for exit 5 of the carried root.  A change
# that moves any of these changes the program's behaviour and must say so.
@pytest.mark.parametrize(
    "name, code, err, alpha, beta",
    [
        ("example1", 0, "", 0.16666666666666682, 0.33333333333333287),
        (
            "example2", 5,
            f"converged root violates orientation (alpha=0, beta=0); {_ORIENTATION}",
            0.0, -5.551115123125783e-17,
        ),
        ("example3", 0, "", 0.12647421372987486, 0.2570572270943017),
        ("example4", 0, "", 1.0000000000000022, 0.9999999999999969),
        (
            "mul_0_1", 5,
            f"converged root violates orientation (alpha=-2.62901, beta=1.89027); {_ORIENTATION}",
            -2.629008221921178, 1.8902666245513369,
        ),
        (
            "mul_1_1", 5,
            f"converged root violates orientation (alpha=0.612102, beta=-4.73875); {_ORIENTATION}",
            0.6121019504045017, -4.738748720315133,
        ),
    ],
)
def test_shipped_scenes_keep_their_outcome(
    tmp_path, capsys, monkeypatch, name, code, err, alpha, beta
):
    carried = []

    def solve_keeping_the_root(system, config):
        try:
            return gapspline.solve(system, config)
        except OrientationFailure as exc:
            carried.append(exc)
            raise

    monkeypatch.setattr(gapspline.cli, "solve", solve_keeping_the_root)
    exit_code, out = _solve_to(tmp_path, str(SCENES_DIR / f"{name}.json"))
    assert exit_code == code
    assert capsys.readouterr().err == (f"error: {err}\n" if err else "")
    if code == 0:
        solution = json.loads(out.read_text())
        found = solution["alpha"], solution["beta"]
    else:
        (exc,) = carried
        found = exc.alpha, exc.beta
    np.testing.assert_allclose(found, (alpha, beta), rtol=0.0, atol=1e-12)


# The control points in the input's frame that `gapspline solve` writes for
# each exit-0 shipped scene, as written before the Lagrangian's jet was
# expanded into polynomial coefficients.
@pytest.mark.parametrize(
    "name, points",
    [
        ("example1", [
            (3.9999999999999996, 3),
            (4.333333333333333, 3.333333333333334),
            (6.666666666666666, 1.6666666666666672),
            (6.999999999999999, 2),
        ]),
        ("example3", [
            (3.9999999999999996, 3, -0.5000000000000001),
            (4.252948427459749, 3.2529484274597498, -0.43676289313506267),
            (5.489907015362512, 2.490105361417594, -0.29261460453601973),
            (6.742942772905699, 1.7429427729056988, -0.128528613547151),
            (7, 2.0000000000000004, -2.220446049250313e-16),
        ]),
        ("example4", [
            (3.0000000000000004, 1.5, 1.5000000000000002),
            (4.0000000000000036, 1.4999999999999996, 2.0000000000000013),
            (5.0000000000000036, 1.3333333333333321, 2.5000000000000018),
            (6.000000000000002, 0.9999999999999991, 3.000000000000001),
            (7, 0.5000000000000004, 3.5),
        ]),
    ],
)
def test_shipped_solutions_keep_their_points(tmp_path, name, points):
    code, out = _solve_to(tmp_path, str(SCENES_DIR / f"{name}.json"))
    assert code == 0
    found = json.loads(out.read_text())["original_points"]
    np.testing.assert_allclose(found, points, rtol=0.0, atol=1e-12)


# SHA-256 of the file `solve -o` writes for each exit-0 shipped scene
PINNED_SOLUTIONS = {
    "example1": "fc003bfe98e08e9f0f57e7c1c74c00026871a74f67450a86a75db318ecaab25b",
    "example3": "8ed7e03bd9782fc0bbde9b121a975b08b9ccd17854f044ea0060393106177a14",
    "example4": "051a5504a43a9e2d7bb06af81b631e6c5a5b0950dcba68ccd28d876d081d3436",
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLUTIONS))
def test_solve_output_of_the_exit_0_scenes_is_pinned(tmp_path, name):
    code, out = _solve_to(tmp_path, str(SCENES_DIR / f"{name}.json"))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SOLUTIONS[name]


@pytest.mark.parametrize("option", [["--seed", "-1"], ["--tol", "inf"]], ids=["seed", "tol"])
def test_solver_option_errors_exit_2_with_one_line(tmp_path, capsys, option):
    code, out = _solve_to(tmp_path, EX1, *option)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflowing_number_literal_exits_2_with_one_line(tmp_path, capsys):
    # 1e400 would parse as inf and end in a ConvergenceFailure at residual inf
    code, out = _solve_to(tmp_path, EX1, "--lagrangian", "1e400*dot(D2(1),D2(2))")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "byte offset 0" in err


@pytest.mark.parametrize(
    "command", [["eval", "--curve", "left"], ["render"], ["plan"], ["solve"]],
    ids=lambda c: c[0])
def test_nan_knot_exits_2_with_one_line(tmp_path, capsys, command):
    # json reads the NaN literal, and every ordering test is false for NaN
    doc = json.loads(Path(EX1).read_text())
    doc["left"]["knots"] = [0, 0, 0, 0, float("nan"), 1, 1, 1, 1]
    doc["left"]["points"].append([5, 3])
    scene = tmp_path / "nan.json"
    scene.write_text(json.dumps(doc))
    assert main([command[0], str(scene), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: left.knots invalid: interior knots must lie strictly inside (0, 1)\n")


@pytest.mark.parametrize(
    "command", [["eval", "--curve", "left"], ["render"], ["plan"], ["solve"]],
    ids=lambda c: c[0])
def test_nan_in_an_end_run_of_knots_exits_2_with_one_line(tmp_path, capsys, command):
    # the NaN sits between the ends the clamping test reads, and every
    # ordering test around it is false
    doc = json.loads(Path(EX1).read_text())
    doc["left"]["knots"] = [0, 0, 0, 0, 1, 1, float("nan"), 1]
    scene = tmp_path / "nan.json"
    scene.write_text(json.dumps(doc))
    assert main([command[0], str(scene), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: left.knots invalid: knots must be finite\n"


# ------------------------------------------------------------------- eval


def test_eval_solution_curve(tmp_path):
    _, sol = _solve_to(tmp_path)
    csv_path = tmp_path / "samples.csv"
    assert main(["eval", str(sol), "--count", "5", "-o", str(csv_path)]) == 0
    text = csv_path.read_text()
    assert text.splitlines()[0] == "t,x,y"
    data = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    assert data.shape == (5, 3)
    np.testing.assert_allclose(data[0, 1:], [4.0, 3.0], atol=1e-9)
    np.testing.assert_allclose(data[-1, 1:], [7.0, 2.0], atol=1e-9)


def test_eval_input_curves(capsys):
    assert main(["eval", EX1, "--curve", "left", "--count", "3"]) == 0
    data = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",", skiprows=1)
    assert data.shape == (3, 3)
    np.testing.assert_allclose(data[1, 0], 0.5)


def test_eval_wrong_file_kind(tmp_path, capsys):
    assert main(["eval", EX1, "--curve", "solution"]) == 2
    _, sol = _solve_to(tmp_path)
    assert main(["eval", str(sol), "--curve", "left"]) == 2
    assert main(["eval", EX1, "--curve", "left", "--count", "1"]) == 2


# ------------------------------------------------------------------ render


def test_render_scene_only(capsys):
    assert main(["render", EX1]) == 0
    svg = capsys.readouterr().out
    assert svg.count("<path ") == 2
    assert svg.count("<polyline ") == 2


def test_render_with_solution(tmp_path, capsys):
    _, sol = _solve_to(tmp_path)
    out = tmp_path / "scene.svg"
    assert main(["render", EX1, "--solution", str(sol), "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<path ") == 3
    assert 'class="curve solution"' in svg


def test_render_3d_panels(capsys):
    assert main(["render", EX3]) == 0
    svg = capsys.readouterr().out
    assert ">xy</text>" in svg and ">xz</text>" in svg
    assert svg.count("<path ") == 4  # two inputs in each of two panels


@pytest.mark.parametrize("solved, scene", [(EX1, EX3), (EX3, EX1)], ids=["2d-on-3d", "3d-on-2d"])
def test_render_refuses_a_solution_of_another_dimension(solved, scene, tmp_path, capsys):
    code, sol = _solve_to(tmp_path, solved)
    assert code == 0
    capsys.readouterr()
    assert main(["render", scene, "--solution", str(sol)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: solution curve is ") and err.count("\n") == 1


def test_solve_svg_side_effect(tmp_path):
    svg_path = tmp_path / "plot.svg"
    code, out = _solve_to(tmp_path, EX1, "--svg", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count("<path ") == 3
    # the picture of the solution file just written, byte for byte
    rendered = tmp_path / "render.svg"
    assert main(["render", EX1, "--solution", str(out), "-o", str(rendered)]) == 0
    assert svg_path.read_bytes() == rendered.read_bytes()


# -------------------------------------------------------- normalize / plan


def test_normalize_reports_gap_and_transform(capsys):
    assert main(["normalize", EX1]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(np.sqrt(10.0))
    np.testing.assert_allclose(doc["left"]["points"][-1], [0.0, 0.0], atol=1e-12)
    r = np.asarray(doc["transform"]["rotation"])
    np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-12)


def test_plan_command(capsys):
    assert main(["plan", MUL11]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "Case2"
    assert doc["realization"] == "TwoPieceCubic"
    assert (doc["degree"], doc["pieces"]) == (3, 2)


# (target, case, realization, degree, pieces, left, right) of the planar
# shipped scenes; none of their windows is clamped
PINNED_PLANS = {
    "example1": (1, "Case1", "OnePieceCubic", 3, 1, 1, 1),
    "example2": (1, "Case1", "OnePieceCubic", 3, 1, 1, 1),
    "mul_0_1": (0, "Case1", "OnePieceCubic", 3, 1, 1, 0),
    "mul_1_1": (0, "Case2", "TwoPieceCubic", 3, 2, 0, 1),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_plan_output_of_the_planar_shipped_scenes_is_pinned(name, capsys):
    assert main(["plan", str(SCENES_DIR / f"{name}.json")]) == 0
    target, case, realization, degree, pieces, left, right = PINNED_PLANS[name]
    assert capsys.readouterr().out == (
        "{\n"
        f'  "target_inflections": {target},\n'
        f'  "case": "{case}",\n'
        f'  "realization": "{realization}",\n'
        f'  "degree": {degree},\n'
        f'  "pieces": {pieces},\n'
        f'  "left_inflections": {left},\n'
        f'  "right_inflections": {right},\n'
        '  "window_clamped": false\n'
        "}\n"
    )


# SHA-256 of `render` on every shipped scene
PINNED_RENDERS = {
    "example1": "9cf700d37660904a98f1851878de5446307bdaaf9e9806875fe60c45d3739cb5",
    "example2": "9cf700d37660904a98f1851878de5446307bdaaf9e9806875fe60c45d3739cb5",
    "example3": "9b84182ab810701f5446c1c02293695477edc03f49f9adcf9ee99a8d22faec49",
    "example4": "251adff1ab952a4401e977762d3820337cef9a33fbbe2d2cf39c0db833e8973c",
    "mul_0_1": "6cd362345938552a14c4021c45e4ee91f2cf684dcc385b73f4abf53f53750058",
    "mul_1_1": "67fcc0cd070b1f319e3dd475394731281e7013fd5691065fad5e8ef7b8e7ff4d",
}


@pytest.mark.parametrize("name", sorted(PINNED_RENDERS))
def test_render_output_of_the_shipped_scenes_is_pinned(name, capsys):
    assert main(["render", str(SCENES_DIR / f"{name}.json")]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_RENDERS[name]


# SHA-256 of `eval --curve {left,right} --count 1001` on every shipped scene:
# 17 significant digits, so a change in the evaluator's last bit shows
PINNED_EVALS = {
    "example1": ("2640552173e19f9dd97a668581bd4fd74e175ba94c6e92e7dc4d26a2c5b5b309",
                 "4469dc817805807b402f5a0b0e30c6aa16ab4f8f3e8ae9df53a046d22c2587fd"),
    "example2": ("2640552173e19f9dd97a668581bd4fd74e175ba94c6e92e7dc4d26a2c5b5b309",
                 "4469dc817805807b402f5a0b0e30c6aa16ab4f8f3e8ae9df53a046d22c2587fd"),
    "example3": ("409aee8a495939294f83600ba74e2f8a56c7072d45313ce16f663bc6c6f12b6b",
                 "8728d6aca7ebc866d2ebd52a2760d11d57b9fe8ada74c434d5039f2a60f6df4f"),
    "example4": ("db060f39e66c9ccf73cc1567b5164bbd5a82028f92299435b291f89e1f2d78a3",
                 "4e59e9c53e70439830ad97f20426cb052a17503ffeaebfdf26979243acec9643"),
    "mul_0_1": ("5947054eb220cfae89bc04cad6cb469d7857f30678d59a6406108da485a97c46",
                "1c0924dcf8fbd73aadf31a577675fe26e2e53e1f88b3868b74594c22cd3e535b"),
    "mul_1_1": ("adc9935d80764fed17f1822a2e9887aa59c0c242769993d2902a896a8c89394f",
                "a624644709c34f58a4f02937320696752acace15beb2be2882bde716fcbfbb47"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EVALS))
def test_eval_output_of_the_shipped_scenes_is_pinned(name, capsys):
    for curve, want in zip(("left", "right"), PINNED_EVALS[name]):
        scene = str(SCENES_DIR / f"{name}.json")
        assert main(["eval", scene, "--curve", curve, "--count", "1001"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_window_clamp_is_reported_in_the_plan_only(tmp_path, capsys):
    # example1 with its right curve moved 100 along x: the gap window is
    # longer than either curve
    doc = json.loads(Path(EX1).read_text())
    doc.pop("solution")
    doc["right"]["points"] = [[x + 100.0, y] for x, y in doc["right"]["points"]]
    scene = tmp_path / "far.json"
    scene.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", str(scene)]) == 0
        plan_out = capsys.readouterr()
        code, out = _solve_to(tmp_path, str(scene))
        solve_err = capsys.readouterr().err
    assert (plan_out.err, solve_err) == ("", "")
    assert json.loads(plan_out.out)["window_clamped"] is True
    assert code == 0 and read_solution(out.read_text())["plan"]["window_clamped"] is True


def test_plan_quartic_request(capsys):
    assert main(["plan", MUL11, "--degree", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["realization"] == "OnePieceQuartic"


def test_plan_rejects_bad_degree(capsys):
    assert main(["plan", MUL11, "--degree", "7"]) == 2
