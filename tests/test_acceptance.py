"""Acceptance suite: the ten guarantees this package ships with.

Each test is one guarantee at its stated tolerance, end to end where the
guarantee is about the pipeline.  Run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per guarantee.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gapspline import (
    BSplineCurve,
    OrientationFailure,
    ResidualSystem,
    RigidTransform,
    Scene,
    SceneDocument,
    build_layout,
    case1_tie,
    case2_tie,
    count_inflections,
    eval_lagrangian,
    grad_lagrangian,
    make_knot_vector,
    normalize_scene,
    parse_lagrangian,
    read_scene,
    signed_curvature,
    solve,
    target_inflections,
)
from gapspline.cli import main

from conftest import SCENES_DIR, L_EX1, L_EX2, L_EX3, moved_scene, random_rotation, write_scene
from oracles import basis, el_gradient


def _scene(name: str):
    return read_scene((SCENES_DIR / f"{name}.json").read_text())


def _solve_scene(scene: Scene, text: str, ties=()):
    normalized = normalize_scene(scene)
    layout = build_layout(normalized, ties)
    solution = solve(ResidualSystem(layout, parse_lagrangian(text)))
    return solution, normalized


def _max_abs_curvature(curve: BSplineCurve, samples: int = 512) -> float:
    return max(
        abs(signed_curvature(curve, float(t))) for t in np.linspace(0.0, 1.0, samples)
    )


def _curvature_sign_changes(curve: BSplineCurve, samples: int = 512) -> int:
    count, last = 0, 0
    for t in np.linspace(0.0, 1.0, samples):
        kappa = signed_curvature(curve, float(t))
        if abs(kappa) < 1e-9:
            continue
        sign = 1 if kappa > 0 else -1
        if last and sign != last:
            count += 1
        last = sign
    return count


# 1 ------------------------------------------------------------------------


def test_basis_partition_of_unity_and_endpoint_interpolation():
    knot_vectors = [
        make_knot_vector(3, 1),  # {0^4, 1^4}
        make_knot_vector(3, 2),  # {0^4, 1/2, 1^4}
        make_knot_vector(4, 1),  # {0^5, 1^5}
        make_knot_vector(3, 4),  # {0^4, 1/4, 1/2, 3/4, 1^4}
    ]
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst = 0.0
    for kv in knot_vectors:
        n = kv.point_count
        ts = rng.uniform(0.0, 1.0, 1000)
        total = sum(basis(kv, i, ts) for i in range(n))
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
        worst = max(worst, abs(basis(kv, 0, 0.0) - 1.0))
        worst = max(worst, abs(basis(kv, n - 1, 1.0) - 1.0))
        worst = max(worst, max(abs(basis(kv, i, 0.0)) for i in range(1, n)))
        worst = max(worst, max(abs(basis(kv, i, 1.0)) for i in range(n - 1)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 1.0


# 2 ------------------------------------------------------------------------


def test_difference_operator_form_equals_direct_gradient():
    # the triple-product Lagrangian is only type-correct in 3D, so the 2D
    # sweep runs the two planar ones
    planar = [parse_lagrangian(L_EX1), parse_lagrangian(L_EX2)]
    spatial = planar + [parse_lagrangian(L_EX3)]
    rng = np.random.default_rng(2)
    worst = 0.0
    for dim, exprs in ((2, planar), (3, spatial)):
        for _ in range(100):
            n = int(rng.integers(5, 10))
            points = rng.normal(size=(n, dim))
            free = list(range(2, n))
            for expr in exprs:
                direct = grad_lagrangian(expr, points, free)
                operator = el_gradient(expr, points)[1:-1]
                worst = max(worst, float(np.max(np.abs(operator - direct))))
    assert worst < 1e-9


# 3 ------------------------------------------------------------------------


def test_gradient_matches_central_finite_differences():
    h = 1e-6
    rng = np.random.default_rng(3)

    for dim, text in ((2, L_EX1), (2, L_EX2), (3, L_EX3)):
        expr = parse_lagrangian(text)
        for _ in range(100):
            n = int(rng.integers(5, 9))
            points = rng.normal(size=(n, dim))
            free = list(range(2, n))
            g = grad_lagrangian(expr, points, free)
            fd = np.zeros_like(g)
            for row, idx in enumerate(free):
                for c in range(dim):
                    for sign, store in ((1.0, 1.0), (-1.0, -1.0)):
                        moved = points.copy()
                        moved[idx - 1, c] += sign * h
                        fd[row, c] += store * eval_lagrangian(expr, moved)
            fd /= 2.0 * h
            scale = max(1.0, float(np.max(np.abs(g))))
            assert float(np.max(np.abs(fd - g))) / scale < 1e-6


# 4 ------------------------------------------------------------------------


def test_solve_commutes_with_rigid_motions():
    cases = [("example1", 2, 50), ("example3", 3, 50)]
    rng = np.random.default_rng(4)
    worst = 0.0
    for name, dim, repeats in cases:
        doc = _scene(name)
        base, _ = _solve_scene(doc.scene, doc.lagrangian_text)
        base_norm = normalize_scene(doc.scene)
        base_original = base_norm.transform.inverse().apply(base.control_points)
        for _ in range(repeats):
            g = RigidTransform(random_rotation(rng, dim), rng.normal(scale=5.0, size=dim))
            moved, moved_norm = _solve_scene(
                moved_scene(doc.scene, g), doc.lagrangian_text
            )
            moved_original = moved_norm.transform.inverse().apply(moved.control_points)
            worst = max(
                worst, float(np.max(np.abs(moved_original - g.apply(base_original))))
            )
    assert worst < 1e-6


# 5 ------------------------------------------------------------------------


def test_reference_scene_solves_to_single_inflection_curve():
    doc = _scene("example1")
    started = time.perf_counter()
    solution, normalized = _solve_scene(doc.scene, doc.lagrangian_text)
    elapsed = time.perf_counter() - started
    assert solution.residual_norm < 1e-10
    assert solution.alpha > 0.0 and solution.beta > 0.0
    curve = BSplineCurve(make_knot_vector(3, 1), solution.control_points)
    assert _curvature_sign_changes(curve) == 1
    assert elapsed < 1.0


# 6 ------------------------------------------------------------------------


def test_first_difference_lagrangian_has_higher_peak_curvature():
    # On the four-point layout D1(1) = alpha*a and D1(3) = -beta*b, so the
    # action of dot(D1(1),D1(3)) is the bilinear -(a.b)*alpha*beta, 4*alpha*beta
    # on the reference scene.  Lowering it pulls the curve toward the
    # collapsed root alpha = beta = 0, and the curvature near the joints
    # spikes on the way; but that saddle is the only stationary point, so the
    # first-difference Lagrangian has no admissible curve of its own and its
    # solve must fail the orientation filter in every frame.
    doc = _scene("example1")
    smooth, normalized = _solve_scene(doc.scene, L_EX1)
    knots = make_knot_vector(3, 1)
    peak_smooth = _max_abs_curvature(BSplineCurve(knots, smooth.control_points))

    layout = build_layout(normalized)
    tense = ResidualSystem(layout, parse_lagrangian(L_EX2))

    def action(u):
        return float(tense.jet(np.asarray(u))[0])

    for u in ((1 / 6, 1 / 3), (0.5, 2.0), (1.3, 0.7), (2.0, 0.25)):
        expected = 4.0 * u[0] * u[1]
        assert abs(action(u) - expected) <= 1e-12 * abs(expected)

    actions, peaks = [action(smooth.unknowns)], [peak_smooth]
    for s in (0.75, 0.5, 0.25, 0.1):
        u = s * smooth.unknowns
        actions.append(action(u))
        peaks.append(_max_abs_curvature(BSplineCurve(knots, layout.solution_points(u))))
    assert all(b < a for a, b in zip(actions, actions[1:]))
    assert all(b > a for a, b in zip(peaks, peaks[1:]))

    rng = np.random.default_rng(6)
    scenes = [doc.scene] + [
        moved_scene(
            doc.scene,
            RigidTransform(random_rotation(rng, 2), rng.normal(scale=5.0, size=2)),
        )
        for _ in range(50)
    ]
    for scene in scenes:
        with pytest.raises(OrientationFailure) as info:
            _solve_scene(scene, L_EX2)
        assert info.value.exit_code == 5
        assert float(np.max(np.abs(info.value.root))) < 1e-9
        assert info.value.residual_norm < 1e-10


# 7 ------------------------------------------------------------------------


def test_straight_line_scene_yields_collinear_control_points(straight_scene):
    solution, normalized = _solve_scene(straight_scene, L_EX1)
    assert solution.residual_norm < 1e-10
    chord = normalized.right.points[0] - normalized.left.points[-1]
    direction = chord / np.linalg.norm(chord)
    offsets = solution.control_points - normalized.left.points[-1]
    perp = offsets - np.outer(offsets @ direction, direction)
    assert float(np.max(np.abs(perp))) < 1e-8


# 8 ------------------------------------------------------------------------


def test_inserted_point_ties_hold_on_both_five_point_realizations():
    # Same-slope scene: the x-average tie; opposite-slope scene: the
    # y-mirror tie.  On the opposite-slope scene the converged stationary
    # point has beta < 0, so the orientation policy refuses to bless it as a
    # Solution; the constraint mechanics and the residual tolerance are
    # certified on the converged root either way.
    realizations = ((3, 2), (4, 1))

    doc = _scene("mul_0_1")
    for degree, pieces in realizations:
        scene = doc.scene.with_topology(degree, pieces)
        solution, normalized = _solve_scene(scene, doc.lagrangian_text, (case1_tie(),))
        assert solution.residual_norm < 1e-8
        pts = solution.control_points
        assert pts[2, 0] == 0.5 * (pts[1, 0] + pts[3, 0])

    doc = _scene("mul_1_1")
    for degree, pieces in realizations:
        scene = doc.scene.with_topology(degree, pieces)
        normalized = normalize_scene(scene)
        layout = build_layout(normalized, (case2_tie(),))
        system = ResidualSystem(layout, parse_lagrangian(doc.lagrangian_text))
        with pytest.raises(OrientationFailure) as info:
            solve(system)
        assert info.value.residual_norm < 1e-8
        pts = layout.solution_points(np.asarray(info.value.root))
        assert pts[2, 1] == -0.5 * (pts[1, 1] + pts[3, 1])


# 9 ------------------------------------------------------------------------


def test_inflection_target_arithmetic_and_counter_invariance():
    assert target_inflections(2, 0) == 1
    assert target_inflections(0, 0) == 0
    assert target_inflections(3, 2) == 2

    line = BSplineCurve(
        make_knot_vector(3, 1), [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    )
    assert count_inflections(line, 2.0) == 0

    rng = np.random.default_rng(9)
    knots = make_knot_vector(3, 3)
    for _ in range(20):
        pts = rng.uniform(-1.0, 1.0, size=(6, 2))
        pts[:, 0] += np.arange(6)  # keep the parametrization tame
        curve = BSplineCurve(knots, pts)
        reference = count_inflections(curve, 1.5, end="tail")
        g = RigidTransform(random_rotation(rng, 2), rng.normal(scale=10.0, size=2))
        moved = curve.transformed(g.apply(curve.points))
        assert count_inflections(moved, 1.5, end="tail") == reference


# 10 -----------------------------------------------------------------------


def test_repeated_solves_are_byte_identical(tmp_path, capsys):
    # every scene the suite above touches; scenes whose solve fails by
    # policy must fail identically instead
    straight = tmp_path / "straight.json"
    left = BSplineCurve(
        make_knot_vector(3, 1), [(-3.0, 0.0), (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]
    )
    right = BSplineCurve(
        make_knot_vector(3, 1), [(4.0, 0.0), (5.0, 0.0), (6.0, 0.0), (7.0, 0.0)]
    )
    straight.write_text(
        write_scene(SceneDocument(Scene(left, right, 3, 1), True, L_EX1))
    )

    scenes = [
        str(SCENES_DIR / "example1.json"),
        str(SCENES_DIR / "example2.json"),
        str(SCENES_DIR / "example3.json"),
        str(SCENES_DIR / "example4.json"),
        str(SCENES_DIR / "mul_0_1.json"),
        str(SCENES_DIR / "mul_1_1.json"),
        str(straight),
    ]
    solved = 0
    for scene in scenes:
        outputs = []
        for run in (0, 1):
            out = tmp_path / f"{Path(scene).stem}-{run}.json"
            code = main(["solve", scene, "-o", str(out)])
            err = capsys.readouterr().err
            outputs.append((code, out.read_bytes() if out.exists() else None, err))
        assert outputs[0] == outputs[1]
        if outputs[0][0] == 0:
            solved += 1
            assert b'"original_points"' in outputs[0][1]
    assert solved >= 4  # example1, example3, example4, straight
