"""Signed curvature, inflection counting, and topology planning."""

import warnings

import numpy as np
import pytest

from gapspline import (
    BSplineCurve,
    InvalidArgument,
    RigidTransform,
    Scene,
    TopologyPlan,
    UnsupportedComplexity,
    classify_case,
    count_inflections,
    make_knot_vector,
    normalize_scene,
    plan,
    signed_curvature,
    target_inflections,
)

from conftest import CUBIC, random_rotation


def _curve(points, pieces=None):
    pts = np.asarray(points, dtype=float)
    if pieces is None:
        pieces = len(pts) - 3
    return BSplineCurve(make_knot_vector(3, pieces), pts)


def _normalized(left_pts, right_pts, degree=3, pieces=2):
    return normalize_scene(Scene(_curve(left_pts), _curve(right_pts), degree, pieces))


# ------------------------------------------------------------- curvature


def test_signed_curvature_sign_convention():
    up = _curve([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
    down = _curve([(0.0, 0.0), (1.0, -1.0), (2.0, -4.0), (3.0, -9.0)])
    for t in (0.2, 0.5, 0.8):
        assert signed_curvature(up, t) > 0.0
        assert signed_curvature(down, t) < 0.0
        assert signed_curvature(up, t) == pytest.approx(-signed_curvature(down, t))


def test_signed_curvature_zero_on_straight_line():
    line = _curve([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    for t in np.linspace(0.0, 1.0, 11):
        assert abs(signed_curvature(line, float(t))) < 1e-12


def test_signed_curvature_is_planar_only():
    c = BSplineCurve(CUBIC, [(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 1, 1)])
    with pytest.raises(InvalidArgument):
        signed_curvature(c, 0.5)


# ------------------------------------------------------------ inflections


def test_count_zero_on_straight_line():
    line = _curve([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert count_inflections(line, 2.0) == 0
    assert count_inflections(line, 2.0, end="head") == 0


def test_count_single_s_shape():
    s = _curve([(0.0, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)])
    assert count_inflections(s, 3.0, end="tail") == 1


def test_count_wiggle_windows(wiggle_scene):
    left = wiggle_scene.left
    assert count_inflections(left, 3.0, end="tail") == 1
    assert count_inflections(left, 3.0, end="head") == 1


def test_count_warns_when_window_exceeds_curve():
    s = _curve([(0.0, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)])
    with pytest.warns(UserWarning, match="clamped"):
        count_inflections(s, 1e9)


def test_count_rejects_bad_arguments():
    s = _curve([(0.0, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)])
    with pytest.raises(InvalidArgument):
        count_inflections(s, 0.0)
    with pytest.raises(InvalidArgument):
        count_inflections(s, 1.0, end="middle")


def test_count_is_rigid_motion_invariant(wiggle_scene):
    left = wiggle_scene.left
    base = count_inflections(left, 3.0, end="tail")
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = RigidTransform(random_rotation(rng, 2), rng.normal(scale=10.0, size=2))
        moved = left.transformed(g.apply(left.points))
        assert count_inflections(moved, 3.0, end="tail") == base


# ----------------------------------------------------------------- target


def test_target_inflections_table():
    assert target_inflections(2, 0) == 1
    assert target_inflections(0, 0) == 0
    assert target_inflections(3, 2) == 2
    with pytest.raises(InvalidArgument):
        target_inflections(-1, 0)


# ------------------------------------------------------------------ cases


def test_classify_same_slope_signs():
    norm = _normalized(
        [(-3.0, 1.0), (-2.0, -1.0), (-1.0, -2.0), (0.0, 0.0)],
        [(4.0, 0.0), (5.0, 3.0), (6.0, 4.0), (7.0, 5.0)],
    )
    assert classify_case(norm) == "Case1"


def test_classify_opposite_slope_signs():
    norm = _normalized(
        [(-3.0, 1.0), (-2.0, -1.0), (-1.0, -2.0), (0.0, 0.0)],
        [(4.0, 0.0), (5.0, -3.0), (6.0, -4.0), (7.0, -5.0)],
    )
    assert classify_case(norm) == "Case2"


def test_classify_one_flat_side_is_case2():
    norm = _normalized(
        [(-3.0, 0.0), (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0)],
        [(4.0, 0.0), (5.0, 3.0), (6.0, 4.0), (7.0, 5.0)],
    )
    assert classify_case(norm) == "Case2"


def test_classify_both_flat_is_baseline(straight_scene):
    assert classify_case(normalize_scene(straight_scene)) == "Baseline"


def test_classify_rejects_3d(scene_3d):
    with pytest.raises(InvalidArgument):
        classify_case(normalize_scene(scene_3d))


# ------------------------------------------------------------------- plan


def test_plan_baseline_scene(straight_scene):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tp = plan(normalize_scene(straight_scene))
    assert tp == TopologyPlan(0, "Baseline", "OnePieceCubic", 3, 1, (), 0, 0, True)


def test_plan_calm_case1_needs_no_extra_point(wiggle_scene):
    tp = plan(normalize_scene(wiggle_scene))
    assert tp.case == "Case1"
    assert tp.realization == "OnePieceCubic"
    assert (tp.degree, tp.pieces) == (3, 1)
    assert tp.constraints == ()
    assert (tp.left_inflections, tp.right_inflections) == (1, 0)
    assert tp.target_inflections == 0
    assert not tp.window_clamped


def test_plan_case2_inserts_tied_point(mixed_scene):
    tp = plan(normalize_scene(mixed_scene))
    assert tp.case == "Case2"
    assert tp.realization == "TwoPieceCubic"
    assert (tp.degree, tp.pieces) == (3, 2)
    (tie,) = tp.constraints
    assert (tie.point, tie.coord, tie.scale) == (3, 1, -0.5)
    assert tie.sources == ((2, 1), (4, 1))


def test_plan_case2_quartic_realization(mixed_scene):
    tp = plan(normalize_scene(mixed_scene), degree_request=4)
    assert tp.realization == "OnePieceQuartic"
    assert (tp.degree, tp.pieces) == (4, 1)
    (tie,) = tp.constraints
    assert (tie.coord, tie.scale) == (1, -0.5)


def test_plan_busy_case1_inserts_averaging_tie():
    norm = _normalized(
        [(0.0, 0.0), (1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, -1.0),
         (5.0, 0.0), (6.0, 1.0)],
        [(10.0, 1.0), (11.0, 2.0), (12.0, 0.0), (13.0, 2.0), (14.0, 0.0),
         (15.0, 1.0)],
    )
    tp = plan(norm)
    assert tp.case == "Case1"
    assert tp.target_inflections == 2
    assert tp.realization == "TwoPieceCubic"
    (tie,) = tp.constraints
    assert (tie.point, tie.coord, tie.scale) == (3, 0, 0.5)


def test_plan_gap_override_and_clamp_echo(wiggle_scene):
    # the right curve moved 2 units further along the chord: the gap, and
    # so the window, grows from 3 to 5, longer than the right curve
    right = wiggle_scene.right.transformed(wiggle_scene.right.points + [2.0, 0.0])
    normalized = normalize_scene(Scene(wiggle_scene.left, right, 3, 2))
    assert normalized.gap == 5.0
    with pytest.warns(UserWarning, match="clamped"):
        tp = plan(normalized)
    assert tp.window_clamped
    assert tp.realization == "OnePieceCubic"
    assert tp.target_inflections == 1


def test_plan_too_many_inflections_is_out_of_scope():
    ys = [0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 0.0]
    left = [(float(i), y) for i, y in enumerate(ys)]
    right = [(float(16 + i), y) for i, y in enumerate(reversed(ys))]
    norm = _normalized(left, right, 3, 1)
    with pytest.raises(UnsupportedComplexity) as info:
        plan(norm)
    assert info.value.exit_code == 7


def test_plan_rejects_unsupported_degrees(mixed_scene):
    norm = normalize_scene(mixed_scene)
    for degree in (2, 5):
        with pytest.raises(InvalidArgument):
            plan(norm, degree_request=degree)


def test_plan_rejects_3d(scene_3d):
    with pytest.raises(InvalidArgument):
        plan(normalize_scene(scene_3d))
