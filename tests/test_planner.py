"""Signed curvature, inflection counting, and topology planning."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from gapspline import (
    BSplineCurve,
    InvalidArgument,
    KnotVector,
    RigidTransform,
    Scene,
    TopologyPlan,
    UnsupportedComplexity,
    case1_tie,
    case2_tie,
    classify_case,
    count_inflections,
    make_knot_vector,
    normalize_scene,
    plan,
    read_scene,
    signed_curvature,
    target_inflections,
)
from gapspline import planner
from gapspline.planner import GAUSS_NODES, GAUSS_ORDER, GAUSS_WEIGHTS, _ArcLength, _Hodograph

from conftest import CUBIC, SCENES_DIR, insert_knot, random_knot_curves, random_rotation

PLANAR_SCENES = ("example1", "example2", "mul_0_1", "mul_1_1")


def _curve(points, pieces=None):
    pts = np.asarray(points, dtype=float)
    if pieces is None:
        pieces = len(pts) - 3
    return BSplineCurve(make_knot_vector(3, pieces), pts)


def _normalized(left_pts, right_pts, degree=3, pieces=2):
    return normalize_scene(Scene(_curve(left_pts), _curve(right_pts), degree, pieces))


def _shipped(name):
    return read_scene((SCENES_DIR / f"{name}.json").read_text()).scene


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
    with pytest.raises(InvalidArgument, match="inflection counting is 2D only"):
        count_inflections(_curve([(0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (2.0, -2.0, 0.0), (3.0, 0.0, 1.0)]), 1.0)


def test_count_rejects_a_curve_whose_length_overflows():
    s = _curve(np.array([(0.0, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)]) * 1e307)
    with np.errstate(all="ignore"), pytest.raises(InvalidArgument, match="not finite"):
        count_inflections(s, 1e307)


def test_count_over_a_window_below_the_lengths_rounding():
    # the tail window starts at total - 1e-20, which rounds to total
    s = _curve([(0.0, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)])
    assert count_inflections(s, 1e-20, end="tail") == 0
    assert count_inflections(s, 1e-20, end="head") == 0
    arc = _ArcLength(_Hodograph(s))
    assert (arc.parameter_at(0.0), arc.parameter_at(arc.total)) == (0.0, 1.0)
    # a gap of 1e-17 at the origin is a valid scene
    tiny = plan(_normalized([(-3.0, 0.0), (-2.0, 2.0), (-1.0, -2.0), (0.0, 0.0)],
                            [(1e-17, 0.0), (1.0, 2.0), (2.0, -2.0), (3.0, 0.0)], pieces=1))
    assert (tiny.left_inflections, tiny.right_inflections) == (0, 0)


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
        warnings.simplefilter("error")  # the clamp is reported in the plan only
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
    assert tie == case2_tie()
    # ties hash by value: the lookup the benchmark's pins make
    assert {case1_tie(): "case1", case2_tie(): "case2"}[tie] == "case2"


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
    assert tie == case1_tie()
    assert {case1_tie(): "case1", case2_tie(): "case2"}[tie] == "case1"


def test_plan_gap_override_and_clamp_echo(wiggle_scene):
    # the right curve moved 2 units further along the chord: the gap, and
    # so the window, grows from 3 to 5, longer than the right curve
    right = wiggle_scene.right.transformed(wiggle_scene.right.points + [2.0, 0.0])
    normalized = normalize_scene(Scene(wiggle_scene.left, right, 3, 2))
    assert normalized.gap == 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the plan's field is the one channel
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


# ------------------------------------------------------------ measurement

GL_NODES, GL_WEIGHTS = leggauss(30)


def _reference_arc(curve, t, panels=64):
    """Arc length from 0 to t: the evaluator's |f'| integrated by 30-point
    Gauss–Legendre on each of 64 panels per knot span."""
    p = curve.degree
    ends = [b for b in curve.knots.knots[p:-p] if b < t] + [t]
    total = 0.0
    for a, b in zip(ends[:-1], ends[1:]):
        edges = np.linspace(a, b, panels + 1)
        mid, half = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
        speed = np.linalg.norm(curve.derivative(mid + half * GL_NODES, 1), axis=-1)
        total += float((half * speed * GL_WEIGHTS).sum())
    return total


def _reference_parameter(curve, s):
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        if _reference_arc(curve, mid) < s:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_gauss_legendre_rule_matches_numpy():
    x, w = leggauss(GAUSS_ORDER)
    np.testing.assert_allclose(GAUSS_NODES, (x + 1.0) / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(GAUSS_WEIGHTS, w / 2.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("degree", [3, 4])
def test_arc_length_and_window_end_match_a_fine_reference(degree):
    rng = np.random.default_rng(degree)
    for pieces in (1, 2, 4):
        kv = make_knot_vector(degree, pieces)
        curve = BSplineCurve(kv, rng.normal(size=(kv.point_count, 2)))
        arc = _ArcLength(_Hodograph(curve))
        total = _reference_arc(curve, 1.0)
        assert abs(arc.total - total) <= 1e-8 * total
        for fraction in (0.1, 0.7):
            s = fraction * arc.total
            assert abs(arc.parameter_at(s) - _reference_parameter(curve, s)) <= 1e-9


@pytest.mark.parametrize("name", PLANAR_SCENES)
def test_plan_makes_no_evaluator_call(name, monkeypatch):
    normalized = normalize_scene(_shipped(name))
    calls = []
    for name in ("point", "derivative"):
        method = getattr(BSplineCurve, name)

        def counted(curve, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(curve, *args)

        monkeypatch.setattr(BSplineCurve, name, counted)
    plan(normalized)
    assert calls == []


def test_span_polynomials_match_the_evaluator_on_non_uniform_knots():
    rng = np.random.default_rng(11)
    for degree in range(1, 6):
        for pieces in (1, 2, 3, 6):
            interior = tuple(np.sort(rng.uniform(0.02, 0.98, pieces - 1)))
            kv = KnotVector((0.0,) * (degree + 1) + interior + (1.0,) * (degree + 1), degree)
            curve = BSplineCurve(kv, rng.normal(scale=3.0, size=(kv.point_count, 2)))
            hodograph = _Hodograph(curve)
            t = np.concatenate([rng.uniform(0.0, 1.0, 200), hodograph.breaks])
            span = np.minimum(np.searchsorted(hodograph.breaks, t, side="right"), pieces) - 1
            width = hodograph.widths[span]
            dx, dy, ddx, ddy = hodograph.derivatives(span, (t - hodograph.breaks[span]) / width)
            # f'' is per unit t and x; the evaluator's is per unit t squared
            for got, want in (((dx, dy), curve.derivative(t, 1)),
                              ((ddx / width, ddy / width), curve.derivative(t, 2))):
                error = np.abs(np.stack(got, axis=-1) - want).max()
                assert error <= 1e-13 * np.abs(want).max()


def test_hodograph_from_the_factor_memo_is_bit_for_bit_the_uncached_one(monkeypatch):
    curves = list(random_knot_curves(np.random.default_rng(43)))

    def tables(curve):
        hodograph = _Hodograph(curve)
        return [a.view(np.int64) for a in (hodograph.rows, hodograph.breaks, hodograph.widths)]

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_KNOT_TABLES", planner._knot_factors)
        want = [tables(curve) for curve in curves]
    for curve, expected in zip(curves, want):
        planner._KNOT_TABLES.tables.clear()
        for _ in range(2):  # a cold memo, then a warm one
            assert all((got == w).all() for got, w in zip(tables(curve), expected))
        assert all(not a.flags.writeable for a in planner._KNOT_TABLES.tables[curve.knots,])


@pytest.mark.parametrize("name", PLANAR_SCENES)
def test_plan_is_unchanged_by_knot_insertion(name):
    scene = _shipped(name)
    want = plan(normalize_scene(scene))
    rng = np.random.default_rng(5)
    for factor in (2, 3, 4):
        curves = []
        for curve in (scene.left, scene.right):
            target = factor * len(curve.points)
            while len(curve.points) < target:
                u = float(rng.uniform(0.02, 0.98))
                if u not in curve.knots.knots:
                    curve = insert_knot(curve, u)
            curves.append(curve)
        assert plan(normalize_scene(Scene(*curves))) == want


def test_low_degree_and_zero_speed_curves_count_no_spurious_inflections():
    zigzag = BSplineCurve(make_knot_vector(1, 4), [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])
    arc = BSplineCurve(make_knot_vector(2, 2), [(0, 0), (1, 2), (3, 2), (4, 0)])
    s_shape = BSplineCurve(make_knot_vector(2, 2), [(0, 0), (1, 1), (2, -1), (3, 0)])
    assert count_inflections(zigzag, 4.0) == 0  # straight pieces are flat
    assert count_inflections(arc, 4.0) == 0
    assert count_inflections(s_shape, 3.0) == 1  # the sign flips at the knot
    tp = plan(normalize_scene(Scene(arc, zigzag.transformed(zigzag.points + [6.0, 0.0]))))
    assert (tp.left_inflections, tp.right_inflections) == (0, 0)
    # ((2t-1)^2, (2t-1)^3): a cusp at t = 1/2 with x'y'' - y'x'' >= 0 throughout
    cusp = BSplineCurve(CUBIC, [(1.0, -1.0), (-1 / 3, 1.0), (-1 / 3, -1.0), (1.0, 1.0)])
    # zero speed at t = 0: the first two control points coincide
    still = BSplineCurve(CUBIC, [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    assert signed_curvature(cusp, 0.5) == 0.0
    assert signed_curvature(still, 0.0) == 0.0
    for curve in (cusp, still):
        total = _ArcLength(_Hodograph(curve)).total
        for end in ("tail", "head"):
            assert count_inflections(curve, 0.9 * total, end) == 0
    # the cusp halves the arc length.  Near it s(t) - s(1/2) ~ (t - 1/2)^2, so
    # rounding in s leaves t good only to ~sqrt(eps); s itself is exact
    arc = _ArcLength(_Hodograph(cusp))
    t = arc.parameter_at(arc.total / 2)
    assert abs(t - 0.5) <= 1e-7
    assert abs(_reference_arc(cusp, t) - arc.total / 2) <= 1e-12 * arc.total


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(PLANAR_SCENES),
    st.floats(-12.0, 12.0),
    st.floats(-np.pi, np.pi),
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_counts_do_not_depend_on_units_or_placement(name, exponent, angle, shift):
    scene = _shipped(name)
    scale = 10.0**exponent
    c, s = np.cos(angle), np.sin(angle)
    g = RigidTransform(np.array([[c, -s], [s, c]]), scale * np.asarray(shift))
    moved = Scene(*(curve.transformed(g.apply(scale * curve.points))
                    for curve in (scene.left, scene.right)))
    want, got = plan(normalize_scene(scene)), plan(normalize_scene(moved))
    assert (got.left_inflections, got.right_inflections, got.window_clamped) == (
        want.left_inflections, want.right_inflections, want.window_clamped)
