import re

import numpy as np
import pytest

from gapspline import BSplineCurve, InvalidArgument, make_knot_vector, read_scene, render_svg
from gapspline.svg import _path, _points_attr

from conftest import CUBIC, LEFT_2D, LEFT_3D, RIGHT_2D, RIGHT_3D, SCENES_DIR

# attributes that hold lengths in the drawing's own units
LENGTHS = {"viewBox", "d", "points", "stroke-width", "stroke-dasharray", "x", "y", "font-size"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _pair(points_l, points_r):
    return BSplineCurve(CUBIC, points_l), BSplineCurve(CUBIC, points_r)


def test_render_is_deterministic():
    left, right = _pair(LEFT_2D, RIGHT_2D)
    assert render_svg(left, right) == render_svg(left, right)


def test_render_styles_and_structure():
    left, right = _pair(LEFT_2D, RIGHT_2D)
    solution = BSplineCurve(CUBIC, [(4.0, 3.0), (4.5, 3.3), (6.5, 1.7), (7.0, 2.0)])
    svg = render_svg(left, right, solution)
    assert svg.startswith("<?xml")
    assert svg.count('class="curve input"') == 2
    assert svg.count('class="curve solution"') == 1
    assert svg.count('class="polygon"') == 3
    assert "#cc2222" in svg and "#000000" in svg
    assert "stroke-dasharray" in svg
    assert "viewBox" in svg


def test_render_3d_draws_two_panels():
    left, right = _pair(LEFT_3D, RIGHT_3D)
    svg = render_svg(left, right)
    assert ">xy</text>" in svg and ">xz</text>" in svg
    assert svg.count('class="curve input"') == 4


def test_render_samples_each_curve_once_whatever_the_panels(monkeypatch):
    calls = []
    sample = BSplineCurve.sample

    def counted(curve, count):
        calls.append(count)
        return sample(curve, count)

    monkeypatch.setattr(BSplineCurve, "sample", counted)
    for points_l, points_r in ((LEFT_2D, RIGHT_2D), (LEFT_3D, RIGHT_3D)):
        calls.clear()
        left, right = _pair(points_l, points_r)
        render_svg(left, right, left)
        assert len(calls) == 3


def test_render_flips_y_axis():
    # image coordinates grow downward: a control point with positive y must
    # appear with negative y in the path data
    up = BSplineCurve(CUBIC, [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    right = BSplineCurve(CUBIC, [(5.0, 1.0), (6.0, 1.0), (7.0, 1.0), (8.0, 1.0)])
    svg = render_svg(up, right)
    assert "-1" in svg


def test_polyline_text_keeps_six_significant_digits_at_the_edges():
    # signed zero, a tiny value, exponents both ways, rounding to six digits
    points = np.array(
        [[0.0, -0.0], [1e-300, -1e-8], [123456789.0, 1.5e8], [0.1234567, -2.5], [7.0, 1e-5]]
    )
    assert _path(points) == (
        "M 0 -0 L 1e-300 -1e-08 L 1.23457e+08 1.5e+08 L 0.123457 -2.5 L 7 1e-05"
    )
    assert _points_attr(points) == "0,-0 1e-300,-1e-08 1.23457e+08,1.5e+08 0.123457,-2.5 7,1e-05"
    assert _path(points[:1]) == "M 0 -0"
    assert _points_attr(points[2:3]) == "1.23457e+08,1.5e+08"


def _attributes(svg):
    """(name, numbers) of every numeric attribute, in document order."""
    return [(name, np.array([float(x) for x in NUMBER.findall(value)]))
            for name, value in re.findall(r'([\w-]+)="([^"#]*)"', svg)
            if name not in ("version", "encoding", "xmlns", "class", "fill")]


@pytest.mark.parametrize("exponent", [-30, 20])
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_render_draws_the_same_picture_at_every_scale(name, exponent):
    scene = read_scene((SCENES_DIR / f"{name}.json").read_text()).scene
    scale = 2.0**exponent
    unit = _attributes(render_svg(scene.left, scene.right))
    scaled = _attributes(render_svg(scene.left.transformed(scene.left.points * scale),
                                    scene.right.transformed(scene.right.points * scale)))
    assert [name for name, _ in scaled] == [name for name, _ in unit]
    span = unit[0][1][2:].max()  # the viewBox's larger side
    for (name, got), (_, want) in zip(scaled, unit):
        if name in LENGTHS:
            np.testing.assert_allclose(got / scale, want, rtol=1e-5, atol=1e-5 * span)
        else:  # the picture's width and height
            np.testing.assert_allclose(got, want, rtol=1e-5)


def test_render_refuses_a_drawing_with_no_extent():
    dot = BSplineCurve(CUBIC, [(0.0, 0.0)] * 4)
    with pytest.raises(InvalidArgument):
        render_svg(dot, dot)
