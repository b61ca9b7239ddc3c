"""Deterministic SVG rendering: input curves black, solution red, control
polygons dashed gray.  3D scenes render as two orthographic projections
(xy and xz) side by side.  Output depends only on the input geometry."""

import numpy as np

from .bspline import BSplineCurve
from .errors import InvalidArgument

CURVE_SAMPLES = 256
WIDTH = 720.0


def _fmt(x: float) -> str:
    return "%.6g" % float(x)


def _path(points: np.ndarray) -> str:
    n = len(points)
    return ("M %.6g %.6g" + " L %.6g %.6g" * (n - 1)) % tuple(points[:, :2].ravel().tolist())


def _points_attr(points: np.ndarray) -> str:
    n = len(points)
    return ("%.6g,%.6g" + " %.6g,%.6g" * (n - 1)) % tuple(points[:, :2].ravel().tolist())


def render_svg(
    left: BSplineCurve,
    right: BSplineCurve,
    solution: "BSplineCurve | None" = None,
) -> str:
    """SVG document for a scene and (optionally) its solution curve; every
    curve must have left's dimension."""
    curves = [(left, "input", "#000000"), (right, "input", "#000000")]
    if solution is not None:
        curves.append((solution, "solution", "#cc2222"))
    for curve, cls, _ in curves:
        if curve.dim != left.dim:
            raise InvalidArgument(f"{cls} curve is {curve.dim}D but the left curve is {left.dim}D")
    # each curve is sampled once, whatever the number of projections
    arrays = [a for curve, _, _ in curves for a in (curve.sample(CURVE_SAMPLES), curve.points)]
    stacked = np.concatenate(arrays)
    cuts = np.cumsum([len(a) for a in arrays])[:-1]

    if left.dim == 2:
        projections = [([0, 1], None)]
    else:
        projections = [([0, 1], "xy"), ([0, 2], "xz")]

    # project, flip y for SVG's downward axis, then shift panels side by side
    panels = []
    offset = 0.0
    for axes, label in projections:
        flat = stacked[:, axes] * (1.0, -1.0)
        lo, hi = flat.min(axis=0), flat.max(axis=0)
        shift = offset - lo[0]
        moved = np.split(flat + (shift, 0.0), cuts)
        geo = [(moved[2 * i], moved[2 * i + 1], cls, color)
               for i, (_, cls, color) in enumerate(curves)]
        panels.append((geo, label, lo[0] + shift, lo[1], hi[0] + shift, hi[1]))
        offset += (hi[0] - lo[0]) * 1.15

    lo_x = min(p[2] for p in panels)
    lo_y = min(p[3] for p in panels)
    hi_x = max(p[4] for p in panels)
    hi_y = max(p[5] for p in panels)
    # relative, so that the picture is the same at every scale; a scene's
    # boundary points differ, so its span is positive
    span = max(hi_x - lo_x, hi_y - lo_y)
    if not span > 0.0:
        raise InvalidArgument("nothing to draw: every point of the curves coincides")
    margin = 0.05 * span
    vb = (lo_x - margin, lo_y - margin, hi_x - lo_x + 2 * margin, hi_y - lo_y + 2 * margin)
    stroke = 0.006 * span

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(vb[0])} {_fmt(vb[1])} '
        f'{_fmt(vb[2])} {_fmt(vb[3])}" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(WIDTH * vb[3] / vb[2])}">',
    ]
    for geo, label, min_x, min_y, _, _ in panels:
        if label:
            lines.append(
                f'<text x="{_fmt(min_x)}" y="{_fmt(min_y - 0.2 * margin)}" '
                f'font-size="{_fmt(0.03 * span)}" fill="#555555">{label}</text>'
            )
        for samples, polygon, cls, color in geo:
            lines.append(
                f'<polyline class="polygon" points="{_points_attr(polygon)}" '
                f'fill="none" stroke="#999999" stroke-width="{_fmt(0.6 * stroke)}" '
                f'stroke-dasharray="{_fmt(3 * stroke)} {_fmt(2 * stroke)}"/>'
            )
            lines.append(
                f'<path class="curve {cls}" d="{_path(samples)}" fill="none" '
                f'stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
