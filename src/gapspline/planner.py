"""Topology planning: how much shape must the connecting curve carry?

The visible data near the gap tells us how many inflections the hidden piece
should have: count sign changes of the signed curvature over one gap-length
of each input curve, average, and round down.  A plain one-piece cubic covers
the simple same-slope-signs case; anything busier gets one extra control
point (as a two-piece cubic or a one-piece quartic) with a coordinate tie
that forces the extra point to spend its budget on inflections rather than
drift.  More than one extra point is out of scope and reported as such.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve
from .errors import InvalidArgument, UnsupportedComplexity
from .system import CoordinateTie, NormalizedScene, case1_tie, case2_tie

CURVATURE_SAMPLES = 512
ARC_SAMPLES = 2048
FLAT_CURVATURE = 1e-9

CASE1 = "Case1"
CASE2 = "Case2"
BASELINE = "Baseline"

ONE_PIECE_CUBIC = "OnePieceCubic"
TWO_PIECE_CUBIC = "TwoPieceCubic"
ONE_PIECE_QUARTIC = "OnePieceQuartic"


@dataclass(frozen=True)
class TopologyPlan:
    target_inflections: int
    case: str
    realization: str
    degree: int
    pieces: int
    constraints: tuple[CoordinateTie, ...]
    left_inflections: int
    right_inflections: int
    window_clamped: bool = False


def signed_curvature(curve: BSplineCurve, t):
    """(x'y'' - y'x'') / |f'|^3 from exact parametric derivatives, at t or an
    array of t; 0 where |f'|^3 < 1e-30.
    """
    if curve.dim != 2:
        raise InvalidArgument("signed curvature is a planar notion")
    d1 = curve.derivative(t, 1)
    d2 = curve.derivative(t, 2)
    speed_sq = (d1 * d1).sum(axis=-1)
    denom = speed_sq * np.sqrt(speed_sq)  # array and scalar ** 1.5 can differ
    cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    kappa = np.divide(cross, denom, out=np.zeros(denom.shape), where=~(denom < 1e-30))
    return kappa if kappa.ndim else float(kappa)


def _cumulative_arc(curve: BSplineCurve) -> tuple[np.ndarray, np.ndarray]:
    ts = np.linspace(0.0, 1.0, ARC_SAMPLES + 1)
    pts = curve.sample(ARC_SAMPLES + 1)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return ts, np.concatenate([[0.0], np.cumsum(seg)])


def _param_at_arc(ts: np.ndarray, cum: np.ndarray, s: float) -> float:
    s = min(max(s, 0.0), float(cum[-1]))
    i = int(np.searchsorted(cum, s))
    if i <= 0:
        return float(ts[0])
    if i >= len(cum):
        return float(ts[-1])
    lo, hi = cum[i - 1], cum[i]
    if hi == lo:
        return float(ts[i])
    frac = (s - lo) / (hi - lo)
    return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))


def _count_inflections(curve: BSplineCurve, window: float, end: str):
    if curve.dim != 2:
        raise InvalidArgument("inflection counting is 2D only")
    if not window > 0.0:
        raise InvalidArgument(f"window must be positive, got {window}")
    if end not in ("tail", "head"):
        raise InvalidArgument(f"end must be 'tail' or 'head', got {end!r}")
    ts, cum = _cumulative_arc(curve)
    total = float(cum[-1])
    clamped = window > total
    span = min(window, total)
    if end == "tail":
        t_lo, t_hi = _param_at_arc(ts, cum, total - span), 1.0
    else:
        t_lo, t_hi = 0.0, _param_at_arc(ts, cum, span)
    kappa = signed_curvature(curve, np.linspace(t_lo, t_hi, CURVATURE_SAMPLES))
    positive = kappa[~(np.abs(kappa) < FLAT_CURVATURE)] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1])), clamped


def count_inflections(curve: BSplineCurve, window: float, end: str = "tail") -> int:
    """Signed-curvature sign changes over an end arc of the given length.

    ``end`` picks the trailing (``"tail"``) or leading (``"head"``) arc.
    Curvature magnitudes below 1e-9 are treated as flat.  A window longer
    than the whole curve is clamped, with a warning.
    """
    count, clamped = _count_inflections(curve, window, end)
    if clamped:
        warnings.warn(
            "inflection window exceeds the curve's arc length; clamped to the full curve",
            stacklevel=2,
        )
    return count


def target_inflections(n1: int, n2: int) -> int:
    """floor of the mean of the two measured inflection counts."""
    if n1 < 0 or n2 < 0:
        raise InvalidArgument("inflection counts cannot be negative")
    return (n1 + n2) // 2


def classify_case(normalized: NormalizedScene) -> str:
    """Compare end-tangent slope signs at the gap, in the normalized frame.

    Same y-signs -> Case1, opposite (or one flat side) -> Case2; both flat ->
    Baseline (the straight-line scene).
    """
    if normalized.dim != 2:
        raise InvalidArgument("case classification is 2D only")
    left_tangent = normalized.left.points[-1] - normalized.left.points[-2]
    right_tangent = normalized.right.points[1] - normalized.right.points[0]

    def slope_sign(v: np.ndarray) -> int:
        if abs(v[1]) <= 1e-12 * np.linalg.norm(v):
            return 0
        return 1 if v[1] > 0.0 else -1

    ls, rs = slope_sign(left_tangent), slope_sign(right_tangent)
    if ls == 0 and rs == 0:
        return BASELINE
    return CASE1 if ls * rs > 0 else CASE2


def plan(normalized: NormalizedScene, degree_request: int = 3) -> TopologyPlan:
    """Choose the connecting curve's topology from the visible data.

    The measurement window is always the gap length ``normalized.gap``, the
    only scale the normalized scene carries; a window longer than an input
    curve is clamped to it, with a warning and ``window_clamped`` set.  The
    target inflection count is n = floor((n1 + n2) / 2).  n <= 1 with
    same-sign slopes needs no extra point; otherwise one point is inserted
    and tied per the case.  n > 2 would need more inserted points than this
    planner automates.
    """
    if normalized.dim != 2:
        raise InvalidArgument("topology planning is 2D only")
    if degree_request not in (3, 4):
        raise InvalidArgument(
            f"planner realizes degree 3 or 4 solutions, got {degree_request}"
        )
    n1, clamp1 = _count_inflections(normalized.left, normalized.gap, "tail")
    n2, clamp2 = _count_inflections(normalized.right, normalized.gap, "head")
    clamped = clamp1 or clamp2
    if clamped:
        warnings.warn(
            "inflection window exceeds an input curve's arc length; clamped",
            stacklevel=2,
        )
    n = target_inflections(n1, n2)
    case = classify_case(normalized)

    if case == BASELINE or (case == CASE1 and n <= 1):
        return TopologyPlan(n, case, ONE_PIECE_CUBIC, 3, 1, (), n1, n2, clamped)
    if n > 2:
        raise UnsupportedComplexity(
            f"target inflection count {n} needs more than one inserted control point"
        )
    tie = case1_tie() if case == CASE1 else case2_tie()
    if degree_request == 3:
        return TopologyPlan(n, case, TWO_PIECE_CUBIC, 3, 2, (tie,), n1, n2, clamped)
    return TopologyPlan(n, case, ONE_PIECE_QUARTIC, 4, 1, (tie,), n1, n2, clamped)
