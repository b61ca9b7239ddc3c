"""Topology planning: how much shape must the connecting curve carry?

The visible data near the gap tells us how many inflections the hidden piece
should have: count sign changes of the signed curvature over one gap-length
of each input curve, average, and round down.  A plain one-piece cubic covers
the simple same-slope-signs case; anything busier gets one extra control
point (as a two-piece cubic or a one-piece quartic) with a coordinate tie
that forces the extra point to spend its budget on inflections rather than
drift.  More than one extra point is out of scope and reported as such.

Each curve is read from its control points, with no evaluator call: f' on
every knot span [a, a + h] of a degree-p curve is a polynomial in
x = (t - a) / h, whose coefficients come from de Boor's algorithm on the
hodograph run with x kept symbolic.  Its factors depend on the knots alone,
and a ``functools.lru_cache`` keeps them, read-only and whatever their size,
for the MEMO_ENTRIES knot vectors used last; two threads that miss on one
may both build them, with the same bits.  The speed, f'' and the signed
curvature come from those polynomials, arc length from adaptive
Gauss–Legendre quadrature of |f'|, and the window's end parameter from
Newton's method on the arc length (Guenter & Parent, "Computing the arc
length of parametric curves", IEEE CG&A 1990).  Both flat rules are
relative, so the counts do not depend on the scene's units: a curvature
sample is flat when |kappa| times the window's arc length is below
FLAT_CURVATURE, and kappa is 0 where |f'| is at most STILL_SPEED times the
length of the control polygon.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .bspline import (
    MEMO_ENTRIES,
    BSplineCurve,
    KnotVector,
    hodograph_denominators,
    parameter_array,
    read_only,
)
from .errors import InvalidArgument, UnsupportedComplexity
from .system import CoordinateTie, NormalizedScene, case1_tie, case2_tie

CURVATURE_SAMPLES = 512
FLAT_CURVATURE = 1e-9  # bound on |kappa| times the window's arc length
STILL_SPEED = 1e-10  # bound on |f'| over the control polygon's length
ARC_TOLERANCE = 1e-11  # bound on a panel's halving error over the curve's arc length
MAX_HALVINGS = 40
NEWTON_STEPS = 60

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


# 24-point Gauss–Legendre rule on [0, 1]: nodes ascending, weights summing
# to 1; written out, as computing it at import takes about a millisecond
GAUSS_NODES = np.array([
    0.0024063900014893447, 0.012635722014345263, 0.0308627239986336,
    0.056792236497799464, 0.08999900701304853, 0.12993790421072282,
    0.17595317403151223, 0.22728926430558022, 0.28310324618697746,
    0.3424786601519183, 0.40444056626319186, 0.4679715535686972,
    0.5320284464313028, 0.5955594337368082, 0.6575213398480817,
    0.7168967538130225, 0.7727107356944198, 0.8240468259684878,
    0.8700620957892772, 0.9100009929869515, 0.9432077635022005,
    0.9691372760013663, 0.9873642779856547, 0.9975936099985107,
])
GAUSS_WEIGHTS = np.array([
    0.006170614899993667, 0.014265694314466906, 0.022138719408709838,
    0.02964929245771833, 0.036673240705540136, 0.04309508076597661,
    0.04880932605205695, 0.05372213505798281, 0.05775283402686277,
    0.060835236463901675, 0.06291872817341419, 0.06396909767337612,
    0.06396909767337612, 0.06291872817341419, 0.060835236463901675,
    0.05775283402686277, 0.05372213505798281, 0.04880932605205695,
    0.04309508076597661, 0.036673240705540136, 0.02964929245771833,
    0.022138719408709838, 0.014265694314466906, 0.006170614899993667,
])
GAUSS_ORDER = len(GAUSS_NODES)
# a panel, the panel after it, and the two together, in units of a panel
SPLIT_NODES = np.concatenate([GAUSS_NODES, 1.0 + GAUSS_NODES, 2.0 * GAUSS_NODES])
END_NODES = np.append(GAUSS_NODES, 1.0)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _knot_factors(knots: KnotVector) -> tuple:
    """What _Hodograph takes from the knots alone: the hodograph's
    denominators, the breaks and widths of its spans, the rows of each span's
    p hodograph points, and the factors c0 and c1 of each de Boor row."""
    p = knots.degree
    kn = np.asarray(knots.knots[1:-1])  # the hodograph's, of degree p - 1
    breaks = kn[p - 1 : len(kn) - p + 1]  # clamped: the distinct knots
    widths = np.diff(breaks)
    span = np.arange(len(widths))[:, None]
    factors = []
    for r in range(1, p):
        lo = kn[span + np.arange(r, p)]
        den = kn[span + np.arange(p, 2 * p - r)] - lo
        factors.append(((breaks[:-1, None] - lo) / den)[:, :, None, None])
        factors.append((widths[:, None] / den)[:, :, None, None])
    return read_only(hodograph_denominators(knots.knots, p), breaks, widths, span + np.arange(p), *factors)


class _Hodograph:
    """f' of a planar curve as one polynomial per knot span, read from the
    control points.

    On the span [a, a + h] of a degree-p curve, f' is a polynomial of degree
    p - 1 in x = (t - a) / h.  De Boor's algorithm on the hodograph at
    t = a + h x, run on every span at once with x kept symbolic, gives its
    coefficients: each point carries its coefficients of x**0 ... x**(p-1),
    and each affine step d[m-1] + alpha (d[m] - d[m-1]), alpha = c0 + c1 x,
    is a scalar multiply plus a one-place shift.  f'' is that polynomial's
    derivative over h.  Both are kept over 2**exponent, the binary scale of
    the largest leg coordinate, so |f'|**3 stays in range at any units; a
    power of two scales every value in range exactly.
    """

    def __init__(self, curve: BSplineCurve):
        p = curve.degree
        den, self.breaks, self.widths, gather, *factors = _knot_factors(curve.knots)
        legs = np.diff(curve.points, axis=0)
        self.exponent = int(np.frexp(np.max(np.abs(legs)))[1])
        legs = np.ldexp(legs, -self.exponent)
        points = p * legs / den  # the hodograph's
        # d[i, m, k]: coefficient of x**k of de Boor point m on span i
        d = np.zeros((len(self.widths), p, p, curve.dim))
        d[:, :, 0] = points[gather]
        for r, c0, c1 in zip(range(1, p), factors[::2], factors[1::2]):
            step = d[:, r:] - d[:, r - 1 : -1]
            d[:, r:] = d[:, r - 1 : -1] + c0 * step
            d[:, r:, 1:] += c1 * step[:, :, :-1]
        # row i: the x and y coefficients of x**0, x**1, ... on span i
        self.rows = d[:, -1].reshape(len(self.widths), -1)
        # the control polygon is at least as long as the curve
        self.speed_floor = STILL_SPEED * np.sqrt((legs * legs).sum(axis=1)).sum()

    def derivatives(self, span, x, second: bool = True):
        """x', y', x'' and y'' over 2**exponent at x on the given spans (1-D
        arrays of one length), f' per unit t and f'' per unit t and x; f''
        is 0 unless ``second``."""
        g = self.rows[span].T
        dx, dy, ddx, ddy = g[-2], g[-1], 0.0, 0.0
        for k in range(len(g) // 2 - 2, -1, -1):  # Horner for a value and its derivative
            if second:
                ddx, ddy = ddx * x + dx, ddy * x + dy
            dx, dy = dx * x + g[2 * k], dy * x + g[2 * k + 1]
        return dx, dy, ddx, ddy

    def speeds(self, span, x) -> np.ndarray:
        dx, dy, _, _ = self.derivatives(span, x, second=False)
        return np.sqrt(dx * dx + dy * dy)

    def curvature(self, t: np.ndarray) -> np.ndarray:
        """Signed curvature (x'y'' - y'x'') / |f'|^3 at a 1-D array of t in
        [0, 1]; 0 where |f'| is at most STILL_SPEED times the length of the
        control polygon."""
        span = np.minimum(np.searchsorted(self.breaks, t, side="right"), len(self.widths)) - 1
        width = self.widths[span]
        dx, dy, ddx, ddy = self.derivatives(span, (t - self.breaks[span]) / width)
        speed_sq = dx * dx + dy * dy
        denom = speed_sq * np.sqrt(speed_sq) * width  # array and scalar ** 1.5 can differ
        cross = dx * ddy - dy * ddx
        kappa = np.divide(cross, denom, out=np.zeros(len(t)), where=speed_sq > self.speed_floor**2)
        return np.ldexp(kappa, -self.exponent)


class _ArcLength:
    """Arc length of a curve from its hodograph, and its inverse.

    Adaptive Gauss–Legendre quadrature of |f'| (Guenter & Parent, "Computing
    the arc length of parametric curves", IEEE CG&A 1990): a panel, at first
    a whole knot span, is halved until its halves' lengths add up to its own
    to within ARC_TOLERANCE times the curve's length, and the halves are kept.
    Equal panels would not do: where f' passes near zero inside a span, |f'|
    bends sharply, and 4 or 8 equal panels per span still miss random
    control polygons' lengths by ~1e-6 of the total.
    """

    def __init__(self, hodograph: _Hodograph):
        self.hodograph = hodograph
        # a panel's left end: its span's index plus its start in the span, a
        # multiple of 2**-MAX_HALVINGS, so the sum is exact
        left = np.arange(len(hodograph.widths), dtype=float)
        kept = []  # (left, size, length) of the panels that passed
        for level in range(1, MAX_HALVINGS + 1):
            size = 0.5**level  # of the halves of this level's panels
            lengths = self._lengths(left, size)
            if level == 1:
                tol = ARC_TOLERANCE * lengths[:, 2].sum()
            rough = np.abs(lengths[:, 0] + lengths[:, 1] - lengths[:, 2]) > tol  # NaN: no use halving
            rough = np.repeat(rough & (level < MAX_HALVINGS), 2)
            # every panel becomes its two halves; the rough ones are halved again
            left, length = (left[:, None] + [0.0, size]).ravel(), lengths[:, :2].ravel()
            fine = ~rough
            kept.append((left[fine], np.full(np.count_nonzero(fine), size), length[fine]))
            left = left[rough]
            if not len(left):
                break
        left, size, length = (np.concatenate(part) for part in zip(*kept))
        order = np.argsort(left)
        self.panels = left[order], size[order]
        self.cumulative = np.concatenate(([0.0], np.cumsum(length[order])))
        self.total = float(np.ldexp(self.cumulative[-1], hodograph.exponent))

    def _lengths(self, left, size: float) -> np.ndarray:
        """Gauss–Legendre arc lengths of the panels of the given size at
        ``left`` (column 0), of the panels after them (1), and of the two
        together (2)."""
        span = left.astype(int)
        x = (left - span)[:, None] + size * SPLIT_NODES
        speeds = self.hodograph.speeds(np.repeat(span, SPLIT_NODES.size), x.ravel())
        rules = speeds.reshape(len(span), 3, -1) @ GAUSS_WEIGHTS
        return (self.hodograph.widths[span] * size)[:, None] * rules * [1.0, 1.0, 2.0]

    def parameter_at(self, s: float) -> float:
        """t at which the arc length from t = 0 is s: 0 for s <= 0 and 1 for
        s >= total, as when total - s rounds to total.

        Newton's method on the arc length inside the panel holding s, by the
        panel's Gauss–Legendre rule scaled to [start, start + u]; a step that
        leaves the bracket, as at a zero-speed point, bisects it instead.
        """
        if s <= 0.0:
            return 0.0
        if s >= self.total:
            return 1.0
        s = float(np.ldexp(s, -self.hodograph.exponent))  # in the hodograph's units
        k = int(np.searchsorted(self.cumulative, s, side="right")) - 1
        left, size = float(self.panels[0][k]), float(self.panels[1][k])
        span = int(left)
        start = left - span
        width = float(self.hodograph.widths[span])
        rest = s - float(self.cumulative[k])
        spans = np.full(END_NODES.shape, span)
        lo, hi = 0.0, size
        u = size * rest / float(self.cumulative[k + 1] - self.cumulative[k])
        for _ in range(NEWTON_STEPS):
            speeds = self.hodograph.speeds(spans, start + u * END_NODES)
            excess = width * u * float(speeds[:-1] @ GAUSS_WEIGHTS) - rest
            if excess > 0.0:
                hi = u
            else:
                lo = u
            slope = width * float(speeds[-1])
            new = 0.5 * (lo + hi)
            if slope > 0.0 and lo <= u - excess / slope <= hi:
                new = u - excess / slope
            step, u = new - u, new
            if abs(step) <= 1e-10:  # then u is off by ~step**2, or by step after a bisection
                break
        return float(self.hodograph.breaks[span]) + width * (start + u)


def signed_curvature(curve: BSplineCurve, t):
    """(x'y'' - y'x'') / |f'|^3 at t or an array of t, from the curve's
    per-span polynomials; 0 where |f'| is at most 1e-10 times the length of
    the control polygon.
    """
    if curve.dim != 2:
        raise InvalidArgument("signed curvature is a planar notion")
    ts = parameter_array(t)
    kappa = _Hodograph(curve).curvature(ts.ravel()).reshape(ts.shape)
    return kappa if kappa.ndim else float(kappa)


def _count_inflections(curve: BSplineCurve, window: float, end: str):
    if curve.dim != 2:
        raise InvalidArgument("inflection counting is 2D only")
    if not window > 0.0:
        raise InvalidArgument(f"window must be positive, got {window}")
    if end not in ("tail", "head"):
        raise InvalidArgument(f"end must be 'tail' or 'head', got {end!r}")
    hodograph = _Hodograph(curve)
    arc = _ArcLength(hodograph)
    total = arc.total
    if not np.isfinite(total):  # coordinates near the float range overflow
        raise InvalidArgument(f"curve arc length is not finite, got {total}")
    clamped = window > total
    length = min(window, total)
    if end == "tail":
        t_lo, t_hi = arc.parameter_at(total - length), 1.0
    else:
        t_lo, t_hi = 0.0, arc.parameter_at(length)
    kappa = hodograph.curvature(np.linspace(t_lo, t_hi, CURVATURE_SAMPLES))
    positive = kappa[~(np.abs(kappa) * length < FLAT_CURVATURE)] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1])), clamped


def count_inflections(curve: BSplineCurve, window: float, end: str = "tail") -> int:
    """Signed-curvature sign changes over an end arc of the given length.

    ``end`` picks the trailing (``"tail"``) or leading (``"head"``) arc.
    A curvature sample is flat when |kappa| times the arc's length is below
    1e-9.  A window longer than the whole curve is clamped, with a warning.
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
    curve is clamped to it, and ``window_clamped`` says so.  The
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
