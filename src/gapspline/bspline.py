"""Clamped B-spline curves on [0, 1] with a single-span Cox–de Boor evaluator.

One triangle (Piegl & Tiller, *The NURBS Book*, A2.2), one array pass per
row, builds the degree+1 basis functions not zero on t's knot span from the
2·degree knots around it, gathered by ``np.searchsorted`` for every t at once.
The final non-empty span is closed, so a curve interpolates its last control
point at t = 1.  Derivatives evaluate the hodograph, the degree-(k-1) curve
with control points k (P[i+1] - P[i]) / (t[i+k+1] - t[i+1]) on the knots
without the two end ones (de Boor, *A Practical Guide to Splines*, ch. X).

The span rows and basis values depend on the knots and t alone, and
``sample(count)`` always evaluates at linspace(0, 1, count): it keeps that
table per (knot vector, count) in a bounded memo and only gathers and sums
the control points per call, with the bits of ``point``.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

# bounds of each memo of knot-only tables: how many it keeps, and the
# largest table it keeps (sample(256) on a degree-7 curve)
MEMO_ENTRIES = 16
MEMO_TABLE_BYTES = 32 * 1024


def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_topology(degree, pieces=1) -> None:
    if not (is_integer(degree) and degree >= 1):
        raise InvalidArgument(f"degree must be an integer >= 1, got {degree!r}")
    if not (is_integer(pieces) and pieces >= 1):
        raise InvalidArgument(f"pieces must be an integer >= 1, got {pieces!r}")


def make_knot_vector(degree: int, pieces: int) -> "KnotVector":
    """Uniform clamped knot vector: 0 and 1 with multiplicity degree+1,
    interior knots j/pieces for j = 1..pieces-1.

    make_knot_vector(3, 2) -> {0,0,0,0,1/2,1,1,1,1}
    """
    check_topology(degree, pieces)
    interior = [j / pieces for j in range(1, pieces)]
    return KnotVector(tuple([0.0] * (degree + 1) + interior + [1.0] * (degree + 1)), degree)


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot vector on [0, 1] with strictly increasing interior knots."""

    knots: tuple[float, ...]
    degree: int

    def __post_init__(self):
        k = self.degree
        kn = tuple(float(t) for t in self.knots)
        object.__setattr__(self, "knots", kn)
        check_topology(k)
        if len(kn) < 2 * (k + 1):
            raise InvalidArgument(
                f"need at least {2 * (k + 1)} knots for degree {k}, got {len(kn)}"
            )
        if kn[0] != 0.0 or kn[-1] != 1.0:
            raise InvalidArgument("knot vector must span [0, 1]")
        if any(a > b for a, b in zip(kn, kn[1:])):
            raise InvalidArgument("knots must be non-decreasing")
        if kn[k] != 0.0 or kn[-k - 1] != 1.0:
            raise InvalidArgument(
                f"end knots must repeat degree+1 = {k + 1} times (clamped)"
            )
        interior = kn[k + 1 : -k - 1]
        if any(a >= b for a, b in zip(interior, interior[1:])):
            raise InvalidArgument("interior knots must be strictly increasing")
        if any(not 0.0 < t < 1.0 for t in interior):  # NaN fails too
            raise InvalidArgument("interior knots must lie strictly inside (0, 1)")
        if not np.isfinite(kn).all():  # a NaN in an end run passes every test above
            raise InvalidArgument("knots must be finite")
        # hashed once: a knot vector keys the evaluation memos on every call
        object.__setattr__(self, "_hash", hash((kn, k)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def point_count(self) -> int:
        """Number of control points a curve on this vector must have."""
        return len(self.knots) - self.degree - 1


def _triangle(kn, degree: int, t) -> np.ndarray:
    """The degree+1 basis values not zero on t's span from the 2·degree knots
    kn around it, kn[degree-1] <= t < kn[degree] (or t = 1 on the last span),
    as a (degree+1, len(t)) array.  Row r splits each of row r-1's values
    between the two functions it feeds by the knot pairs (lo, hi) around t."""
    values = np.ones((1, len(t)))
    for r in range(1, degree + 1):
        lo, hi = kn[degree - r : degree], kn[degree : degree + r]
        width = hi - lo
        left = (t - lo) / width * values
        right = (hi - t) / width * values
        values = np.concatenate([right[:1], left[:-1] + right[1:], left[-1:]])
    return values


def parameter_array(t) -> np.ndarray:
    """t, a float or an array of floats, as an array; refused unless every
    value lies in [0, 1]."""
    ts = np.asarray(t, dtype=float)
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise InvalidArgument(f"parameter {ts[outside].flat[0]} outside [0, 1]")
    return ts


def hodograph_denominators(knots: tuple[float, ...], degree: int) -> np.ndarray:
    """t[i+degree+1] - t[i+1] for each leg i of the control polygon, as a
    column."""
    return np.subtract(knots[degree + 1 : -1], knots[1 : -degree - 1])[:, None]


def hodograph(knots: tuple[float, ...], degree: int, points: np.ndarray) -> tuple:
    """(knots, degree, points) of the derivative of the curve with these
    control points: degree (P[i+1] - P[i]) / (t[i+degree+1] - t[i+1]) on the
    knots without the two end ones."""
    den = hodograph_denominators(knots, degree)
    return knots[1:-1], degree - 1, degree * np.diff(points, axis=0) / den


class TableMemo:
    """The tables ``build(*key)`` returns, tuples of arrays made read-only,
    for the ``entries`` keys used last; a table of more than ``table_bytes``
    is built and returned but not kept."""

    def __init__(self, build, entries: int, table_bytes: int):
        self.build, self.entries, self.table_bytes = build, entries, table_bytes
        self.tables = {}  # in order of last use
        self.lock = threading.Lock()

    def __call__(self, *key) -> tuple:
        with self.lock:
            table = self.tables.pop(key, None)
            if table is not None:
                self.tables[key] = table
                return table
        table = self.build(*key)
        for array in table:
            array.setflags(write=False)
        if sum(array.nbytes for array in table) <= self.table_bytes:
            with self.lock:
                self.tables[key] = table
                while len(self.tables) > self.entries:
                    del self.tables[next(iter(self.tables))]
        return table


def _span_table(knots: tuple[float, ...], degree: int, t: np.ndarray) -> tuple:
    """What evaluating at a 1-D array of t takes from the knots alone: the
    rows of the degree+1 control points each t weighs and their weights, as
    (degree+1, len(t)) and (degree+1, len(t), 1) arrays."""
    # t = 1 takes the last non-empty span
    span = np.minimum(np.searchsorted(knots, t, side="right"), len(knots) - degree - 1) - 1
    kn = np.asarray(knots)[span + np.arange(1 - degree, degree + 1)[:, None]]
    return span + np.arange(-degree, 1)[:, None], _triangle(kn, degree, t)[:, :, None]


def _combine(rows: np.ndarray, basis: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each value's degree+1 terms, summed in index order from 0.0: a fixed
    order, not through BLAS, so a value does not depend on the other
    parameters, and a -0.0 coordinate turns into 0.0."""
    return sum(basis * points[rows], 0.0)


def _sample_table(knots: KnotVector, count: int) -> tuple:
    return _span_table(knots.knots, knots.degree, np.linspace(0.0, 1.0, count))


_SAMPLE_TABLES = TableMemo(_sample_table, MEMO_ENTRIES, MEMO_TABLE_BYTES)


def _evaluate(knots: tuple[float, ...], degree: int, points: np.ndarray, t, order: int):
    """order-th derivative at t, or at each of an array of t, of the curve with
    these control points."""
    ts = parameter_array(t)
    if not (is_integer(order) and order >= 0):
        raise InvalidArgument(f"derivative order must be an integer >= 0, got {order!r}")
    shape = ts.shape + points.shape[1:]
    if order > degree:
        return np.zeros(shape)
    for _ in range(order):
        knots, degree, points = hodograph(knots, degree, points)
    return _combine(*_span_table(knots, degree, ts.ravel()), points).reshape(shape)


@dataclass(frozen=True, eq=False)
class BSplineCurve:
    """Control points over a clamped knot vector; 2D or 3D."""

    knots: KnotVector
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise InvalidArgument(f"points must be (n, 2) or (n, 3), got {pts.shape}")
        if pts.shape[0] != self.knots.point_count:
            raise InvalidArgument(
                f"knot vector wants {self.knots.point_count} control points, "
                f"got {pts.shape[0]}"
            )
        if not np.isfinite(pts).all():
            raise InvalidArgument("control points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def degree(self) -> int:
        return self.knots.degree

    def point(self, t) -> np.ndarray:
        """Curve position at t in [0, 1]; an array of t gives one row per t."""
        return _evaluate(self.knots.knots, self.degree, self.points, t, 0)

    def derivative(self, t, order: int = 1) -> np.ndarray:
        """order-th parametric derivative at t or an array of t (left limit at t = 1)."""
        return _evaluate(self.knots.knots, self.degree, self.points, t, order)

    def sample(self, count: int) -> np.ndarray:
        """(count, dim) polyline at uniform parameters including both ends."""
        if not (is_integer(count) and count >= 2):
            raise InvalidArgument(f"sample count must be an integer >= 2, got {count!r}")
        # the same bits as point(np.linspace(0.0, 1.0, count))
        return _combine(*_SAMPLE_TABLES(self.knots, count), self.points)

    def transformed(self, points: np.ndarray) -> "BSplineCurve":
        """Same knots, new control points."""
        return BSplineCurve(self.knots, points)
