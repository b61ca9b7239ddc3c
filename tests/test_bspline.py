import re

import numpy as np
import pytest

from gapspline.bspline import (
    _SAMPLE_TABLES,
    MEMO_ENTRIES,
    MEMO_TABLE_BYTES,
    BSplineCurve,
    KnotVector,
    make_knot_vector,
)
from gapspline.errors import InvalidArgument
from gapspline.formats import format_float
from gapspline.planner import signed_curvature

from conftest import insert_knot, random_knot_curves
from oracles import basis

KNOT_CASES = [
    make_knot_vector(3, 1),
    make_knot_vector(3, 2),
    make_knot_vector(4, 1),
    make_knot_vector(3, 4),
]


def test_make_knot_vector_layout():
    kv = make_knot_vector(3, 2)
    assert kv.knots == (0, 0, 0, 0, 0.5, 1, 1, 1, 1)
    assert kv.point_count == 5
    assert kv.point_count - kv.degree == 2  # pieces
    kv = make_knot_vector(4, 1)
    assert kv.knots == (0,) * 5 + (1,) * 5
    assert kv.point_count == 5


def test_knot_vector_validation():
    with pytest.raises(InvalidArgument):
        make_knot_vector(0, 1)
    with pytest.raises(InvalidArgument):
        make_knot_vector(3, 0)
    with pytest.raises(InvalidArgument):
        KnotVector((0, 0, 0, 0, 1, 1, 1), 3)  # too short
    with pytest.raises(InvalidArgument):
        KnotVector((0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1), 3)  # repeated interior
    with pytest.raises(InvalidArgument):
        KnotVector((0, 0, 0, 0.5, 1, 1, 1, 1), 3)  # not clamped
    with pytest.raises(InvalidArgument, match=r"knot vector must span \[0, 1\]"):
        KnotVector((0, 0, 0, 0, 2, 2, 2, 2), 3)
    with pytest.raises(InvalidArgument, match="knots must be non-decreasing"):
        KnotVector((0, 0, 0, 0, 0.5, 0.3, 1, 1, 1, 1), 3)


def test_degree_and_pieces_must_be_integers():
    for degree, pieces in ((2.5, 1), (3.0, 1), (True, 1), ("3", 1)):
        with pytest.raises(InvalidArgument, match="degree must be an integer >= 1"):
            make_knot_vector(degree, pieces)
    for pieces in (1.5, 1.0, True, "1"):
        with pytest.raises(InvalidArgument, match="pieces must be an integer >= 1"):
            make_knot_vector(3, pieces)
    for degree in (2.0, True):
        with pytest.raises(InvalidArgument, match="degree must be an integer >= 1"):
            KnotVector((0, 0, 0, 1, 1, 1), degree)
    assert make_knot_vector(np.int64(3), np.int32(2)) == make_knot_vector(3, 2)


def test_knot_vector_refuses_a_nan_interior_knot():
    # every ordering test is false for NaN, so only the (0, 1) check sees it
    with pytest.raises(InvalidArgument, match=r"strictly inside \(0, 1\)"):
        KnotVector((0, 0, 0, 0, float("nan"), 1, 1, 1, 1), 3)
    with pytest.raises(InvalidArgument):
        KnotVector((0, 0, 0, 0, 0.3, float("nan"), 1, 1, 1, 1), 3)


def test_knot_vector_refuses_a_knot_that_is_not_finite():
    # in an end run, a NaN passes the clamping and ordering tests
    with pytest.raises(InvalidArgument, match="knots must be finite"):
        KnotVector((0, 0, 0, 0, 1, 1, float("nan"), 1), 3)


def test_endpoint_basis_values():
    kv = make_knot_vector(3, 1)
    assert basis(kv, 0, 0.0) == 1.0
    assert basis(kv, 3, 1.0) == 1.0
    assert basis(kv, 1, 0.0) == 0.0
    assert basis(kv, 2, 1.0) == 0.0


def test_single_span_cubic_is_bernstein_at_half():
    # on {0^4, 1^4} the cubic basis collapses to Bernstein polynomials
    kv = make_knot_vector(3, 1)
    values = [basis(kv, i, 0.5) for i in range(4)]
    np.testing.assert_allclose(values, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-15)


@pytest.mark.parametrize("kv", KNOT_CASES, ids=lambda kv: f"deg{kv.degree}x{kv.point_count - kv.degree}")
def test_partition_of_unity_and_nonnegativity(kv):
    rng = np.random.default_rng(42)
    ts = rng.uniform(0.0, 1.0, size=250)
    vals = np.array([basis(kv, i, ts) for i in range(kv.point_count)])
    assert (abs(vals.sum(axis=0) - 1.0) < 1e-12).all()
    assert (vals >= 0.0).all()


@pytest.mark.parametrize("kv", KNOT_CASES, ids=lambda kv: f"deg{kv.degree}x{kv.point_count - kv.degree}")
def test_local_support(kv):
    rng = np.random.default_rng(7)
    kn = kv.knots
    for t in rng.uniform(0.0, 1.0, size=60):
        for i in range(kv.point_count):
            if not kn[i] <= t <= kn[i + kv.degree + 1]:
                assert basis(kv, i, float(t)) == 0.0


def test_curve_endpoint_interpolation():
    pts = [(0.0, 0.0), (1.0, 4.0), (2.0, 1.0), (4.0, 3.0)]
    c = BSplineCurve(make_knot_vector(3, 1), pts)
    np.testing.assert_allclose(c.point(0.0), pts[0], atol=1e-15)
    np.testing.assert_allclose(c.point(1.0), pts[-1], atol=1e-15)


def test_curve_midpoint_value():
    c = BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 4), (2, 1), (4, 3)])
    expected = (np.array([1, 4]) * 3 + np.array([2, 1]) * 3 + np.array([4, 3])) / 8.0
    np.testing.assert_allclose(c.point(0.5), expected, atol=1e-14)


def test_two_piece_continuity_at_interior_knot():
    rng = np.random.default_rng(3)
    c = BSplineCurve(make_knot_vector(3, 2), rng.normal(size=(5, 2)))
    eps = 1e-12
    left = c.point(0.5 - eps)
    right = c.point(0.5 + eps)
    np.testing.assert_allclose(left, right, atol=1e-10)
    np.testing.assert_allclose(c.point(0.5), right, atol=1e-10)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(11)
    c = BSplineCurve(make_knot_vector(3, 2), rng.normal(size=(5, 3)))
    h = 1e-7
    for t in (0.2, 0.41, 0.73):
        fd = (c.point(t + h) - c.point(t - h)) / (2 * h)
        np.testing.assert_allclose(c.derivative(t, 1), fd, rtol=1e-5, atol=1e-7)
    # second derivative: larger step, the second difference cancels badly
    h2 = 1e-5
    for t in (0.3, 0.66):
        fd2 = (c.point(t + h2) - 2 * c.point(t) + c.point(t - h2)) / h2**2
        np.testing.assert_allclose(c.derivative(t, 2), fd2, rtol=1e-4, atol=1e-4)


def test_end_tangents_are_polygon_legs_and_parallel_to_derivative():
    c = BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 4), (2, 1), (4, 3)])
    t0, t1 = c.points[1] - c.points[0], c.points[-1] - c.points[-2]
    np.testing.assert_allclose(t0, (1, 4))
    np.testing.assert_allclose(t1, (2, 2))
    d0 = c.derivative(1e-6)
    d1 = c.derivative(1.0 - 1e-6)
    for leg, d in ((t0, d0), (t1, d1)):
        cosang = (leg @ d) / (np.linalg.norm(leg) * np.linalg.norm(d))
        assert cosang > 1.0 - 1e-4


def test_sample_polyline():
    c = BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 4), (2, 1), (4, 3)])
    two = c.sample(2)
    np.testing.assert_allclose(two, [(0, 0), (4, 3)])
    many = c.sample(101)
    assert many.shape == (101, 2)
    np.testing.assert_allclose(many[0], (0, 0))
    np.testing.assert_allclose(many[-1], (4, 3))
    with pytest.raises(InvalidArgument):
        c.sample(1)


def test_straight_polygon_samples_collinear():
    c = BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 1), (2, 2), (3, 3)])
    pts = c.sample(17)
    cross = pts[:, 0] * 1.0 - pts[:, 1] * 1.0  # on y = x
    np.testing.assert_allclose(cross, 0.0, atol=1e-12)


def test_point_count_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InvalidArgument):
        BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 1), (2, 2), (np.nan, 3)])
    for points in (np.zeros(4), np.zeros((4, 1)), np.zeros((4, 4)), np.zeros((4, 2, 1))):
        with pytest.raises(InvalidArgument, match=r"points must be \(n, 2\) or \(n, 3\)"):
            BSplineCurve(make_knot_vector(3, 1), points)


def test_parameter_and_index_range_errors():
    kv = make_knot_vector(3, 1)
    c = BSplineCurve(kv, [(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(InvalidArgument):
        c.point(1.5)
    with pytest.raises(InvalidArgument):
        c.derivative(1.5)
    with pytest.raises(InvalidArgument):
        c.point(-0.1)
    with pytest.raises(InvalidArgument):
        c.point([0.5, 1.0 + 1e-12])
    with pytest.raises(InvalidArgument):
        c.derivative(0.5, -1)


# ------------------------------------------------- the evaluator vs references


def _reference_basis(knots, i, r, t):
    """The textbook two-term recursion, with the final non-empty span closed."""
    if r == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == knots[-1] and knots[i + 1] == knots[-1] and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    value = 0.0
    den = knots[i + r] - knots[i]
    if den > 0.0:
        value += (t - knots[i]) / den * _reference_basis(knots, i, r - 1, t)
    den = knots[i + r + 1] - knots[i + 1]
    if den > 0.0:
        value += (knots[i + r + 1] - t) / den * _reference_basis(knots, i + 1, r - 1, t)
    return value


def _reference_basis_derivative(knots, i, r, t, order):
    """Derivative by differentiating the recursion term by term."""
    if order == 0:
        return _reference_basis(knots, i, r, t)
    if r == 0:
        return 0.0
    value = 0.0
    den = knots[i + r] - knots[i]
    if den > 0.0:
        value += r / den * _reference_basis_derivative(knots, i, r - 1, t, order - 1)
    den = knots[i + r + 1] - knots[i + 1]
    if den > 0.0:
        value -= r / den * _reference_basis_derivative(knots, i + 1, r - 1, t, order - 1)
    return value


def _knot_vectors():
    """Uniform and random clamped knot vectors, degrees 1-5, 1-7 pieces."""
    rng = np.random.default_rng(5)
    for degree in range(1, 6):
        for pieces in range(1, 8):
            yield make_knot_vector(degree, pieces)
            interior = tuple(np.sort(rng.uniform(0.02, 0.98, pieces - 1)))
            yield KnotVector((0.0,) * (degree + 1) + interior + (1.0,) * (degree + 1), degree)


def _parameters(kv, rng, count):
    return [float(t) for t in rng.uniform(0.0, 1.0, count)] + sorted(set(kv.knots))


def test_basis_equals_the_textbook_recursion_bit_for_bit():
    rng = np.random.default_rng(17)
    for kv in _knot_vectors():
        ts = _parameters(kv, rng, 8)
        for i in range(kv.point_count):
            want = [_reference_basis(kv.knots, i, kv.degree, t) for t in ts]
            assert basis(kv, i, np.array(ts)).tolist() == want


def test_basis_derivative_matches_the_differentiated_recursion():
    rng = np.random.default_rng(19)
    for kv in list(_knot_vectors())[::3]:
        for t in _parameters(kv, rng, 3):
            for order in range(1, kv.degree + 2):
                got = [basis(kv, i, t, order) for i in range(kv.point_count)]
                want = [
                    _reference_basis_derivative(kv.knots, i, kv.degree, t, order)
                    for i in range(kv.point_count)
                ]
                scale = max(1.0, max(abs(w) for w in want))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_knot_insertion_leaves_points_and_derivatives_unchanged():
    rng = np.random.default_rng(23)
    for kv in list(_knot_vectors())[::2]:
        curve = BSplineCurve(kv, rng.normal(size=(kv.point_count, 2)))
        refined = curve
        for u in rng.uniform(0.05, 0.95, 3):
            if u not in refined.knots.knots:
                refined = insert_knot(refined, float(u))
        ts = np.array(_parameters(kv, rng, 40))
        for order in range(4):
            want = curve.derivative(ts, order)
            scale = max(1.0, np.abs(want).max())
            got = refined.derivative(ts, order)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_array_calls_equal_scalar_calls_exactly():
    rng = np.random.default_rng(29)
    kv = KnotVector((0, 0, 0, 0, 0.2, 0.45, 0.7, 1, 1, 1, 1), 3)
    curve = BSplineCurve(kv, rng.normal(size=(kv.point_count, 2)))
    ts = np.linspace(0.0, 1.0, 57)
    samples = curve.sample(57)
    kappa = signed_curvature(curve, ts)
    assert isinstance(signed_curvature(curve, 0.3), float)
    for order in (1, 2, 3):
        rows = curve.derivative(ts, order)
        assert all((rows[a] == curve.derivative(ts[a], order)).all() for a in range(len(ts)))
    for a, t in enumerate(ts):
        assert (samples[a] == curve.point(t)).all()
        assert kappa[a] == signed_curvature(curve, t)
    # every knot vector, every knot, 0 and 1, orders 0 to one past the degree
    # (order == degree is the degree-0 hodograph, a triangle of one value)
    for kv in _knot_vectors():
        ts = np.array(_parameters(kv, rng, 3))
        for dim in (2, 3):
            curve = BSplineCurve(kv, rng.normal(size=(kv.point_count, dim)))
            for order in range(kv.degree + 2):
                rows = curve.derivative(ts, order)
                assert rows.shape == (len(ts), dim)
                for a, t in enumerate(ts.tolist()):
                    one = curve.derivative(t, order)
                    assert one.shape == (dim,)
                    assert (rows[a] == one).all()


def test_highest_derivative_is_right_continuous_and_a_left_limit_at_one():
    rng = np.random.default_rng(31)
    curve = BSplineCurve(make_knot_vector(3, 2), rng.normal(size=(5, 2)))
    # a cubic's third forward difference is h^3 times its constant third derivative
    def piece_constant(t0, h=0.1):
        return np.diff(curve.point(t0 + h * np.arange(4)), n=3, axis=0)[0] / h**3

    left, right = piece_constant(0.05), piece_constant(0.55)
    assert np.abs(left - right).min() > 1e-3
    np.testing.assert_allclose(curve.derivative(0.5, 3), right, rtol=1e-9)
    np.testing.assert_allclose(curve.derivative(1.0, 3), right, rtol=1e-9)
    np.testing.assert_allclose(curve.derivative(0.25, 3), left, rtol=1e-9)


def test_derivative_order_above_degree_is_zero():
    rng = np.random.default_rng(37)
    for degree in (1, 3):
        kv = make_knot_vector(degree, 2)
        curve = BSplineCurve(kv, rng.normal(size=(kv.point_count, 3)))
        ts = np.linspace(0.0, 1.0, 9)
        assert (curve.derivative(ts, degree + 1) == 0.0).all()
        assert curve.derivative(ts, degree + 1).shape == (9, 3)
        assert basis(kv, 1, 0.5, degree + 1) == 0.0


def test_sample_count_and_derivative_order_must_be_integers():
    c = BSplineCurve(make_knot_vector(3, 1), [(0, 0), (1, 1), (2, 2), (3, 3)])
    for count in (2.5, 3.0, True, "3"):
        with pytest.raises(InvalidArgument, match="sample count must be an integer >= 2"):
            c.sample(count)
    for order in (1.5, 1.0, True, "1"):
        with pytest.raises(InvalidArgument, match="derivative order must be an integer >= 0"):
            c.derivative(0.5, order)
    assert c.sample(np.int64(3)).shape == (3, 2)
    assert (c.derivative(0.5, np.int32(1)) == c.derivative(0.5, 1)).all()


def test_a_negative_zero_coordinate_evaluates_to_positive_zero():
    # every term of the sum at t = 0 is -0.0; the sum starts from 0.0
    c = BSplineCurve(make_knot_vector(3, 1), [(-0.0, -1), (-1, -1), (-2, -1), (-3, -1)])
    assert format_float(c.point(0.0)[0]) == "0"
    assert format_float(c.sample(2)[0, 0]) == "0"


def test_empty_and_two_dimensional_parameter_arrays_keep_their_shape():
    rng = np.random.default_rng(41)
    for kv in KNOT_CASES:
        for dim in (2, 3):
            c = BSplineCurve(kv, rng.normal(size=(kv.point_count, dim)))
            ts = rng.uniform(0.0, 1.0, (2, 3))
            for order in range(kv.degree + 2):
                assert c.derivative(np.array([]), order).shape == (0, dim)
                assert c.derivative(np.zeros((2, 0)), order).shape == (2, 0, dim)
                rows = c.derivative(ts, order)
                assert rows.shape == (2, 3, dim)
                assert (rows.reshape(6, dim) == c.derivative(ts.ravel(), order)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_refused(bad):
    c = BSplineCurve(make_knot_vector(3, 2), np.arange(10.0).reshape(5, 2))
    message = f"parameter {bad} outside [0, 1]"
    for t in (bad, [0.5, bad], [[0.0], [bad]]):
        for order in (0, 1, 4):
            with pytest.raises(InvalidArgument, match=re.escape(message)):
                c.derivative(t, order)
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        c.point(bad)


def _bits(values):
    return values.view(np.int64)


@pytest.mark.parametrize("count", [2, 101, 256])
def test_sample_is_point_bit_for_bit_on_a_cold_and_a_warm_memo(count):
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, count)
    for curve in random_knot_curves(rng):
        _SAMPLE_TABLES.tables.clear()
        want = _bits(curve.point(ts))
        assert (_bits(curve.sample(count)) == want).all()  # cold
        assert (curve.knots, count) in _SAMPLE_TABLES.tables
        assert (_bits(curve.sample(count)) == want).all()  # warm
        # the memo keeps the knots' part only: other points, same knots
        other = curve.transformed(rng.normal(size=curve.points.shape))
        assert (_bits(other.sample(count)) == _bits(other.point(ts))).all()


def test_knot_vectors_equal_under_eq_share_one_entry_and_its_bits():
    rng = np.random.default_rng(37)
    knots = (0.0, 0.0, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0, 1.0)
    positive, negative = KnotVector(knots, 3), KnotVector((-0.0,) + knots[1:], 3)
    assert positive == negative and np.signbit(negative.knots[0])
    points = rng.normal(size=(positive.point_count, 2))
    want = _bits(BSplineCurve(positive, points).point(np.linspace(0.0, 1.0, 101)))
    for order in ((positive, negative), (negative, positive)):
        _SAMPLE_TABLES.tables.clear()
        for kv in order:
            assert (_bits(BSplineCurve(kv, points).sample(101)) == want).all()
        assert len(_SAMPLE_TABLES.tables) == 1


def test_memo_tables_are_read_only():
    BSplineCurve(make_knot_vector(3, 2), np.zeros((5, 2))).sample(101)
    for table in _SAMPLE_TABLES.tables.values():
        for array in table:
            with pytest.raises(ValueError):
                array[...] = 0


def test_memo_keeps_at_most_its_entries_and_drops_the_least_recently_used():
    _SAMPLE_TABLES.tables.clear()
    vectors = [
        KnotVector((0.0,) * 4 + ((i + 1) / (MEMO_ENTRIES + 7),) + (1.0,) * 4, 3)
        for i in range(MEMO_ENTRIES + 5)
    ]
    first = BSplineCurve(vectors[0], np.zeros((5, 2)))
    for kv in vectors:
        first.sample(2)  # kept in use, so never the one dropped
        BSplineCurve(kv, np.zeros((5, 2))).sample(2)
        assert len(_SAMPLE_TABLES.tables) <= MEMO_ENTRIES
    assert len(_SAMPLE_TABLES.tables) == MEMO_ENTRIES
    assert (vectors[0], 2) in _SAMPLE_TABLES.tables
    assert (vectors[1], 2) not in _SAMPLE_TABLES.tables


def test_a_sample_above_the_table_bound_is_computed_but_not_kept():
    rng = np.random.default_rng(41)
    curve = BSplineCurve(make_knot_vector(3, 4), rng.normal(size=(7, 2)))
    largest = MEMO_TABLE_BYTES // (4 * 16)  # a weight and a row index per term
    _SAMPLE_TABLES.tables.clear()
    for count in (largest + 1, largest):
        want = _bits(curve.point(np.linspace(0.0, 1.0, count)))
        assert (_bits(curve.sample(count)) == want).all()
    assert list(_SAMPLE_TABLES.tables) == [(curve.knots, largest)]
