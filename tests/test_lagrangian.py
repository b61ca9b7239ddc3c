import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import L_EX1, L_EX2, L_EX3, L_PLANNER, random_rotation
from oracles import _cross, el_gradient, level_adjoint_gradient
from gapspline.bspline import BSplineCurve, make_knot_vector
from gapspline import lagrangian
from gapspline.errors import DslSyntaxError, DslTypeError, InvalidArgument
from gapspline.lagrangian import (
    MAX_DEGREE,
    Diff,
    Dot,
    Number,
    Product,
    Sum,
    Trip,
    _skew,
    compile_jet,
    degree,
    eval_lagrangian,
    format_lagrangian,
    grad_lagrangian,
    leaf_maps,
    leaf_point_span,
    parse_lagrangian,
    validate_lagrangian,
)
from gapspline.system import Scene, build_layout, normalize_scene

EX1_LEFT = np.array([(0.0, 0.0), (1.0, 4.0), (2.0, 1.0), (4.0, 3.0)])


# ---------------------------------------------------------------- difference table


def _leaf_values(text, points, first_index=1):
    """Each distinct leaf's vector on the points, keyed by (order, index)."""
    slot, b, _ = leaf_maps(parse_lagrangian(text), points, np.zeros((0,) + points.shape), first_index)
    return {key: b[k] for key, k in slot.items()}


def test_difference_table_levels():
    values = _leaf_values("dot(D1(1),D2(1)) + dot(D2(2),D2(2))", EX1_LEFT)
    np.testing.assert_array_equal(values[1, 1], (1, 4))
    np.testing.assert_array_equal(values[2, 1], (0, -7))
    np.testing.assert_array_equal(values[2, 2], (1, 5))
    # the same leaves, read through the Lagrangian's value
    assert eval_lagrangian(parse_lagrangian("dot(D1(1),D2(1))"), EX1_LEFT) == -28.0
    assert eval_lagrangian(parse_lagrangian("dot(D2(2),D2(2))"), EX1_LEFT) == 26.0


def test_difference_table_first_index_offsets():
    values = _leaf_values("dot(D2(-2),D2(-1))", EX1_LEFT, first_index=-2)
    np.testing.assert_array_equal(values[2, -2], (0, -7))
    assert eval_lagrangian(parse_lagrangian("dot(D2(-2),D2(-1))"), EX1_LEFT, -2) == -35.0
    # D2(0) reads points 0..2, past the last point, index 1
    with pytest.raises(InvalidArgument, match=r"reads points 0\.\.2, but the scene only provides -2\.\.1"):
        eval_lagrangian(parse_lagrangian("dot(D2(0),D2(0))"), EX1_LEFT, -2)


def test_collinear_equispaced_second_differences_vanish():
    pts = np.array([(i, 2.0 * i) for i in range(5)], dtype=float)
    values = _leaf_values("dot(D2(1),D2(2)) + dot(D2(3),D2(3))", pts)
    np.testing.assert_array_equal(np.array(list(values.values())), 0.0)


def test_leaf_maps_differences_each_order_once():
    # one np.diff of the offset and one of the basis per distinct order, not
    # per distinct leaf: L_EX3 reads orders 2 and 3, L_PLANNER order 2 only
    rng = np.random.default_rng(5)
    offset, basis = rng.normal(size=(13, 3)), rng.normal(size=(8, 13, 3))
    for text, calls in ((L_EX3, 4), (L_PLANNER, 2)):
        with mock.patch.object(np, "diff", wraps=np.diff) as diff:
            leaf_maps(parse_lagrangian(text), offset, basis, -3)
        assert diff.call_count == calls


def test_points_must_be_a_2d_or_3d_sequence():
    e = parse_lagrangian("dot(D1(1),D1(1))")
    for points in (np.zeros(4), np.zeros((4, 4)), np.zeros((2, 4, 2))):
        with pytest.raises(InvalidArgument, match=r"points must be \(n, 2\) or \(n, 3\)"):
            eval_lagrangian(e, points)
        with pytest.raises(InvalidArgument, match=r"points must be \(n, 2\) or \(n, 3\)"):
            grad_lagrangian(e, points, [1])
        with pytest.raises(InvalidArgument, match=r"points must be \(n, 2\) or \(n, 3\)"):
            el_gradient(e, points)
    # a nested list is a point sequence too
    assert eval_lagrangian(e, EX1_LEFT.tolist()) == 17.0


# ---------------------------------------------------------------- parser


def test_parse_example_lagrangians():
    assert parse_lagrangian(L_EX1) == Dot(Diff(2, 1), Diff(2, 2))
    assert parse_lagrangian(L_EX3) == Sum(
        (Trip(Diff(2, 1), Diff(2, 2), Diff(2, 3)), Dot(Diff(3, 1), Diff(3, 2)))
    )
    assert parse_lagrangian(L_PLANNER) == Product(
        (Dot(Diff(2, 1), Diff(2, 2)), Dot(Diff(2, 2), Diff(2, 3)))
    )


def test_parse_numbers_whitespace_negative_indices():
    e = parse_lagrangian(" 2.5 * dot( D1(-2) , D1(0) ) + 1e-3 ")
    assert e == Sum((Product((Number(2.5), Dot(Diff(1, -2), Diff(1, 0)))), Number(0.001)))


def test_syntax_errors_carry_byte_offsets():
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("dot(D2(1),D2(2)")
    assert err.value.offset == len("dot(D2(1),D2(2)")
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("dot(D2(1)  D2(2))")
    assert err.value.offset == 11
    with pytest.raises(DslSyntaxError):
        parse_lagrangian("")
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("dot(D2(1),D2(2)))")
    assert err.value.offset == 16


def test_syntax_error_offsets_count_utf8_bytes():
    # a no-break space is whitespace to the parser and two bytes in UTF-8
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("\u00a0\u00a0dot(D2(1),D2(2))*?")
    assert err.value.offset == 21 == len("\u00a0\u00a0dot(D2(1),D2(2))*".encode())
    assert "(byte offset 21)" in str(err.value)
    # in ASCII text a byte is a character, so the offsets are unchanged
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("  dot(D2(1),D2(2))*?")
    assert err.value.offset == 19
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("\u00a0dot(D4(1),D1(2))")
    assert err.value.offset == 6


def test_difference_order_limited_to_three():
    with pytest.raises(DslSyntaxError) as err:
        parse_lagrangian("dot(D4(1),D1(2))")
    assert err.value.offset == 4
    with pytest.raises(DslSyntaxError):
        parse_lagrangian("dot(D0(1),D1(2))")


def test_printer_round_trip():
    for text in [L_EX1, L_EX2, L_EX3, L_PLANNER,
                 "2.0*(dot(D1(1),D1(1)) + 3.5)*dot(D2(0),D2(0))",
                 # a nested product, which must not print flat
                 "(dot(D1(1),D1(2))*dot(D1(1),D1(2)))*dot(D1(1),D1(2))"]:
        e = parse_lagrangian(text)
        assert parse_lagrangian(format_lagrangian(e)) == e


def test_overflowing_number_is_a_syntax_error():
    for text, offset in [("1e400*dot(D2(1),D2(2))", 0), ("dot(D2(1),D2(2)) + -1e309", 19)]:
        with pytest.raises(DslSyntaxError) as err:
            parse_lagrangian(text)
        assert err.value.offset == offset
    # underflow to zero is a finite number and stays accepted
    assert parse_lagrangian("1e-400") == Number(0.0)


def _number_text(exponents):
    return st.builds(
        "{}{}{}{}".format,
        st.sampled_from(["", "-"]),
        st.integers(0, 999),
        st.sampled_from(["", ".5", ".25", ".001"]),
        st.sampled_from(exponents),
    )


_VEC_TEXT = st.builds(lambda order, index: f"D{order}({index})", st.integers(1, 3), st.integers(-3, 6))


def _grammar_text(number):
    """Lagrangian texts drawn from the grammar in the module docstring."""
    atom = st.one_of(
        number,
        st.builds(lambda a, b: f"dot({a},{b})", _VEC_TEXT, _VEC_TEXT),
        st.builds(lambda a, b, c: f"trip({a},{b},{c})", _VEC_TEXT, _VEC_TEXT, _VEC_TEXT),
    )

    def compound(inner):
        factor = st.one_of(atom, inner.map(lambda text: f"({text})"))
        term = st.lists(factor, min_size=1, max_size=3).map("*".join)
        return st.lists(term, min_size=1, max_size=3).map(" + ".join)

    return st.recursive(atom, compound, max_leaves=12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_grammar_text(_number_text(["", "e3", "E-2", "e+12", "e-300"])))
def test_printer_round_trips_grammar_texts(text):
    e = parse_lagrangian(text)
    assert parse_lagrangian(format_lagrangian(e)) == e


def test_trip_requires_3d():
    e = parse_lagrangian(L_EX3)
    with pytest.raises(DslTypeError):
        validate_lagrangian(e, 2)
    validate_lagrangian(e, 3)
    with pytest.raises(DslTypeError):
        eval_lagrangian(e, np.zeros((6, 2)))


def test_leaf_point_span():
    assert leaf_point_span(parse_lagrangian(L_EX1)) == (1, 4)
    assert leaf_point_span(parse_lagrangian(L_EX2)) == (1, 4)
    assert leaf_point_span(parse_lagrangian("dot(D3(-1),D2(5))")) == (-1, 7)
    with pytest.raises(DslTypeError):
        leaf_point_span(Number(3.0))


# ---------------------------------------------------------------- eval


def test_eval_example1_oracle():
    # p1^2 = (0,-7), p2^2 = (1,5) -> dot = -35
    assert eval_lagrangian(parse_lagrangian(L_EX1), EX1_LEFT) == pytest.approx(-35.0)


def test_eval_zero_on_collinear_for_order2_leaves():
    pts = np.array([(i, 3.0 * i) for i in range(5)], dtype=float)
    assert eval_lagrangian(parse_lagrangian(L_EX1), pts) == pytest.approx(0.0, abs=1e-14)


def test_degenerate_triple_product_is_zero():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(6, 3))
    e = parse_lagrangian("trip(D2(1),D2(1),D2(3))")
    assert eval_lagrangian(e, pts) == pytest.approx(0.0, abs=1e-12)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


# signed zeros, infinities, NaNs of both signs and with a payload, subnormals
_SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, 1.5, -3.0, 1e300]
    + list(np.array([0x7FF8000000000123, -0x0007FFFFFFFFFEDD], dtype=np.int64).view(float))
)


def test_cross_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(6)
    special = rng.choice(_SPECIAL, size=(2, 60000, 3))
    spread = rng.normal(size=(2, 60000, 3)) * 10.0 ** rng.integers(-200, 200, size=(2, 60000, 3))
    with np.errstate(all="ignore"):
        for a, b in (special, spread, spread[:, :12].reshape(2, 4, 1, 3, 3), spread[:, 0]):
            np.testing.assert_array_equal(_bits(_cross(a, b)), _bits(np.cross(a, b)))


def test_skew_is_the_cross_product_matrix():
    rng = np.random.default_rng(7)
    v = rng.choice(_SPECIAL, size=(5000, 3))
    x, y, z = v.T
    o = np.zeros(len(v))
    rows = ([o, -z, y], [z, o, -x], [-y, x, o])
    expected = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    np.testing.assert_array_equal(_bits(_skew(v)), _bits(expected))
    # matmul adds the diagonal's 0 * w and may fuse a multiply-add, so the
    # product equals v x w exactly where every product and sum is exact
    v, w = rng.integers(-1000, 1000, size=(2, 5000, 3)).astype(float)
    np.testing.assert_array_equal((_skew(v) @ w[..., None])[..., 0], np.cross(v, w))
    np.testing.assert_array_equal(_skew(v[0]) @ w[0], np.cross(v[0], w[0]))


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(9)
    for text, dim in [(L_EX1, 2), (L_EX2, 2), (L_PLANNER, 2), (L_EX3, 3), (L_EX1, 3)]:
        e = parse_lagrangian(text)
        pts = rng.normal(size=(7, dim))
        base = eval_lagrangian(e, pts)
        shifted = pts + rng.normal(size=dim)
        assert eval_lagrangian(e, shifted) == pytest.approx(base, abs=1e-12 * max(1, abs(base)))
        rot = random_rotation(rng, dim)
        assert eval_lagrangian(e, pts @ rot.T) == pytest.approx(base, abs=1e-10 * max(1, abs(base)))


# ---------------------------------------------------------------- gradient


def _fd_gradient(e, pts, first_index, free, h=1e-6):
    rows = []
    for idx in free:
        pos = idx - first_index
        row = []
        for c in range(pts.shape[1]):
            up = pts.copy()
            up[pos, c] += h
            down = pts.copy()
            down[pos, c] -= h
            lo = eval_lagrangian(e, down, first_index)
            hi = eval_lagrangian(e, up, first_index)
            row.append((hi - lo) / (2 * h))
        rows.append(row)
    return np.array(rows)


def test_simple_quadratic_gradient():
    # L = |p2 - p1|^2, gradient at p2 is 2(p2 - p1)
    pts = np.array([(1.0, 2.0), (4.0, -1.0)])
    e = parse_lagrangian("dot(D1(1),D1(1))")
    g = grad_lagrangian(e, pts, [2])
    np.testing.assert_allclose(g[0], 2 * (pts[1] - pts[0]), atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    cases = [(L_EX1, 2), (L_EX2, 2), (L_PLANNER, 2), (L_EX3, 3)]
    for text, dim in cases:
        e = parse_lagrangian(text)
        for _ in range(25):
            pts = rng.normal(size=(8, dim))
            first = -2
            free = list(range(first, first + 8))
            exact = grad_lagrangian(e, pts, free, first)
            approx = _fd_gradient(e, pts, first, free)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() / scale < 1e-6


def test_constant_lagrangian_has_zero_gradient():
    g = grad_lagrangian(parse_lagrangian("3.0"), EX1_LEFT, [2, 3])
    np.testing.assert_allclose(g, 0.0, atol=1e-15)
    g = grad_lagrangian(parse_lagrangian("3.0 + 2.0*dot(D2(1),D2(1))*0.0"), EX1_LEFT, [2, 3])
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


# number literals stay within 1e3, so the tolerance does not measure cancellation
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_grammar_text(_number_text(["", "E-2", "e-300"])), st.integers(0, 2**32 - 1))
def test_gradient_routes_agree_on_grammar_texts(text, seed):
    e = parse_lagrangian(text)
    # leaves D1..D3 at indices -3..6 read base points -3..9
    points = np.random.default_rng(seed).normal(size=(13, 3))
    free = list(range(-3, 10))
    g = grad_lagrangian(e, points, free, -3)
    bound = 1e-9 * max(1.0, float(np.max(np.abs(g))))
    np.testing.assert_allclose(el_gradient(e, points, -3), g, rtol=0, atol=bound)
    np.testing.assert_allclose(level_adjoint_gradient(e, points, free, -3), g, rtol=0, atol=bound)


def test_gradient_rejects_empty_free_set():
    with pytest.raises(InvalidArgument):
        grad_lagrangian(parse_lagrangian(L_EX1), EX1_LEFT, [])


def test_table_routes_share_the_leaf_range_check():
    # EX1_LEFT has points 1..4; D2(2) reads 2..4 and D2(3) reads 3..5
    e = parse_lagrangian("dot(D2(1),D2(3))")
    message = r"reads points 1\.\.5, but the scene only provides 1\.\.4"
    routes = (
        lambda: eval_lagrangian(e, EX1_LEFT),
        lambda: grad_lagrangian(e, EX1_LEFT, [2]),
        lambda: el_gradient(e, EX1_LEFT),
        lambda: level_adjoint_gradient(e, EX1_LEFT, [2]),
    )
    for route in routes:
        with pytest.raises(InvalidArgument, match=message):
            route()
    with pytest.raises(InvalidArgument, match=r"free index 5 outside the points 1\.\.4"):
        grad_lagrangian(parse_lagrangian(L_EX1), EX1_LEFT, [2, 5])


def test_point_indices_must_be_integers():
    e = parse_lagrangian(L_EX1)
    for first_index in ("1", 1.0, True, np.float64(1.0)):
        with pytest.raises(InvalidArgument, match="first_index must be an integer"):
            eval_lagrangian(e, EX1_LEFT, first_index=first_index)
        with pytest.raises(InvalidArgument, match="first_index must be an integer"):
            grad_lagrangian(e, EX1_LEFT, [2], first_index=first_index)
    for index in (2.0, True, "2", None):
        with pytest.raises(InvalidArgument, match="free index must be an integer"):
            grad_lagrangian(e, EX1_LEFT, [2, index])
    # numpy integers are integers
    assert eval_lagrangian(e, EX1_LEFT, first_index=np.int64(1)) == eval_lagrangian(e, EX1_LEFT)
    np.testing.assert_array_equal(
        grad_lagrangian(e, EX1_LEFT, np.array([2, 3])), grad_lagrangian(e, EX1_LEFT, [2, 3])
    )


def test_third_differences_agree_across_routes_on_five_points():
    # D3(2) reads points 2..5, the last of five
    e = parse_lagrangian("dot(D3(1),D3(2))")
    points = np.random.default_rng(8).normal(size=(5, 2))
    value = eval_lagrangian(e, points)
    d3 = np.diff(points, 3, axis=0)
    assert value == pytest.approx(float(d3[0] @ d3[1]), rel=1e-12)
    g = grad_lagrangian(e, points, range(1, 6))
    np.testing.assert_allclose(el_gradient(e, points), g, rtol=0, atol=1e-12 * np.abs(g).max())
    np.testing.assert_allclose(_fd_gradient(e, points, 1, range(1, 6)), g, rtol=0, atol=1e-6 * np.abs(g).max())


# ---------------------------------------------------------------- jet


def _leaf_system(text, rng, pieces=3):
    """The Lagrangian and its leaf maps in a 3D system of 3 * pieces - 1
    unknowns, over base points -3..pieces + 6: -3..9 by default, the range
    of _VEC_TEXT."""
    # five left points put q1 at index 1 and the first at -3; a connecting
    # curve of pieces + 3 points and four right points end at pieces + 6
    left = BSplineCurve(make_knot_vector(3, 2), rng.normal(size=(5, 3)))
    right = BSplineCurve(make_knot_vector(3, 1), rng.normal(size=(4, 3)) + (6.0, 0.0, 0.0))
    layout = build_layout(normalize_scene(Scene(left, right, 3, pieces)))
    assert layout.first_index == -3 and layout.unknown_count == 3 * pieces - 1
    offset, basis = layout.sequence_map()
    e = parse_lagrangian(text)
    return (e, *leaf_maps(e, offset, basis, layout.first_index))


def _jet_routes(text, seed, rows=4, pieces=3):
    """The compiled jet and the closure oracle at ``rows`` random u of
    :func:`_leaf_system`, and a bound on the rows' sizes."""
    rng = np.random.default_rng(seed)
    e, slot, b, A = _leaf_system(text, rng, pieces)
    m = A.shape[-1]
    u = rng.normal(size=(rows, m))
    linear = (A @ u[..., None, :, None])[..., 0]
    shapes = [(rows,), (rows, m), (rows, m, m)]  # a constant part comes unbroadcast
    jets = [
        [np.broadcast_to(part, shape) for part, shape in zip(jet, shapes)]
        for jet in (compile_jet(e, slot, b, A)(u), oracles.compile_jet(e, slot, A)(b + linear))
    ]
    # a bound on each leaf b + A u and on its derivatives, row by row
    lengths = np.linalg.norm(b, axis=-1) + np.linalg.norm(A, axis=(1, 2)) * (
        1.0 + np.linalg.norm(u, axis=-1, keepdims=True)
    )
    return jets + [np.broadcast_to(_size(e, slot, lengths), (rows,))]


def _size(node, slot, lengths):
    """A bound on the Lagrangian and its derivatives were none of its terms
    to cancel: each dot or trip as the product of its legs' bounds, numbers
    by their magnitude.  Expanding into coefficients rounds on this scale,
    whatever the cancellation leaves of the value."""
    if isinstance(node, Number):
        return abs(node.value)
    if isinstance(node, (Dot, Trip)):
        legs = (node.left, node.right) if isinstance(node, Dot) else (node.left, node.middle, node.right)
        return reduce(np.multiply, [lengths[..., slot[d.order, d.index]] for d in legs])
    if isinstance(node, Sum):
        return reduce(np.add, [_size(t, slot, lengths) for t in node.terms])
    return reduce(np.multiply, [_size(f, slot, lengths) for f in node.factors])


def _assert_jets_agree(expanded, expected, size, rtol=1e-12):
    value, grad, hess = expanded
    np.testing.assert_array_equal(hess, np.swapaxes(hess, -1, -2))
    # relative to the rows' sizes, where u and the leaf maps are of order one
    scale = np.maximum(1.0, size)
    for found, wanted in zip(expanded, expected):
        error = np.abs(found - wanted).reshape(len(scale), -1).max(axis=-1)
        assert (error <= rtol * scale).all(), (error / scale).max()


# number literals stay within 1e3, as for the gradient routes
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_grammar_text(_number_text(["", "E-2", "e-300"])), st.integers(0, 2**32 - 1))
def test_expanded_jet_matches_the_closure_oracle_on_grammar_texts(text, seed):
    _assert_jets_agree(*_jet_routes(text, seed))


@pytest.mark.parametrize(
    "text",
    [
        "dot(D2(1),D2(2))*dot(D2(2),D2(3))*dot(D1(0),D3(1))",
        "trip(D2(1),D2(2),D2(3))*trip(D1(0),D2(4),D3(-1))",
        "2.5*trip(D2(1),D2(2),D2(3))*trip(D1(0),D2(4),D3(-1)) + dot(D1(1),D1(2)) + 1.5",
    ],
)
def test_products_above_the_expanded_degree_follow_the_product_rule(text):
    assert degree(parse_lagrangian(text)) == 6 > MAX_DEGREE
    for seed in range(5):
        _assert_jets_agree(*_jet_routes(text, seed))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_grammar_text(_number_text(["", "E-2", "e-300"])), st.integers(0, 2**32 - 1))
def test_assembled_jet_matches_the_closure_oracle_on_grammar_texts(text, seed):
    # with no room to expand, a sum or product of degree 3 or more is
    # assembled from its parts' jets, each compiled on its own unknowns
    with mock.patch.object(lagrangian, "MAX_EXPANDED", 0):
        _assert_jets_agree(*_jet_routes(text, seed))


@pytest.mark.parametrize(
    "text, pieces",
    [
        # 35 unknowns, a term over every point -3..18: expanded, the
        # quartic's coefficient matrix W would take 37 MB and the cubic's 1 MB
        *(
            pytest.param(" + ".join(term.format(i, i + 1, i + 2) for i in range(-3, 15)), 12, id=term)
            for term in (
                "dot(D2({0}),D2({1}))*dot(D2({1}),D2({2}))",
                "trip(D2({0}),D2({1}),D2({2})) + dot(D3({0}),D3({1}))",
            )
        ),
        # 59 unknowns, one product past MAX_DEGREE of two trips that read few
        pytest.param("trip(D2(1),D2(2),D2(3))*trip(D2(15),D2(16),D2(17))", 20, id="trip*trip"),
    ],
)
def test_large_topologies_keep_the_jet_small(text, pieces):
    e, slot, b, A = _leaf_system(text, np.random.default_rng(0), pieces)
    tracemalloc.start()
    try:
        compile_jet(e, slot, b, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    _assert_jets_agree(*_jet_routes(text, 0, rows=9, pieces=pieces))
