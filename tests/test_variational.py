"""Window-preserving shift differences and the operator form of the gradient."""

import numpy as np
import pytest

from gapspline import grad_lagrangian, parse_lagrangian

from conftest import L_EX1, L_EX2, L_EX3, L_PLANNER
from oracles import el_gradient, level_adjoint_gradient, shift_difference


def test_shift_difference_forward_example():
    out = shift_difference(np.array([1.0, 3.0, 6.0]))
    np.testing.assert_allclose(out, [2.0, 3.0, -6.0])


def test_shift_difference_power_zero_is_identity():
    vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(shift_difference(vals, power=0), vals)
    np.testing.assert_allclose(shift_difference(vals, power=0, inverse=True), vals)


def test_shift_difference_inverse_squared_on_delta():
    # (S^-1 - id)^2 applied to a unit impulse at j spreads (1, -2, 1)
    # over j, j+1, j+2.
    vals = np.zeros(7)
    vals[2] = 1.0
    out = shift_difference(vals, power=2, inverse=True)
    expected = np.zeros(7)
    expected[2], expected[3], expected[4] = 1.0, -2.0, 1.0
    np.testing.assert_allclose(out, expected)


def test_shift_difference_window_is_preserved():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(9, 3))
    for power in range(4):
        for inverse in (False, True):
            out = shift_difference(vals, power=power, inverse=inverse)
            assert out.shape == vals.shape


def test_shift_difference_reads_zero_off_window():
    # The last entry of a forward difference sees only -v[last]: the shifted
    # neighbour beyond the window contributes nothing.
    vals = np.array([0.0, 0.0, 5.0])
    out = shift_difference(vals)
    np.testing.assert_allclose(out, [0.0, 5.0, -5.0])


def test_shift_difference_inverse_then_forward_power_one():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=6)
    fwd = shift_difference(vals)
    manual = np.empty_like(vals)
    for j in range(6):
        ahead = vals[j + 1] if j + 1 < 6 else 0.0
        manual[j] = ahead - vals[j]
    np.testing.assert_allclose(fwd, manual)

    inv = shift_difference(vals, inverse=True)
    manual = np.empty_like(vals)
    for j in range(6):
        behind = vals[j - 1] if j - 1 >= 0 else 0.0
        manual[j] = behind - vals[j]
    np.testing.assert_allclose(inv, manual)


@pytest.mark.parametrize("dim", [2, 3])
def test_operator_form_matches_adjoint_gradient(dim):
    texts = [L_EX1, L_EX2, L_PLANNER]
    if dim == 3:
        texts.append(L_EX3)
    exprs = [parse_lagrangian(t) for t in texts]
    rng = np.random.default_rng(100 + dim)
    for _ in range(60):
        n = int(rng.integers(5, 10))
        points = rng.normal(size=(n, dim))
        free = list(range(2, n))
        for expr in exprs:
            g = level_adjoint_gradient(expr, points, free)
            op = el_gradient(expr, points)[1:-1]
            np.testing.assert_allclose(op, g, rtol=0, atol=1e-12)
            # the library's route, through the leaf maps
            scale = max(1.0, float(np.max(np.abs(g))))
            np.testing.assert_allclose(grad_lagrangian(expr, points, free), g, rtol=0, atol=1e-12 * scale)


def test_operator_form_with_offset_first_index():
    expr = parse_lagrangian(L_EX1)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(8, 2))
    free = [0, 1, 2]
    g = grad_lagrangian(expr, points, free, first_index=-2)
    # index i is row i - first_index
    op = el_gradient(expr, points, first_index=-2)[[2, 3, 4]]
    np.testing.assert_allclose(op, g, atol=1e-12)


def test_euler_lagrange_single_row():
    expr = parse_lagrangian(L_EX1)
    rng = np.random.default_rng(12)
    points = rng.normal(size=(6, 2))
    full = el_gradient(expr, points, first_index=-1)
    for index in range(-1, 5):
        row = level_adjoint_gradient(expr, points, [index], first_index=-1)[0]
        np.testing.assert_allclose(full[index + 1], row, atol=1e-14)


def test_el_gradient_quadratic_closed_form():
    # L = |D^1 I at index 1|^2 = |p2 - p1|^2; summation by parts gives
    # rows (p1 - p2, p2 - p1) and zero elsewhere.
    expr = parse_lagrangian("dot(D1(1),D1(1))")
    points = np.array([[0.0, 0.0], [3.0, -1.0], [4.0, 4.0]])
    g = el_gradient(expr, points)
    d = points[1] - points[0]
    np.testing.assert_allclose(g[0], -2.0 * d, atol=1e-14)
    np.testing.assert_allclose(g[1], 2.0 * d, atol=1e-14)
    np.testing.assert_allclose(g[2], 0.0, atol=1e-14)
