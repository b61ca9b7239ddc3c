"""Reference routes that do not share the library's way of computing.

``el_gradient`` is the paper's summation-by-parts operator form of the
Euler–Lagrange gradient, and ``level_adjoint_gradient`` backpropagates
through the difference recursion; both take the leaf partials from
``leaf_partial_sequences``, where the library's route pulls them back
through the leaf maps' constant derivatives.  ``compile_jet`` is the
Lagrangian's jet as nested closures over the leaf values, with exact
derivatives of each dot and triple product and the product rule, where the
library expands the Lagrangian into polynomial coefficients in the unknowns.
``basis`` is a convenience, not a second route: it reads one B-spline basis
function off the library's evaluator.
"""

import numpy as np

from gapspline.bspline import BSplineCurve, KnotVector
from gapspline.errors import DslTypeError, InvalidArgument
from gapspline.lagrangian import (
    Diff,
    Dot,
    Expr,
    Number,
    Product,
    Sum,
    Trip,
    as_points,
    first_order,
    leaf_maps,
)


def basis(kv: KnotVector, i: int, t, order: int = 0):
    """order-th derivative of the i-th basis function at t, or at each of an
    array of t: the x of the curve whose control points are zero except
    P[i, 0] = 1 (left limit at t = 1)."""
    unit = np.zeros((kv.point_count, 2))
    unit[i, 0] = 1.0
    return BSplineCurve(kv, unit).derivative(t, order).T[0]


def shift_difference(values: np.ndarray, power: int = 1, inverse: bool = False) -> np.ndarray:
    """(S - id)^power of a sequence, window preserving.

    One forward application is out[j] = v[j+1] - v[j]; with ``inverse``,
    (S^-1 - id): out[j] = v[j-1] - v[j].  The output covers the same index
    window as the input; reads that fall off the window are zero (the
    sequence is treated as finitely supported).  power 0 is the identity.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise InvalidArgument(f"expected a sequence of scalars or vectors, got ndim={v.ndim}")
    if power < 0:
        raise InvalidArgument(f"power must be >= 0, got {power}")
    v = v.copy()
    for _ in range(power):
        out = -v
        if inverse:
            out[1:] += v[:-1]
        else:
            out[:-1] += v[1:]
        v = out
    return v


def leaf_partial_sequences(expr: Expr, points, first_index: int = 1) -> dict[int, np.ndarray]:
    """Per order l, the sequence i -> dL/dI_{i,l} on the points' window.

    The leaf values come from ``leaf_maps`` with no parameters.  Entries are
    zero wherever the Lagrangian has no matching leaf; keys are the orders
    that occur.
    """
    points = as_points(points)
    n, dim = points.shape
    slot, values, _ = leaf_maps(expr, points, np.zeros((0, n, dim)), first_index)
    size = len(slot) * dim  # one parameter per coordinate of each leaf
    bars = first_order(expr, slot, values, np.eye(size).reshape(len(slot), dim, size))[1]
    bars = bars.reshape(-1, dim)
    out: dict[int, np.ndarray] = {}
    for (order, index), bar in zip(slot, bars):
        out.setdefault(order, np.zeros((n, dim)))[index - first_index] = bar
    return out


def el_gradient(expr: Expr, points, first_index: int = 1) -> np.ndarray:
    """Gradient rows dL/dq_i for every point, (n, dim), by the operator form

        dL/dq_i = sum_l (S^-1 - id)^l [ dL/dI_{.,l} ]_i

    where S is the index shift.  Row j is index ``first_index + j``.  Each
    order-l partial sequence gets l window-preserving applications of
    (S^-1 - id); the results sum to the gradient, which equals
    ``grad_lagrangian``'s by summation by parts.
    """
    points = as_points(points)
    total = np.zeros(points.shape)
    for order, seq in leaf_partial_sequences(expr, points, first_index).items():
        total += shift_difference(seq, power=order, inverse=True)
    return total


def level_adjoint_gradient(expr, points, free, first_index=1) -> np.ndarray:
    """Gradient rows dL/dq_i for the named points, by the level adjoint.

    Backpropagates the leaf partials through the difference recursion
    p_i^l = p_{i+1}^{l-1} - p_i^{l-1}, one level at a time from the highest
    order down to the points; point j carries index ``first_index + j``.
    Returns shape (len(free), dim).
    """
    partials = leaf_partial_sequences(expr, points, first_index)
    n, dim = np.shape(points)
    # adjoint[l][j] is dL/dp_j^l; the order-l level has n - l entries
    adjoint = [np.zeros((n - l, dim)) for l in range(max(partials, default=0) + 1)]
    for order, seq in partials.items():
        adjoint[order] += seq[: n - order]
    for l in range(len(adjoint) - 1, 0, -1):
        adjoint[l - 1][1:] += adjoint[l]
        adjoint[l - 1][:-1] -= adjoint[l]
    return np.array([adjoint[0][index - first_index] for index in free])


def compile_jet(expr: Expr, slot: dict, A: np.ndarray):
    """The Lagrangian's value, gradient and Hessian as one compiled function.

    ``slot`` maps each leaf's (order, index) to its row of ``A`` (rows, dim,
    m), the constant derivatives of leaves affine in some m parameters; the
    leaves are resolved here, once.  The returned function takes the stacked
    leaf values (..., rows, dim) for any leading batch shape and returns
    value (...), gradient (..., m) and Hessian (..., m, m), each row computed
    as if alone.  Dot and trip are exact quadratic or cubic forms in the
    leaves, and products follow the pairwise product rule; every Hessian row
    is symmetric bit for bit.  A part that does not depend on the leaf values
    comes back unbroadcast: a dot's Hessian is the constant (m, m) matrix
    computed here, and a Number's derivatives are zeros of shape (1,) and
    (1, 1), which broadcast against any batch and any m.
    """
    if isinstance(expr, Number):
        jet = np.float64(expr.value), np.zeros(1), np.zeros((1, 1))
        return lambda values: jet
    if isinstance(expr, Dot):
        (i, Ai), (j, Aj) = (_leaf(d, slot, A) for d in (expr.left, expr.right))
        S = Ai.T @ Aj
        H = S + S.T

        def dot(values):
            a, b = values[..., i, :], values[..., j, :]
            return _dot(a, b), _pull(Ai, b) + _pull(Aj, a), H

        return dot
    if isinstance(expr, Trip):
        if A.shape[1] != 3:
            raise DslTypeError("trip() needs 3D leaves")
        legs = (expr.left, expr.middle, expr.right)
        (i, Ai), (j, Aj), (k, Ak) = (_leaf(d, slot, A) for d in legs)

        def trip(values):
            a, b, c = values[..., i, :], values[..., j, :], values[..., k, :]
            ab = _cross(a, b)
            # d2/da db of (a x b).c is skew(c).T = skew(-c), where skew(v) w = v x w
            S = Ai.T @ _skew(-c) @ Aj + Aj.T @ _skew(-a) @ Ak + Ak.T @ _skew(-b) @ Ai
            grad = _pull(Ai, _cross(b, c)) + _pull(Aj, _cross(c, a)) + _pull(Ak, ab)
            return _dot(ab, c), grad, S + np.swapaxes(S, -1, -2)

        return trip
    if isinstance(expr, Sum):
        terms = [compile_jet(t, slot, A) for t in expr.terms]

        def total(values):
            jets = [term(values) for term in terms]
            # value, gradient and Hessian each summed over the terms, in order
            return tuple(sum(parts[1:], parts[0]) for parts in zip(*jets))

        return total
    if isinstance(expr, Product):
        head, *rest = [compile_jet(f, slot, A) for f in expr.factors]

        def product(values):
            v, g, H = head(values)
            for factor in rest:
                w, h, K = factor(values)
                O = g[..., :, None] * h[..., None, :]
                v, g, H = (
                    v * w,
                    v[..., None] * h + w[..., None] * g,
                    v[..., None, None] * K + w[..., None, None] * H + (O + np.swapaxes(O, -1, -2)),
                )
            return v, g, H

        return product
    raise InvalidArgument(f"cannot evaluate node {expr!r}")


def _leaf(d: Diff, slot: dict, A: np.ndarray) -> tuple:
    k = slot[d.order, d.index]
    return k, A[k]


# Row-wise products.  matmul treats every row of a batch as its own vector
# or matrix and makes the BLAS call an unbatched row would, so a row's
# result does not depend on the batch it is evaluated in.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pull(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A.T @ x row by row: a leaf covector pulled back to the parameters."""
    return (A.T @ x[..., :, None])[..., 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis: the multiplies and subtracts of np.cross."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices, skew(v) @ w == v x w, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out
