"""Discrete variational calculus on difference invariants.

The library's gradient of a Lagrangian is its expansion's gradient
coefficient through constant leaf maps
(:func:`gapspline.lagrangian.grad_lagrangian`, the route ``solve`` takes).
Summation by parts writes it as the paper's discrete Euler–Lagrange operator
expression

    dL/dq_i = sum_l (S^-1 - id)^l [ dL/dI_{.,l} ]_i

where S is the index shift.  This module implements that form: the leaf maps
only bind the leaves to the points, and the shift operators, not the maps'
constant derivatives, carry the partials back to the points.  Its agreement
with the production route to machine precision is an independent check of
both.
"""

import numpy as np

from .errors import InvalidArgument
from .lagrangian import Expr, as_points, first_order, leaf_maps


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
    """Gradient rows dL/dq_i for every point, (n, dim), by the operator form.

    Row j is index ``first_index + j``.  Each order-l partial sequence gets l
    window-preserving applications of (S^-1 - id); the results sum to the
    gradient, which equals ``grad_lagrangian``'s by summation by parts.
    """
    points = as_points(points)
    total = np.zeros(points.shape)
    for order, seq in leaf_partial_sequences(expr, points, first_index).items():
        total += shift_difference(seq, power=order, inverse=True)
    return total
