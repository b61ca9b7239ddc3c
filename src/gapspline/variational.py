"""Discrete variational calculus on difference invariants.

The library's gradient of a Lagrangian is the jet's gradient through constant
leaf maps (:func:`gapspline.lagrangian.grad_lagrangian`, the route ``solve``
takes).  Summation by parts writes it as the paper's discrete Euler–Lagrange
operator expression

    dL/dq_i = sum_l (S^-1 - id)^l [ dL/dI_{.,l} ]_i

where S is the index shift.  This module implements that form over the
difference table's levels, without leaf maps, so its agreement with the
production route to machine precision is an independent check of both.
"""

import numpy as np

from .errors import InvalidArgument
from .lagrangian import DifferenceTable, Expr, compile_jet, lagrangian_leaves


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


def leaf_partial_sequences(expr: Expr, table: DifferenceTable) -> dict[int, np.ndarray]:
    """Per order l, the sequence i -> dL/dI_{i,l} on the full base window.

    Entries are zero wherever the Lagrangian has no matching leaf.  Keys are
    the orders that actually occur.
    """
    keys = list(dict.fromkeys((d.order, d.index) for d in lagrangian_leaves(expr)))
    n, dim = table.base.shape
    size = len(keys) * dim  # one parameter per coordinate of each leaf
    A = np.eye(size).reshape(len(keys), dim, size)
    values = np.array([table.invariant(index, order) for order, index in keys])
    jet = compile_jet(expr, {key: k for k, key in enumerate(keys)}, A)
    bars = np.broadcast_to(jet(values)[1], (size,)).reshape(-1, dim)
    out: dict[int, np.ndarray] = {}
    for (order, index), bar in zip(keys, bars):
        out.setdefault(order, np.zeros((n, dim)))[index - table.first_index] = bar
    return out


def el_gradient(expr: Expr, table: DifferenceTable) -> np.ndarray:
    """Gradient rows dL/dq_i for every base point, by the operator form.

    Each order-l partial sequence gets l window-preserving applications of
    (S^-1 - id); the results sum to the gradient.
    """
    n = table.base.shape[0]
    total = np.zeros((n, table.dim))
    for order, seq in leaf_partial_sequences(expr, table).items():
        total += shift_difference(seq, power=order, inverse=True)
    return total


def euler_lagrange(expr: Expr, table: DifferenceTable, index: int) -> np.ndarray:
    """Single gradient row dL/dq_index via the operator form."""
    return el_operator_form(expr, table, [index])[0]


def el_operator_form(expr: Expr, table: DifferenceTable, free) -> np.ndarray:
    """Operator-form gradient rows for the named free indices, (len(free), dim).

    Agrees with :func:`gapspline.lagrangian.grad_lagrangian` on the same
    indices — that equality is the summation-by-parts identity.
    """
    grad = el_gradient(expr, table)
    n = table.base.shape[0]
    rows = []
    for index in free:
        pos = index - table.first_index
        if not 0 <= pos < n:
            raise InvalidArgument(f"free index {index} outside the base window")
        rows.append(grad[pos])
    if not rows:
        raise InvalidArgument("free index set must not be empty")
    return np.array(rows)
