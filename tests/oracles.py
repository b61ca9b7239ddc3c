"""Reference gradients that share no binding code with the library's route."""

import numpy as np

from gapspline.variational import leaf_partial_sequences


def level_adjoint_gradient(expr, table, free) -> np.ndarray:
    """Gradient rows dL/dq_i for the named base points, by the level adjoint.

    Backpropagates the leaf partials through the difference recursion
    p_i^l = p_{i+1}^{l-1} - p_i^{l-1}, one level at a time from the highest
    order down to the base points.  Returns shape (len(free), dim).
    """
    n, dim = table.base.shape
    partials = leaf_partial_sequences(expr, table)
    # adjoint[l][j] is dL/dp_j^l; the order-l level has n - l entries
    adjoint = [np.zeros((n - l, dim)) for l in range(max(partials, default=0) + 1)]
    for order, seq in partials.items():
        adjoint[order] += seq[: n - order]
    for l in range(len(adjoint) - 1, 0, -1):
        adjoint[l - 1][1:] += adjoint[l]
        adjoint[l - 1][:-1] -= adjoint[l]
    return np.array([adjoint[0][index - table.first_index] for index in free])
