"""Reference gradients that do not use the library's pull-back of the leaves.

The leaf partials come from :func:`gapspline.variational.leaf_partial_sequences`;
the library's route pulls them back through the leaf maps' constant
derivatives, the oracle through the difference recursion.
"""

import numpy as np

from gapspline.variational import leaf_partial_sequences


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
