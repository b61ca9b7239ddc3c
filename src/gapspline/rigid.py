"""Proper rigid motions and the canonical scene normalization.

Normalization sends the left boundary point to the origin and the right
boundary point onto the positive x-axis, by plane (Givens) rotations: in 2D
one turn of the chord, in 3D a turn of its y and then of its z onto x.  In 3D
the remaining roll about the x-axis is fixed by turning an auxiliary point's z
onto y, into the upper xy half-plane (y >= 0, z = 0); if the auxiliary point
is collinear with the boundary points the roll is the identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScene, InvalidArgument

_ORTHO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """x -> rotation @ x + translation, with rotation in SO(2) or SO(3)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if R.shape not in ((2, 2), (3, 3)) or t.shape != (R.shape[0],):
            raise InvalidArgument(
                f"rotation/translation shapes {R.shape}/{t.shape} are not a rigid motion"
            )
        # np.allclose's test, written out: |R^T R - I| <= atol + rtol |I|, NaN refused
        eye = np.eye(R.shape[0])
        if not (np.abs(R.T @ R - eye) <= _ORTHO_TOL + 1e-5 * eye).all():
            raise InvalidArgument("rotation must be orthonormal")
        if np.linalg.det(R) < 0.0:
            raise InvalidArgument("rotation must be proper (det +1, no reflection)")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (dim,) or a stack (..., dim)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T.copy()
        return RigidTransform(Rt, -(Rt @ self.translation))


def _turn(a: float, b: float, axes: tuple, dim: int) -> tuple:
    """Plane (Givens) rotation of R^dim in the ``axes`` plane turning the pair
    (a, b) there onto (r, 0), and r = |(a, b)|; (0, 0) gets the identity."""
    r = float(np.linalg.norm((a, b)))
    c, s = (1.0, 0.0) if r == 0.0 else (a / r, b / r)
    i, j = axes
    G = np.eye(dim)
    G[i, i], G[i, j], G[j, i], G[j, j] = c, s, -s, c
    return G, r


def normalize_2d(p_left: np.ndarray, p_right: np.ndarray) -> RigidTransform:
    """Rigid motion with T(p_left) = origin and T(p_right) = (d, 0), d > 0."""
    pl = np.asarray(p_left, dtype=float)
    pr = np.asarray(p_right, dtype=float)
    if pl.shape != (2,) or pr.shape != (2,):
        raise InvalidArgument("normalize_2d expects two 2D points")
    R, d = _turn(*(pr - pl), (0, 1), 2)
    if d <= 0.0:
        raise DegenerateScene("boundary points coincide; the gap has zero width")
    return RigidTransform(R, -(R @ pl))


def normalize_3d(p_left: np.ndarray, p_right: np.ndarray, aux: np.ndarray) -> RigidTransform:
    """Rigid motion with T(p_left) = origin, T(p_right) = (d, 0, 0), and the
    auxiliary point rolled into the upper xy half-plane (y >= 0, z = 0)."""
    pl = np.asarray(p_left, dtype=float)
    pr = np.asarray(p_right, dtype=float)
    ax = np.asarray(aux, dtype=float)
    if pl.shape != (3,) or pr.shape != (3,) or ax.shape != (3,):
        raise InvalidArgument("normalize_3d expects three 3D points")
    x, y, z = (pr - pl).tolist()
    # the chord's y onto x, then its z onto x
    to_xz, r = _turn(x, y, (0, 1), 3)
    to_x, d = _turn(r, z, (0, 2), 3)
    if d <= 0.0:
        raise DegenerateScene("boundary points coincide; the gap has zero width")
    R = to_x @ to_xz
    # then the auxiliary point's z onto y, unless it lies on the chord line
    a = R @ (ax - pl)
    roll, r = _turn(a[1], a[2], (1, 2), 3)
    if r > 1e-12 * max(1.0, d):
        R = roll @ R
    return RigidTransform(R, -(R @ pl))
