"""Proper rigid motions and the canonical scene normalization.

Normalization sends the left boundary point to the origin and the right
boundary point onto the positive x-axis.  In 3D the remaining roll about the
x-axis is fixed by rotating an auxiliary point into the upper xy half-plane
(y >= 0, z = 0); if the auxiliary point is collinear with the boundary points
the roll is the identity.
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


def normalize_2d(p_left: np.ndarray, p_right: np.ndarray) -> RigidTransform:
    """Rigid motion with T(p_left) = origin and T(p_right) = (d, 0), d > 0."""
    pl = np.asarray(p_left, dtype=float)
    pr = np.asarray(p_right, dtype=float)
    if pl.shape != (2,) or pr.shape != (2,):
        raise InvalidArgument("normalize_2d expects two 2D points")
    chord = pr - pl
    d = float(np.linalg.norm(chord))
    if d <= 0.0:
        raise DegenerateScene("boundary points coincide; the gap has zero width")
    c, s = chord / d
    R = np.array([[c, s], [-s, c]])
    return RigidTransform(R, -(R @ pl))


def normalize_3d(p_left: np.ndarray, p_right: np.ndarray, aux: np.ndarray) -> RigidTransform:
    """Rigid motion with T(p_left) = origin, T(p_right) = (d, 0, 0), and the
    auxiliary point rolled into the upper xy half-plane (y >= 0, z = 0)."""
    pl = np.asarray(p_left, dtype=float)
    pr = np.asarray(p_right, dtype=float)
    ax = np.asarray(aux, dtype=float)
    if pl.shape != (3,) or pr.shape != (3,) or ax.shape != (3,):
        raise InvalidArgument("normalize_3d expects three 3D points")
    chord = pr - pl
    d = float(np.linalg.norm(chord))
    if d <= 0.0:
        raise DegenerateScene("boundary points coincide; the gap has zero width")
    u = chord / d
    base = _rotation_to_x_axis(u)
    a = base @ (ax - pl)
    r = float(np.hypot(a[1], a[2]))
    if r > 1e-12 * max(1.0, d):
        cy, sz = a[1] / r, a[2] / r
        roll = np.array([[1.0, 0.0, 0.0], [0.0, cy, sz], [0.0, -sz, cy]])
    else:
        roll = np.eye(3)
    R = roll @ base
    return RigidTransform(R, -(R @ pl))


def _rotation_to_x_axis(u: np.ndarray) -> np.ndarray:
    """Minimal proper rotation taking unit vector u onto (1, 0, 0)."""
    x, y, z = u.tolist()  # x is u . e_x, the cosine of the angle to turn
    if x > 1.0 - 1e-14:
        return np.eye(3)
    if x < -1.0 + 1e-14:
        # antipodal: half-turn about the y-axis
        return np.diag([-1.0, 1.0, -1.0])
    # np.cross(u, e_x), term by term as numpy computes it
    axis = np.array([y * 0.0 - z * 0.0, z * 1.0 - x * 0.0, x * 0.0 - y * 1.0])
    s = float(np.linalg.norm(axis))
    axis = axis / s
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + s * K + (1.0 - x) * (K @ K)
