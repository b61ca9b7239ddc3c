"""Scene model and the reduced stationarity system.

A scene is two fixed B-spline curves with a gap between them.  The connecting
curve shares its first control point with the left curve's last point and its
last with the right curve's first point; the neighbouring control points are
tied to the data tangents through scalars alpha and beta:

    q_2     = q_1 + alpha * (q_1 - p_left_second_last)
    q_(n-1) = q_n + beta  * (q_n - p_right_second)

so the control polygon continues each data polygon's end leg.  Remaining
interior points are free coordinates, optionally reduced further by linear
coordinate ties.  The residual of the reduced system is the exact gradient of
the Lagrangian with respect to the reduced unknowns u = (alpha, beta, free
coordinates); the map u -> control points is affine, so every difference leaf
is affine in u as well, with constant maps built once per system.
"""

from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, check_topology, is_integer
from .errors import BalanceError, DegenerateScene, InvalidArgument
from .lagrangian import Expr, compile_jet, leaf_maps, validate_lagrangian
from .rigid import RigidTransform, normalize_2d, normalize_3d


@dataclass(frozen=True, eq=False)
class Scene:
    """Two input curves plus the requested connecting-curve topology."""

    left: BSplineCurve
    right: BSplineCurve
    solution_degree: int = 3
    solution_pieces: int = 1

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise InvalidArgument(
                f"input curves must share a dimension, got {self.left.dim} and {self.right.dim}"
            )
        if len(self.left.points) < 2 or len(self.right.points) < 2:
            raise InvalidArgument("each input curve needs at least 2 control points")
        if np.array_equal(self.left.points[-1], self.right.points[0]):
            raise DegenerateScene("no gap: left curve already ends where the right begins")
        check_topology(self.solution_degree, self.solution_pieces)

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def solution_point_count(self) -> int:
        return self.solution_degree + self.solution_pieces

    def with_topology(self, degree: int, pieces: int) -> "Scene":
        return Scene(self.left, self.right, degree, pieces)


@dataclass(frozen=True, eq=False)
class NormalizedScene:
    """Scene moved so the gap runs from the origin along the positive x-axis."""

    original: Scene
    left: BSplineCurve
    right: BSplineCurve
    transform: RigidTransform

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def gap(self) -> float:
        return float(self.right.points[0, 0])


def normalize_scene(scene: Scene) -> NormalizedScene:
    """Rigidly move the scene into the canonical solving frame.

    Left's last control point lands on the origin and right's first on the
    positive x-axis; in 3D the leftover roll is fixed by turning the left
    curve's second-to-last point into the upper xy half-plane.
    """
    p_left = scene.left.points[-1]
    p_right = scene.right.points[0]
    if scene.dim == 2:
        transform = normalize_2d(p_left, p_right)
    else:
        transform = normalize_3d(p_left, p_right, scene.left.points[-2])
    left = scene.left.transformed(transform.apply(scene.left.points))
    right = scene.right.transformed(transform.apply(scene.right.points))
    return NormalizedScene(scene, left, right, transform)


@dataclass(frozen=True)
class CoordinateTie:
    """One coordinate pinned to a scaled sum of other points' coordinates.

    point/coord identify the target; the tied value is
    scale * sum(coordinate ``c`` of point ``p`` for (p, c) in sources).
    Indices use the connecting curve's 1-based positions.
    """

    point: int
    coord: int
    sources: tuple[tuple[int, int], ...]
    scale: float


def case1_tie() -> CoordinateTie:
    """Middle x of a 5-point curve pinned to the mean of its neighbours' x
    (same-sign slopes)."""
    return CoordinateTie(3, 0, ((2, 0), (4, 0)), 0.5)


def case2_tie() -> CoordinateTie:
    """Middle y of a 5-point curve pinned to minus the mean of its
    neighbours' y (opposite slopes)."""
    return CoordinateTie(3, 1, ((2, 1), (4, 1)), -0.5)


@dataclass(frozen=True, eq=False)
class UnknownLayout:
    """Reduced unknowns and the affine map back to control points.

    The connecting curve's control points are ``offset + sum_k u[k] basis[k]``
    with constant ``offset`` (n, dim) and ``basis`` (unknown_count, n, dim);
    the tangency ties, free coordinates and coordinate ties are all in them.
    """

    normalized: NormalizedScene
    point_count: int
    ties: tuple[CoordinateTie, ...]
    free_coords: tuple[tuple[int, int], ...]
    offset: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.normalized.dim

    @property
    def unknown_count(self) -> int:
        return 2 + len(self.free_coords)

    @property
    def names(self) -> tuple[str, ...]:
        axes = "xyz"
        return ("alpha", "beta") + tuple(
            f"p{pt}.{axes[c]}" for pt, c in self.free_coords
        )

    @property
    def first_index(self) -> int:
        return 2 - len(self.normalized.left.points)

    def check_unknowns(self, u: np.ndarray, batch: bool = False) -> np.ndarray:
        """u as floats of shape (unknown_count,); with batch, (..., unknown_count)."""
        u = np.asarray(u, dtype=float)
        if (u.shape[-1:] if batch else u.shape) != (self.unknown_count,):
            raise InvalidArgument(
                f"expected {self.unknown_count} unknowns, got shape {u.shape}"
            )
        return u

    def solution_points(self, u: np.ndarray) -> np.ndarray:
        """All connecting-curve control points for unknowns u, (n, dim).

        A tied coordinate is set to the scaled sum of its sources' values, so
        the tie holds exactly, not just up to the rounding of the affine map.
        """
        u = self.check_unknowns(u)
        # np.tensordot's own product, without its set-up
        pts = self.offset + np.dot(u, self.basis.reshape(len(u), -1)).reshape(self.offset.shape)
        for tie in self.ties:
            pts[tie.point - 1, tie.coord] = tie.scale * sum(pts[p - 1, c] for p, c in tie.sources)
        return pts

    def sequence_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(offset, basis) of the whole sequence, left data to right data.

        Base point j of the sequence carries index ``first_index + j``.
        """
        left = self.normalized.left.points
        right = self.normalized.right.points
        offset = np.vstack([left, self.offset[1:-1], right])
        basis = np.zeros((self.unknown_count, len(offset), self.dim))
        basis[:, len(left) : len(offset) - len(right)] = self.basis[:, 1:-1]
        return offset, basis


def build_layout(
    normalized: NormalizedScene,
    constraints: "tuple[CoordinateTie, ...] | list[CoordinateTie]" = (),
    literal_beta_tie: bool = False,
) -> UnknownLayout:
    """Reduce the connecting curve's unknowns to (alpha, beta, free coords).

    The two tangency ties consume the second and second-to-last points; every
    remaining interior coordinate is free unless a constraint ties it.
    """
    scene = normalized.original
    n = scene.solution_point_count
    if n < 4:
        raise InvalidArgument(
            "connecting curve needs at least 4 control points "
            f"(degree + pieces >= 4), got {n}"
        )
    left = normalized.left.points
    right = normalized.right.points
    alpha_dir = left[-1] - left[-2]
    beta_dir = right[0] - right[1]
    if np.linalg.norm(alpha_dir) == 0.0:
        raise DegenerateScene("left curve's end tangent vanishes")
    if np.linalg.norm(beta_dir) == 0.0:
        raise DegenerateScene("right curve's start tangent vanishes")

    dim = normalized.dim
    ties = tuple(constraints)
    tied = {}
    for tie in ties:
        if not (is_integer(tie.point) and is_integer(tie.coord)):
            raise InvalidArgument(f"tie target ({tie.point!r}, {tie.coord!r}) is not integer")
        if not np.isfinite(tie.scale):
            raise InvalidArgument(f"tie scale must be finite, got {tie.scale!r}")
        if not 2 <= tie.point <= n - 1:
            raise InvalidArgument(f"tie target p{tie.point} is not an interior point")
        if tie.point in (2, n - 1):
            raise InvalidArgument(
                f"tie target p{tie.point} is already fixed by a tangency tie"
            )
        if not 0 <= tie.coord < dim:
            raise InvalidArgument(f"tie coordinate {tie.coord} outside dimension {dim}")
        key = (tie.point, tie.coord)
        if key in tied:
            raise InvalidArgument(f"coordinate p{tie.point}[{tie.coord}] tied twice")
        tied[key] = tie
    for tie in ties:
        for p, c in tie.sources:
            if not (is_integer(p) and is_integer(c)):
                raise InvalidArgument(f"tie source ({p!r}, {c!r}) is not integer")
            if (p, c) in tied:
                raise InvalidArgument("chained coordinate ties are not supported")
            if not 1 <= p <= n:
                raise InvalidArgument(f"tie source p{p} outside the connecting curve")
            if not 0 <= c < dim:
                raise InvalidArgument(f"tie source coordinate {c} outside dimension {dim}")

    free = tuple(
        (pt, c)
        for pt in range(3, n - 1)
        for c in range(dim)
        if (pt, c) not in tied
    )
    # maps[0] is the offset, maps[1 + k] the basis of unknown k
    maps = np.zeros((3 + len(free), n, dim))
    maps[0, [0, 1]] = left[-1]
    maps[0, [n - 2, n - 1]] = right[0]
    if literal_beta_tie:
        maps[0, n - 2] = 0.0
    maps[1, 1] = alpha_dir
    maps[2, n - 2] = beta_dir
    for k, (pt, c) in enumerate(free):
        maps[3 + k, pt - 1, c] = 1.0
    for tie in ties:
        maps[:, tie.point - 1, tie.coord] = tie.scale * sum(
            maps[:, p - 1, c] for p, c in tie.sources
        )
    return UnknownLayout(
        normalized=normalized,
        point_count=n,
        ties=ties,
        free_coords=free,
        offset=maps[0],
        basis=maps[1:],
    )


class ResidualSystem:
    """Stationarity residual of the Lagrangian in the reduced unknowns.

    Every leaf D<order>(<index>) is affine in u, ``I = b + A @ u``, because
    the control sequence is and differencing is linear; ``leaf_maps`` builds
    (b, A) once per distinct leaf, and ``compile_jet`` expands the
    Lagrangian, a polynomial in u, into coefficients, also once.  ``jet``
    evaluates the action, its exact gradient and its exact Hessian over a
    batch of u at once; residual and jacobian are the last two at one u.
    """

    def __init__(self, layout: UnknownLayout, lagrangian: Expr):
        validate_lagrangian(lagrangian, layout.dim)
        self.layout = layout
        self.lagrangian = lagrangian

        offset, basis = layout.sequence_map()
        slot, b, self._A = leaf_maps(lagrangian, offset, basis, layout.first_index)
        self._check_balance()
        self._jet = compile_jet(lagrangian, slot, b, self._A)

    def _check_balance(self):
        # an unknown no leaf depends on makes its stationarity equation
        # 0 = 0 and Newton singular
        seen = self._A.any(axis=(0, 1))
        dead = [name for name, s in zip(self.layout.names, seen) if not s]
        if dead:
            m = self.layout.unknown_count
            raise BalanceError(
                m,
                m - len(dead),
                f"the Lagrangian never sees unknown(s) {', '.join(dead)}",
            )

    def jet(self, u: np.ndarray) -> tuple:
        """Action, residual and exact Jacobian at every row of u, (..., m).

        One call of the compiled jet covers the whole batch.  Returns value
        (...), gradient (..., m) and Hessian (..., m, m), each a new array.
        """
        return self._jet(self.layout.check_unknowns(u, batch=True))

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.jet(self.layout.check_unknowns(u))[1]

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        return self.jet(self.layout.check_unknowns(u))[2]

    def bending_energy(self, u: np.ndarray) -> float:
        """Total squared second difference of the solution control polygon."""
        pts = self.layout.solution_points(u)
        dd = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
        return float(np.sum(dd * dd))
