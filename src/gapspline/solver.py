"""Damped Newton with a deterministic multistart grid.

The reduced stationarity systems are tiny (2 to ~9 unknowns) but polynomial,
so several real roots can coexist.  Newton runs from a small deterministic
grid of starts, all in lockstep.  Each iteration tries the full Newton step
first and backtracks along a halving ladder only where it fails to lower the
residual, the standard damped Newton (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., 2006, sections 3.1 and 3.5).  A start that fails to
halve its residual over 10 iterations has stalled and stops, as MINPACK's
``hybrd`` stops when iterations make too little progress (More, Garbow &
Hillstrom, *User Guide for MINPACK-1*, ANL-80-74, 1980).  Converged roots are
deduplicated, filtered by the orientation requirement alpha > 0 and
beta > 0 (the connecting curve must leave and enter along the data's travel
direction), and ranked by the smallest total squared second difference of
the control polygon — an explicit smoothness tie-break, chosen here, not
prescribed by the underlying theory.

Deduplication and the orientation filter share one tolerance,
``1e-8 * (1 + max|u|)``.  An alpha or beta at or below it counts as
collapsed: the free point sits on its chord endpoint up to rounding, so the
sign it carries is noise.  The rule reads only the normalized unknowns, so
the verdict on such a root does not depend on the rigid motion of the input.
"""

from dataclasses import dataclass

import numpy as np

from .bspline import is_integer
from .errors import ConvergenceFailure, InvalidArgument, OrientationFailure
from .system import ResidualSystem, UnknownLayout


# (alpha0, beta0) scale factors of the 3x3 start grid
START_SCALES = (0.5, 1.0, 2.0)

# Backtracking steps 1, 1/2, ..., 2**-30.  ``newton_lockstep`` tries the full
# step in one jet and the rest in a second.
LADDER = 0.5 ** np.arange(31)

# A running start whose residual max-norm is not below STALL_FACTOR times
# its norm STALL_WINDOW iterations earlier has stalled, and stops as failed.
STALL_WINDOW = 10
STALL_FACTOR = 0.5


def _is_real(value) -> bool:
    return is_integer(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iters: int = 100
    seed: "int | None" = None

    def __post_init__(self):
        # an infinite tol would accept every start before its first step
        if not (_is_real(self.tol) and np.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidArgument(f"tol must be finite and positive, got {self.tol!r}")
        if not (is_integer(self.max_iters) and self.max_iters >= 1):
            raise InvalidArgument(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        seed = self.seed
        if seed is not None and not (is_integer(seed) and seed >= 0):
            raise InvalidArgument(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class Solution:
    unknowns: np.ndarray
    control_points: np.ndarray
    residual_norm: float
    iterations: int
    start_used: int

    @property
    def alpha(self) -> float:
        return float(self.unknowns[0])

    @property
    def beta(self) -> float:
        return float(self.unknowns[1])


def default_initial_guess(layout: UnknownLayout) -> np.ndarray:
    """Start near the one-third rule: interior points at thirds of the chord.

    alpha0 = d / (3 |left tangent|), beta0 = d / (3 |right tangent|); free
    interior coordinates start on the chord itself (the x-axis).
    """
    d = layout.normalized.gap
    n = layout.point_count
    u = np.zeros(layout.unknown_count)
    # alpha moves point 2 and beta point n - 1 along the data's end legs
    u[0] = d / (3.0 * np.linalg.norm(layout.basis[0, 1]))
    u[1] = d / (3.0 * np.linalg.norm(layout.basis[1, n - 2]))
    for k, (pt, c) in enumerate(layout.free_coords):
        u[2 + k] = d * (pt - 1) / (n - 1) if c == 0 else 0.0
    return u


def start_grid(layout: UnknownLayout, config: SolverConfig) -> np.ndarray:
    """Deterministic multistart points (k, m), one per row, in ranking order.

    (alpha0, beta0) each scaled by 0.5, 1 and 2 (``START_SCALES``), alpha's
    scale the outer loop; when an opposite-slope tie is active (negative tie
    scale) the same grid is appended with the interior coordinates' signs
    flipped, since that case bends the curve across the chord.
    """
    base = default_initial_guess(layout)
    scales = np.ones((len(START_SCALES) ** 2, base.size))
    scales[:, :2] = [(sa, sb) for sa in START_SCALES for sb in START_SCALES]
    if any(tie.scale < 0.0 for tie in layout.ties):
        scales = np.concatenate([scales, scales * np.r_[1.0, 1.0, -np.ones(base.size - 2)]])
    starts = base * scales
    if config.seed is not None:
        rng = np.random.default_rng(config.seed)
        starts += 0.01 * (np.abs(starts) + 1.0) * rng.standard_normal(starts.shape)
    return starts


def _newton_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise solutions of jac @ delta = -r; NaN rows where jac is singular."""
    try:
        return np.linalg.solve(jac, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular Jacobian must fail only its own start
        delta = np.full_like(r, np.nan)
        for k in range(len(r)):
            try:
                delta[k] = np.linalg.solve(jac[k], -r[k])
            except np.linalg.LinAlgError:
                pass
        return delta


def newton_lockstep(system: ResidualSystem, starts: np.ndarray, config: SolverConfig):
    """Damped Newton from every row of ``starts`` (n, m), all in lockstep.

    Returns arrays (u, iterations, converged, residual_max_norm), one entry
    per start.  Each iteration solves every running start's Newton step in
    one batch, then looks along it for the first step of the backtracking
    ``LADDER`` that lowers the start's residual max-norm.  The full step
    comes first: one jet covers every running start's ``u + delta`` as plain
    (k, m) rows, and a second covers the rest of the ladder, (k, 30, m), for
    the starts it did not lower; no jet is made on an empty batch.  Each
    start's step is written in one place: the first lowering step, with that
    point's residual, Jacobian and norm; the norm returned is the returned
    point's.  A start runs on while its norm is above tol and below
    ``STALL_FACTOR`` times its norm ``STALL_WINDOW`` iterations earlier, its
    step is finite and the ladder lowers its norm.  Its iteration count is
    the number of steps it took, and it has converged when its final norm is
    within tol.
    """
    u = np.array(starts, dtype=float)
    _, r, jac = system.jet(u)
    norm = np.max(np.abs(r), axis=-1)
    iterations = np.zeros(len(u), dtype=np.int64)
    live = np.arange(len(u))
    # norms at the top of the last STALL_WINDOW iterations: iteration k's in row k % STALL_WINDOW
    history = np.empty((STALL_WINDOW, len(u)))
    for iteration in range(config.max_iters):
        # a NaN norm fails both tests
        go = norm[live] > config.tol
        if iteration >= STALL_WINDOW:
            go &= norm[live] < STALL_FACTOR * history[iteration % STALL_WINDOW][live]
        live = live[go]
        if not live.size:
            break
        history[iteration % STALL_WINDOW] = norm
        delta = _newton_steps(jac[live], r[live])
        finite = np.isfinite(delta).all(axis=-1)
        live, delta = live[finite], delta[finite]
        if not live.size:
            break
        # the full step, on plain rows: 1.0 * delta is delta
        trial = u[live] + delta
        _, r_trial, jac_trial = system.jet(trial)
        norm_trial = np.max(np.abs(r_trial), axis=-1)
        before = norm[live]
        seek = ~(norm_trial < before)
        if seek.any():
            # the rest of the ladder, for the starts the full step did not
            # lower; each keeps its first lowering step, or its first step
            ladder = u[live[seek], None] + LADDER[1:, None] * delta[seek, None]
            _, r_ladder, jac_ladder = system.jet(ladder)
            norm_ladder = np.max(np.abs(r_ladder), axis=-1)
            at = np.arange(len(ladder)), (norm_ladder < before[seek, None]).argmax(axis=-1)
            trial[seek], r_trial[seek], jac_trial[seek] = ladder[at], r_ladder[at], jac_ladder[at]
            norm_trial[seek] = norm_ladder[at]
        lower = norm_trial < before
        live = live[lower]
        u[live], r[live], jac[live], norm[live] = (
            trial[lower], r_trial[lower], jac_trial[lower], norm_trial[lower]
        )
        iterations[live] += 1
    return u, iterations, norm <= config.tol, norm


def newton(system: ResidualSystem, u0: np.ndarray, config: SolverConfig):
    """Damped Newton iteration from one start: ``newton_lockstep`` on one row.

    Returns (u, iterations, converged, residual_max_norm), the last three as
    Python scalars.  Each step is the full Newton step when that lowers the
    residual max-norm, and otherwise the first of ``LADDER`` (1/2, 1/4, ...,
    2**-30) that does; when none does, or when the norm has not halved over
    the last ``STALL_WINDOW`` iterations, the start has failed.  A start's
    path here is its path among others in ``newton_lockstep``, bit for bit,
    where a row's jet does not depend on its batch: under the Haswell,
    Sandybridge and SkylakeX OpenBLAS kernels, not Prescott (ROADMAP item 15).
    """
    u, iterations, converged, norm = newton_lockstep(
        system, np.asarray(u0, dtype=float)[None], config
    )
    return u[0], int(iterations[0]), bool(converged[0]), float(norm[0])


def _root_tol(u: np.ndarray) -> np.ndarray:
    """Distance below which two roots coincide and alpha or beta is collapsed,
    for each row of u."""
    return 1e-8 * (1.0 + np.max(np.abs(u), axis=-1))


def _distinct(roots: np.ndarray, tol: np.ndarray) -> list:
    """Indices of the rows of roots that are not within ``tol[j]`` (max-norm)
    of an earlier kept row j, in order: the earliest of coinciding roots."""
    # close[i][j]: root i lies within root j's tolerance
    close = (np.max(np.abs(roots[:, None] - roots), axis=-1) <= tol).tolist()
    kept = []
    for i, row in enumerate(close):
        if not any(row[j] for j in kept):
            kept.append(i)
    return kept


def solve(system: ResidualSystem, config: SolverConfig = SolverConfig()) -> Solution:
    """Multistart Newton; returns the best orientation-valid root.

    Converged roots are deduplicated (earliest start wins), filtered to
    alpha > tol and beta > tol with tol = 1e-8 * (1 + max|u|), which refuses
    a root collapsed onto the chord, and ranked by bending energy with grid
    order as the tie-break.  No convergence at all raises ConvergenceFailure
    with the best residual seen; converged but misoriented or collapsed roots
    raise OrientationFailure carrying the first such root.  Each residual
    norm reported is the one ``newton_lockstep`` tested at that point.
    """
    starts = start_grid(system.layout, config)
    found, iterations, converged, norms = newton_lockstep(system, starts, config)
    roots = np.flatnonzero(converged)
    if not roots.size:
        # NaN ranks as inf; a start whose norm is not finite never moved, so
        # with no finite norm the point carried is the first start
        clean = np.where(np.isnan(norms), np.inf, norms)
        best = int(np.argmin(clean))
        raise ConvergenceFailure(float(clean[best]), found[best])

    found = found[roots]
    tol = _root_tol(found)
    unique = _distinct(found, tol)
    valid = [i for i in unique if min(found[i, 0], found[i, 1]) > tol[i]]
    if not valid:
        u = found[unique[0]]
        norm = float(norms[roots[unique[0]]])
        raise OrientationFailure(u, float(u[0]), float(u[1]), norm)

    best = min(valid, key=lambda i: (system.bending_energy(found[i]), i))
    u = found[best]
    return Solution(
        unknowns=u,
        control_points=system.layout.solution_points(u),
        residual_norm=float(norms[roots[best]]),
        iterations=int(iterations[roots[best]]),
        start_used=int(roots[best]),
    )
