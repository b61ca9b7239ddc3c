import dataclasses
from unittest import mock

import numpy as np
import pytest

from gapspline import (
    ConvergenceFailure,
    InvalidArgument,
    OrientationFailure,
    ResidualSystem,
    RigidTransform,
    SolverConfig,
    build_layout,
    case2_tie,
    default_initial_guess,
    newton,
    normalize_scene,
    parse_lagrangian,
    solve,
    start_grid,
)
from gapspline.solver import LADDER, STALL_FACTOR, STALL_WINDOW, _distinct, _root_tol, newton_lockstep

from conftest import L_EX1, L_EX2, L_PLANNER, moved_scene, random_rotation, shipped_layout


def _system(scene, text, ties=()):
    layout = build_layout(normalize_scene(scene), ties)
    return ResidualSystem(layout, parse_lagrangian(text))


def _shipped_system(name):
    """The system `gapspline solve` builds for a shipped scene."""
    layout, text = shipped_layout(name)
    return ResidualSystem(layout, parse_lagrangian(text))


def _one_start_newton(system, u0, config):
    """Damped Newton from one start, trial by trial: the lockstep's reference.

    Its ladder is spelled out here, halving from 1 down to 2**-30, and so is
    its stall rule, a norm not below half the norm 10 iterations earlier, so
    that it checks ``LADDER`` and the stall constants rather than reading them.
    """
    u = np.asarray(u0, dtype=float).copy()
    r = system.residual(u)
    norm = float(np.max(np.abs(r)))
    seen = []
    for iteration in range(config.max_iters):
        if norm <= config.tol:
            return u, iteration, True, norm
        if iteration >= 10 and norm >= 0.5 * seen[iteration - 10]:
            return u, iteration, False, norm
        seen.append(norm)
        try:
            delta = np.linalg.solve(system.jacobian(u), -r)
        except np.linalg.LinAlgError:
            return u, iteration, False, norm
        if not np.isfinite(delta).all():
            return u, iteration, False, norm
        step = 1.0
        while step >= 2.0**-30:
            candidate = u + step * delta
            r_new = system.residual(candidate)
            norm_new = float(np.max(np.abs(r_new)))
            if norm_new < norm:
                u, r, norm = candidate, r_new, norm_new
                break
            step *= 0.5
        else:
            return u, iteration, False, norm
    return u, config.max_iters, norm <= config.tol, norm


def test_config_validation():
    with pytest.raises(InvalidArgument):
        SolverConfig(tol=0.0)
    # an infinite tol accepts every start unrefined
    for tol in (np.inf, np.nan):
        with pytest.raises(InvalidArgument):
            SolverConfig(tol=tol)
    # a bool is an int to Python, but True is not a seed or a budget
    for seed in (-1, 1.5, True):
        with pytest.raises(InvalidArgument):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.int64(3)).seed == 3
    # 2.5 used to pass here and fail later in range() with a bare TypeError
    for max_iters in (0, 2.5, True, "3"):
        with pytest.raises(InvalidArgument):
            SolverConfig(max_iters=max_iters)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    # '1' used to fail inside numpy with a bare TypeError, and True passed as 1.0
    for tol in ("1", True, None, np.nan, np.inf, 0, -1e-10):
        with pytest.raises(InvalidArgument):
            SolverConfig(tol=tol)
    for tol in (1, 1e-12, np.float32(1e-6), np.int64(1)):
        assert SolverConfig(tol=tol).tol == tol


def test_config_fields_and_the_fixed_ladder():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iters", "seed"]
    steps = []
    step = 1.0
    while step >= 2.0**-30:
        steps.append(step)
        step *= 0.5
    assert LADDER.tolist() == steps


def test_default_guess_thirds_rule(straight_scene):
    layout = build_layout(normalize_scene(straight_scene))
    np.testing.assert_allclose(default_initial_guess(layout), [4 / 3, 4 / 3])


def test_default_guess_example_scene(scene_2d):
    # gap sqrt(10), |left tangent| = 2 sqrt(2), |right tangent| = sqrt(2)
    layout = build_layout(normalize_scene(scene_2d))
    guess = default_initial_guess(layout)
    np.testing.assert_allclose(guess, [np.sqrt(5) / 6, np.sqrt(5) / 3], atol=1e-14)


def test_default_guess_free_points_on_chord(straight_scene):
    layout = build_layout(normalize_scene(straight_scene.with_topology(3, 2)))
    guess = default_initial_guess(layout)
    # p3 starts halfway along the chord of length 4
    np.testing.assert_allclose(guess, [4 / 3, 4 / 3, 2.0, 0.0])


def test_start_grid_is_nine_points(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    starts = start_grid(layout, SolverConfig())
    assert len(starts) == 9
    base = default_initial_guess(layout)
    np.testing.assert_allclose(starts[4], base)  # middle of the 3x3 grid
    np.testing.assert_allclose(starts[0], [0.5 * base[0], 0.5 * base[1]])
    np.testing.assert_allclose(starts[-1], [2.0 * base[0], 2.0 * base[1]])


def test_start_grid_doubles_for_sign_flipping_ties(scene_2d):
    layout = build_layout(normalize_scene(scene_2d.with_topology(3, 2)), (case2_tie(),))
    starts = start_grid(layout, SolverConfig())
    assert len(starts) == 18
    np.testing.assert_allclose(starts[9][:2], starts[0][:2])
    np.testing.assert_allclose(starts[9][2:], -starts[0][2:])


def test_start_grid_seed_jitter_is_reproducible(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    a = start_grid(layout, SolverConfig(seed=5))
    b = start_grid(layout, SolverConfig(seed=5))
    c = start_grid(layout, SolverConfig(seed=6))
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    assert any(np.max(np.abs(u - v)) > 0 for u, v in zip(a, c))
    plain = start_grid(layout, SolverConfig())
    assert all(np.max(np.abs(u - v)) > 0 for u, v in zip(a, plain))


def test_newton_solves_linear_system_almost_immediately(scene_2d):
    # dot(D1(1),D1(3)) has a linear gradient, so one exact Newton step
    # lands on the stationary point.
    system = _system(scene_2d, L_EX2)
    u, iterations, converged, norm = newton(
        system, np.array([0.9, 1.7]), SolverConfig()
    )
    assert converged
    assert iterations == 1
    np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-9)


def test_newton_reports_failure_on_iteration_budget(scene_2d):
    system = _system(scene_2d, L_PLANNER)
    u0 = default_initial_guess(system.layout)
    _, _, converged, norm = newton(system, u0, SolverConfig(max_iters=1))
    assert not converged
    assert norm > 1e-10


def test_solve_example_scene_exact_root(scene_2d):
    solution = solve(_system(scene_2d, L_EX1))
    np.testing.assert_allclose(solution.unknowns, [1 / 6, 1 / 3], atol=1e-12)
    assert solution.residual_norm < 1e-10
    assert solution.alpha == pytest.approx(1 / 6)
    assert solution.beta == pytest.approx(1 / 3)
    assert solution.control_points.shape == (4, 2)
    np.testing.assert_allclose(solution.control_points[0], [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(
        solution.control_points[-1], [np.sqrt(10.0), 0.0], atol=1e-12
    )


def test_solve_is_deterministic(scene_2d):
    a = solve(_system(scene_2d, L_EX1))
    b = solve(_system(scene_2d, L_EX1))
    np.testing.assert_array_equal(a.unknowns, b.unknowns)
    np.testing.assert_array_equal(a.control_points, b.control_points)
    assert a.start_used == b.start_used
    assert a.iterations == b.iterations


def test_solve_rejects_misoriented_root(scene_2d):
    # The only stationary point of -alpha*beta*(v.w) is (0, 0), which fails
    # the alpha, beta > 0 requirement; the root travels with the error.  Its
    # alpha and beta are rounding noise of either sign, so the verdict must
    # hold in every frame, not only in those where the noise is negative.
    rng = np.random.default_rng(11)
    scenes = [scene_2d] + [
        moved_scene(
            scene_2d,
            RigidTransform(random_rotation(rng, 2), rng.normal(scale=5.0, size=2)),
        )
        for _ in range(5)
    ]
    for scene in scenes:
        with pytest.raises(OrientationFailure) as info:
            solve(_system(scene, L_EX2))
        exc = info.value
        assert exc.exit_code == 5
        np.testing.assert_allclose(exc.root, [0.0, 0.0], atol=1e-9)
        assert exc.alpha == pytest.approx(0.0, abs=1e-9)
        assert exc.residual_norm < 1e-10


def test_root_deduplication_matches_the_one_by_one_rule():
    # clusters of roots whose spreads straddle the tolerance 1e-8 * (1 + max|u|)
    rng = np.random.default_rng(21)
    for _ in range(300):
        centres = rng.normal(scale=10.0 ** rng.integers(-9, 3), size=(3, 3))
        roots = centres[rng.integers(0, 3, size=12)]
        roots = roots + rng.normal(size=roots.shape) * 10.0 ** rng.integers(-10, -6, size=(12, 1))
        kept = []
        for i, u in enumerate(roots):
            if not any(np.max(np.abs(u - roots[j])) <= 1e-8 * (1.0 + float(np.max(np.abs(roots[j])))) for j in kept):
                kept.append(i)
        assert _distinct(roots, _root_tol(roots)) == kept


def test_solve_reports_convergence_failure(scene_2d):
    with pytest.raises(ConvergenceFailure) as info:
        solve(_system(scene_2d, L_PLANNER), SolverConfig(max_iters=1))
    exc = info.value
    assert exc.exit_code == 4
    assert exc.best_residual > 0.0
    assert np.shape(exc.best_point) == (2,)


def test_convergence_failure_with_no_finite_residual_reports_the_first_start():
    # every start's residual overflows to NaN, so no start ever moves: the
    # best residual is inf and the point carried is the first start
    layout, _ = shipped_layout("mul_0_1")
    with np.errstate(all="ignore"):
        system = ResidualSystem(
            layout, parse_lagrangian("1e308*dot(D2(1),D2(2))*dot(D2(2),D2(3))")
        )
        with pytest.raises(ConvergenceFailure) as info:
            solve(system, SolverConfig())
    assert info.value.best_residual == np.inf
    first = start_grid(layout, SolverConfig())[0]
    np.testing.assert_array_equal(_bits(info.value.best_point), _bits(first))


def test_solve_quartic_converges_with_budget(wiggle_scene):
    from gapspline import case1_tie

    solution = solve(_system(wiggle_scene, L_PLANNER, (case1_tie(),)))
    assert solution.residual_norm < 1e-10
    assert solution.alpha > 0.0 and solution.beta > 0.0
    assert solution.control_points.shape == (5, 2)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


# the ids name the scene, the ladder's halving factor and any config but the
# default; mul_1_1's 18 starts nearly all backtrack, so it shows that the
# order of the jets changes nothing, and max_iters 7 and 1 cut starts off at
# the budget
@pytest.mark.parametrize(
    "name, config",
    [
        pytest.param(name, config, id=f"{name}-0.5{suffix}")
        for suffix, config in (
            ("", SolverConfig()),
            ("-seed7", SolverConfig(seed=7)),
            ("-max_iters7", SolverConfig(max_iters=7)),
            ("-max_iters1", SolverConfig(max_iters=1)),
        )
        for name in ("example1", "example2", "example3", "example4", "mul_0_1", "mul_1_1")
    ],
)
def test_lockstep_agrees_with_newton_start_by_start(name, config):
    system = _shipped_system(name)
    starts = start_grid(system.layout, config)
    found, iterations, converged, norms = newton_lockstep(system, np.array(starts), config)
    for k, u0 in enumerate(starts):
        for u, its, ok, norm in (newton(system, u0, config), _one_start_newton(system, u0, config)):
            assert (ok, its) == (converged[k], iterations[k])
            np.testing.assert_array_equal(_bits(found[k]), _bits(u))
            assert _bits(norms[k]) == _bits(norm)


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "mul_0_1", "mul_1_1"]
)
def test_solve_takes_its_verdicts_from_the_lockstep(name):
    # the norm solve reports, for a solution or a carried root, is the one
    # the lockstep computed at that start's last point, with no jet of its own
    system = _shipped_system(name)
    config = SolverConfig()
    starts = np.array(start_grid(system.layout, config))
    with mock.patch.object(
        ResidualSystem, "residual", autospec=True, side_effect=ResidualSystem.residual
    ) as residual, mock.patch.object(
        ResidualSystem, "jet", autospec=True, side_effect=ResidualSystem.jet
    ) as jet:
        found, _, converged, norms = newton_lockstep(system, starts, config)
        lockstep_jets = jet.call_count
        try:
            solution = solve(system, config)
            start, norm = solution.start_used, solution.residual_norm
        except OrientationFailure as exc:
            start = next(
                k for k in np.flatnonzero(converged) if (_bits(found[k]) == _bits(exc.root)).all()
            )
            norm = exc.residual_norm
    assert residual.call_count == 0
    assert jet.call_count == 2 * lockstep_jets
    assert _bits(norm) == _bits(norms[start])


# jets, jet rows and summed iterations of the lockstep over each shipped
# scene's start grid; every full step lowers the residual on example1-4
WORK = {
    "example1": (2, 18, 9),
    "example2": (2, 18, 9),
    "example3": (5, 42, 33),
    "example4": (7, 52, 43),
    "mul_0_1": (13, 407, 68),
    "mul_1_1": (62, 5035, 303),
}


@pytest.mark.parametrize("name", list(WORK))
def test_lockstep_work_on_the_shipped_scenes_is_pinned(name):
    system = _CountingJets(_shipped_system(name))
    config = SolverConfig()
    starts = np.array(start_grid(system.system.layout, config))
    _, iterations, _, _ = newton_lockstep(system, starts, config)
    rows = sum(int(np.prod(shape[:-1])) for shape in system.shapes)
    assert (len(system.shapes), rows, int(iterations.sum())) == WORK[name]


def test_lockstep_keeps_the_product_scenes_converged_starts():
    # Most of mul_1_1's 18 starts creep towards the non-isolated set
    # f = g = 0; the stall rule stops every one of them well inside the
    # budget.  The converged starts and the carried root are those the
    # one-start loop finds: starts 10, 11 and 13.  Without the stall rule
    # two starts ran all 100 iterations, for 200 jets over 12,724 rows and
    # 543 iterations; the work with it is pinned in WORK.
    system = _shipped_system("mul_1_1")
    config = SolverConfig()
    starts = start_grid(system.layout, config)
    _, iterations, converged, _ = newton_lockstep(system, np.array(starts), config)
    assert np.flatnonzero(converged).tolist() == [10, 11, 13]
    assert iterations.max() < config.max_iters
    with pytest.raises(OrientationFailure) as info:
        solve(system, config)
    root = _one_start_newton(system, starts[10], config)[0]
    np.testing.assert_allclose(info.value.root, root, rtol=0.0, atol=1e-9)


class _SquareAndIdentity:
    """r(u) = (u0**2, u1), Jacobian diag(2 u0, 1): singular wherever u0 = 0."""

    def jet(self, u):
        r = np.stack([u[..., 0] ** 2, u[..., 1]], axis=-1)
        jac = np.zeros(u.shape + (2,))
        jac[..., 0, 0] = 2.0 * u[..., 0]
        jac[..., 1, 1] = 1.0
        return None, r, jac


def test_singular_jacobian_fails_only_its_own_start():
    system = _SquareAndIdentity()
    config = SolverConfig()
    starts = np.array([[0.0, 1.0], [1.0, 1.0]])
    found, iterations, converged, norms = newton_lockstep(system, starts, config)
    assert converged.tolist() == [False, True]
    assert iterations[0] == 0
    np.testing.assert_array_equal(found[0], starts[0])
    u, its, ok, norm = newton(system, starts[1], config)
    assert ok and its == iterations[1] > 0
    np.testing.assert_array_equal(found[1], u)


class _CountingJets:
    """Wraps a system and records the batch shape of every ``jet`` call."""

    def __init__(self, system):
        self.system = system
        self.shapes = []

    def jet(self, u):
        self.shapes.append(u.shape)
        return self.system.jet(u)


def test_lockstep_walks_one_jet_per_iteration():
    # u0**2 = 0 converges linearly, so starts nearer 0 finish sooner; the
    # singular start fails at iteration 0 before any trial step
    system = _CountingJets(_SquareAndIdentity())
    starts = np.array([[1.0, 1.0], [1e-2, 1.0], [0.0, 1.0], [1e-4, 1.0]])
    _, iterations, converged, _ = newton_lockstep(system, starts, SolverConfig())
    assert converged.tolist() == [True, True, False, True]
    # u0**2 falls by 4 per iteration, far faster than the stall rule's half
    # per 10; the start at 1e-2 converges at the top of iteration 10, the
    # first iteration at which the rule looks, and the convergence test wins
    assert iterations.tolist() == [17, 10, 0, 4]
    # one jet at the starts, then one per iteration that still has running
    # starts, each at those starts' full steps, since every full step lowers
    # the residual
    assert len(system.shapes) == 1 + iterations.max()
    assert system.shapes[0] == (4, 2)
    running = [np.count_nonzero(iterations > k) for k in range(iterations.max())]
    assert system.shapes[1:] == [(n, 2) for n in running]

    system = _CountingJets(_SquareAndIdentity())
    _, iterations, converged, _ = newton_lockstep(system, starts[:1], SolverConfig(max_iters=3))
    assert not converged[0] and iterations[0] == 3
    assert system.shapes == [(1, 2)] + [(1, 2)] * 3


class _SteepLinear:
    """r(u) = u, with a Jacobian reported ``steepness`` times too steep.

    Every full step then keeps 1 - 1/steepness of the residual, and is taken
    since it lowers the norm.
    """

    def __init__(self, steepness):
        self.steepness = steepness

    def jet(self, u):
        jac = np.zeros(u.shape + u.shape[-1:])
        diagonal = np.arange(u.shape[-1])
        jac[..., diagonal, diagonal] = self.steepness
        return None, np.array(u), jac


def test_a_start_that_stops_halving_its_residual_stalls():
    assert (STALL_WINDOW, STALL_FACTOR) == (10, 0.5)
    starts = np.array([[1.0, -0.5]])
    # each step keeps 0.95 of the residual, and 0.95**10 = 0.60 is not below
    # half: the start stops unconverged at iteration 10, after 10 steps
    system = _CountingJets(_SteepLinear(20.0))
    found, iterations, converged, norms = newton_lockstep(system, starts, SolverConfig())
    assert not converged[0] and iterations[0] == 10
    assert system.shapes == [(1, 2)] + [(1, 2)] * 10
    np.testing.assert_allclose(norms[0], 0.95**10, rtol=1e-12)
    u, its, ok, norm = newton(_SteepLinear(20.0), starts[0], SolverConfig())
    assert (its, ok, _bits(norm)) == (10, False, _bits(norms[0]))
    np.testing.assert_array_equal(_bits(u), _bits(found[0]))
    # each step keeps 0.8, and 0.8**10 = 0.11 is below half: the start runs
    # on to converge, past the default budget of 100 iterations
    config = SolverConfig(max_iters=200)
    _, iterations, converged, norms = newton_lockstep(_SteepLinear(5.0), starts, config)
    assert converged[0] and 100 < iterations[0] < 110 and norms[0] <= config.tol


class _Arctan:
    """r(u) = arctan(u) row by row: the full Newton step overshoots from |u| > 1.4."""

    def jet(self, u):
        jac = np.zeros(u.shape + u.shape[-1:])
        diagonal = np.arange(u.shape[-1])
        jac[..., diagonal, diagonal] = 1.0 / (1.0 + u * u)
        return None, np.arctan(u), jac


def test_lockstep_backtracks_only_where_the_full_step_fails():
    system = _CountingJets(_Arctan())
    # the first start's full step overshoots at iteration 0, and half of it
    # lowers the residual; the second start never backtracks
    starts = np.array([[1.5, 0.5], [0.5, 0.5]])
    config = SolverConfig()
    found, iterations, converged, norms = newton_lockstep(system, starts, config)
    assert converged.all() and 0 < iterations[0] and 0 < iterations[1]
    # iteration 0: the full steps, then the rest of the ladder for the start
    # whose full step failed; from then on every full step lowers
    assert system.shapes == [(2, 2), (2, 2), (1, 30, 2), (2, 2), (2, 2), (1, 2)]
    for k, u0 in enumerate(starts):
        u, its, ok, norm = newton(_Arctan(), u0, config)
        np.testing.assert_array_equal(_bits(found[k]), _bits(u))
        assert (its, ok, _bits(norms[k])) == (iterations[k], converged[k], _bits(norm))
