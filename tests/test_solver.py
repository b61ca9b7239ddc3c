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

from conftest import L_EX1, L_EX2, L_PLANNER, moved_scene, random_rotation


def _system(scene, text, ties=()):
    layout = build_layout(normalize_scene(scene), ties)
    return ResidualSystem(layout, parse_lagrangian(text))


def test_config_validation():
    with pytest.raises(InvalidArgument):
        SolverConfig(tol=0.0)
    with pytest.raises(InvalidArgument):
        SolverConfig(max_iters=0)
    with pytest.raises(InvalidArgument):
        SolverConfig(damping=1.0)
    # a zero floor lets the backtracking step underflow to 0.0 and loop
    with pytest.raises(InvalidArgument):
        SolverConfig(min_step=0.0)
    with pytest.raises(InvalidArgument):
        SolverConfig(start_scales=())
    with pytest.raises(InvalidArgument):
        SolverConfig(start_scales=(1.0, 0.0))


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


def test_solve_reports_convergence_failure(scene_2d):
    with pytest.raises(ConvergenceFailure) as info:
        solve(_system(scene_2d, L_PLANNER), SolverConfig(max_iters=1))
    exc = info.value
    assert exc.exit_code == 4
    assert exc.best_residual > 0.0
    assert np.shape(exc.best_point) == (2,)


def test_solve_quartic_converges_with_budget(wiggle_scene):
    from gapspline import case1_tie

    solution = solve(_system(wiggle_scene, L_PLANNER, (case1_tie(),)))
    assert solution.residual_norm < 1e-10
    assert solution.alpha > 0.0 and solution.beta > 0.0
    assert solution.control_points.shape == (5, 2)
