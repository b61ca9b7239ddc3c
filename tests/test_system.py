"""Scene validation, normalization wiring, unknown layout, and residual assembly."""

import hashlib
import itertools

import numpy as np
import pytest

from gapspline import (
    BalanceError,
    BSplineCurve,
    CoordinateTie,
    DegenerateScene,
    InvalidArgument,
    NormalizedScene,
    ResidualSystem,
    Scene,
    build_layout,
    case1_tie,
    case2_tie,
    make_knot_vector,
    normalize_scene,
    parse_lagrangian,
    read_scene,
    RigidTransform,
)
from gapspline import lagrangian
from gapspline.solver import SolverConfig, newton_lockstep, start_grid

from conftest import (
    CUBIC, L_EX1, L_EX3, L_PLANNER, LEFT_2D, LEFT_3D, RIGHT_2D, RIGHT_3D, SCENES_DIR,
    moved_scene, random_rotation, shipped_layout,
)
from oracles import level_adjoint_gradient


def _curve(points):
    pts = np.asarray(points, dtype=float)
    return BSplineCurve(make_knot_vector(3, len(pts) - 3), pts)


# ---------------------------------------------------------------- scenes


def test_scene_basic_properties(scene_2d):
    assert scene_2d.dim == 2
    assert scene_2d.solution_point_count == 4
    gap = np.linalg.norm(scene_2d.right.points[0] - scene_2d.left.points[-1])
    np.testing.assert_allclose(gap, np.sqrt(10.0))


def test_scene_rejects_mixed_dimensions():
    with pytest.raises(InvalidArgument):
        Scene(_curve(LEFT_2D), _curve(RIGHT_3D))


def test_scene_rejects_touching_endpoints():
    left = _curve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])
    right = _curve([(3.0, 1.0), (4.0, 2.0), (5.0, 1.0), (6.0, 2.0)])
    with pytest.raises(DegenerateScene):
        Scene(left, right)


def test_scene_rejects_bad_topology(scene_2d):
    with pytest.raises(InvalidArgument):
        scene_2d.with_topology(0, 1)
    with pytest.raises(InvalidArgument):
        scene_2d.with_topology(3, 0)


def test_with_topology_returns_new_scene(scene_2d):
    bigger = scene_2d.with_topology(3, 2)
    assert bigger.solution_point_count == 5
    assert scene_2d.solution_point_count == 4


# ---------------------------------------------------------------- normalize


def test_normalize_scene_endpoints(scene_2d):
    norm = normalize_scene(scene_2d)
    np.testing.assert_allclose(norm.left.points[-1], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(norm.right.points[0], [norm.gap, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        norm.gap, np.linalg.norm(scene_2d.right.points[0] - scene_2d.left.points[-1])
    )


def test_normalize_scene_applies_one_rigid_map(scene_2d):
    norm = normalize_scene(scene_2d)
    np.testing.assert_allclose(
        norm.transform.apply(scene_2d.left.points), norm.left.points, atol=1e-12
    )
    np.testing.assert_allclose(
        norm.transform.apply(scene_2d.right.points), norm.right.points, atol=1e-12
    )


def test_normalize_scene_3d_roll(scene_3d):
    norm = normalize_scene(scene_3d)
    aux = norm.left.points[-2]
    assert aux[1] >= -1e-12
    assert abs(aux[2]) < 1e-10
    np.testing.assert_allclose(norm.right.points[0], [norm.gap, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------- layout


def test_layout_one_piece_cubic(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    assert layout.point_count == 4
    assert layout.unknown_count == 2
    assert layout.names == ("alpha", "beta")
    assert layout.free_coords == ()
    assert layout.first_index == -2


def test_layout_five_points_no_ties(scene_2d):
    layout = build_layout(normalize_scene(scene_2d.with_topology(3, 2)))
    assert layout.names == ("alpha", "beta", "p3.x", "p3.y")


def test_layout_five_points_case_ties(scene_2d):
    # same end slopes tie x3 to the mean of x2 and x4, opposite ones y3 to minus it
    assert case1_tie() == CoordinateTie(0, 0.5)
    assert case2_tie() == CoordinateTie(1, -0.5)
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    assert build_layout(norm, (case1_tie(),)).names == ("alpha", "beta", "p3.y")
    assert build_layout(norm, (case2_tie(),)).names == ("alpha", "beta", "p3.x")


def test_layout_3d_names(scene_3d):
    layout = build_layout(normalize_scene(scene_3d))
    assert layout.names == ("alpha", "beta", "p3.x", "p3.y", "p3.z")


def test_layout_requires_four_points(scene_2d):
    with pytest.raises(InvalidArgument):
        build_layout(normalize_scene(scene_2d.with_topology(2, 1)))


def test_layout_rejects_zero_tangent():
    left = _curve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 0.0)])
    right = _curve(RIGHT_2D)
    with pytest.raises(DegenerateScene, match="left curve's end tangent vanishes"):
        build_layout(normalize_scene(Scene(left, right)))
    right = _curve([(7.0, 2.0), (7.0, 2.0), (9.0, 1.0), (10.0, 2.0)])
    with pytest.raises(DegenerateScene, match="right curve's start tangent vanishes"):
        build_layout(normalize_scene(Scene(_curve(LEFT_2D), right)))


TIE_REFUSALS = [
    (2, (CoordinateTie(0.0, 0.5),), "tie target (3, 0.0) is not integer"),
    (2, (CoordinateTie(True, 0.5),), "tie target (3, True) is not integer"),
    (2, (CoordinateTie(0, np.nan),), "tie scale must be finite, got nan"),
    (2, (CoordinateTie(0, -np.inf),), "tie scale must be finite, got -inf"),
    # four points: p3 is the right tangency point, pinned by beta
    (1, (case1_tie(),), "tie target p3 is already fixed by a tangency tie"),
    (2, (CoordinateTie(2, 0.5),), "tie coordinate 2 outside dimension 2"),
    (2, (CoordinateTie(-1, 0.5),), "tie coordinate -1 outside dimension 2"),
    (2, (case1_tie(), case1_tie()), "coordinate p3[0] tied twice"),
    # the first refusal in that order wins
    (1, (CoordinateTie(0, np.nan),), "tie scale must be finite, got nan"),
    (1, (CoordinateTie(5, 0.5),), "tie target p3 is already fixed by a tangency tie"),
    (2, (case2_tie(), CoordinateTie(7, np.inf)), "tie scale must be finite, got inf"),
]


def test_tie_validation(scene_2d):
    # (pieces of the cubic, ties, the exact message), five refusals in order
    for pieces, ties, message in TIE_REFUSALS:
        norm = normalize_scene(scene_2d.with_topology(3, pieces))
        with pytest.raises(InvalidArgument) as info:
            build_layout(norm, ties)
        assert str(info.value) == message
    # numpy integers are integers
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm, (CoordinateTie(np.int64(0), 0.5),))
    assert layout.names == ("alpha", "beta", "p3.y")


def test_both_coordinates_of_one_point_may_be_tied(scene_2d):
    # x3 and y3 tied at once leaves only the tangency scalars unknown
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm, (case1_tie(), case2_tie()))
    assert layout.names == ("alpha", "beta")


# ------------------------------------------------------- reconstruction


def test_reconstruction_endpoints_and_tangency(scene_2d):
    norm = normalize_scene(scene_2d)
    layout = build_layout(norm)
    u = np.array([0.7, 0.4])
    pts = layout.solution_points(u)
    q1 = norm.left.points[-1]
    qn = norm.right.points[0]
    np.testing.assert_allclose(pts[0], q1, atol=1e-15)
    np.testing.assert_allclose(pts[-1], qn, atol=1e-15)
    # first leg = alpha * (left end tangent), exactly
    v = norm.left.points[-1] - norm.left.points[-2]
    w = norm.right.points[1] - norm.right.points[0]
    np.testing.assert_allclose(pts[1] - pts[0], 0.7 * v, atol=1e-12)
    np.testing.assert_allclose(pts[-1] - pts[-2], 0.4 * w, atol=1e-12)


def test_reconstruction_travel_direction_is_c1(scene_2d):
    # With alpha, beta > 0 the travel direction at each joint matches the
    # adjacent input curve's travel direction with a positive ratio.
    norm = normalize_scene(scene_2d)
    layout = build_layout(norm)
    pts = layout.solution_points(np.array([0.25, 1.5]))
    start, end = pts[1] - pts[0], pts[-1] - pts[-2]
    v = norm.left.derivative(1.0)
    w = norm.right.derivative(0.0)
    for got, ref in ((start, v), (end, w)):
        cos = got @ ref / (np.linalg.norm(got) * np.linalg.norm(ref))
        assert cos > 1.0 - 1e-12


def test_reconstruction_case1_tie_exact(scene_2d):
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm, (case1_tie(),))
    pts = layout.solution_points(np.array([0.5, 0.5, 2.0]))
    assert pts[2][0] == 0.5 * (pts[1][0] + pts[3][0])
    assert pts[2][1] == 2.0


def test_reconstruction_case2_tie_exact(scene_2d):
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm, (case2_tie(),))
    pts = layout.solution_points(np.array([0.5, 0.5, 1.25]))
    assert pts[2][1] == -0.5 * (pts[1][1] + pts[3][1])
    assert pts[2][0] == 1.25


@pytest.mark.parametrize("name, tie", [("mul_0_1", case1_tie), ("mul_1_1", case2_tie)])
def test_ties_hold_exactly_at_the_roots_of_rigidly_moved_scenes(name, tie):
    # the tied coordinate is the scaled sum of its sources' own values, not a
    # second affine image of u that agrees with it only up to rounding
    rng = np.random.default_rng(12)
    scene = read_scene((SCENES_DIR / f"{name}.json").read_text())
    tie = tie()
    c = tie.coord
    for _ in range(8):
        g = RigidTransform(random_rotation(rng, 2), rng.normal(scale=5.0, size=2))
        for degree, pieces in ((3, 2), (4, 1)):
            moved = moved_scene(scene.scene, g).with_topology(degree, pieces)
            layout = build_layout(normalize_scene(moved), (tie,))
            system = ResidualSystem(layout, parse_lagrangian(scene.lagrangian_text))
            found, _, converged, _ = newton_lockstep(system, start_grid(layout, SolverConfig()), SolverConfig())
            assert converged.any()
            for u in found[converged]:
                pts = layout.solution_points(u)
                assert pts[2, c] == tie.scale * (pts[1, c] + pts[3, c])


def test_literal_beta_tie_drops_the_base_point(scene_2d):
    norm = normalize_scene(scene_2d)
    u = np.array([0.3, 0.6])
    corrected = build_layout(norm).solution_points(u)
    literal = build_layout(norm, literal_beta_tie=True).solution_points(u)
    qn = norm.right.points[0]
    np.testing.assert_allclose(corrected[-2] - literal[-2], qn, atol=1e-14)
    np.testing.assert_allclose(corrected[1], literal[1], atol=1e-15)


def _sequence(layout, u):
    """Left data, connecting interior and right data at the unknowns u."""
    offset, basis = layout.sequence_map()
    return offset + np.tensordot(u, basis, axes=1)


def test_full_sequence_layout(scene_2d):
    norm = normalize_scene(scene_2d)
    layout = build_layout(norm)
    u = np.array([1.0, 1.0])
    seq = _sequence(layout, u)
    nl = len(norm.left.points)
    assert seq.shape == (nl + 2 + len(norm.right.points), 2)
    np.testing.assert_array_equal(seq[:nl], norm.left.points)
    np.testing.assert_array_equal(seq[-len(norm.right.points):], norm.right.points)
    assert layout.first_index == 2 - nl


def test_interior_jacobian_matches_finite_differences(scene_2d):
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm, (case2_tie(),))
    # the basis rows of the interior points, the constant d(points)/d(unknowns)
    J = layout.basis[:, 1:-1]
    assert J.shape == (3, 3, 2)
    rng = np.random.default_rng(7)
    u = rng.normal(size=3)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        hi = layout.solution_points(u + e)[1:-1]
        lo = layout.solution_points(u - e)[1:-1]
        np.testing.assert_allclose(J[k], (hi - lo) / (2 * h), atol=1e-8)


# ---------------------------------------------------------------- system


def _derivative_cases(scene_2d, scene_3d):
    """2D, both tie kinds and 3D trip systems, each with 5 random points u."""
    cases = [
        (normalize_scene(scene_2d), (), L_EX1),
        (normalize_scene(scene_2d.with_topology(3, 2)), (case1_tie(),), L_PLANNER),
        (normalize_scene(scene_2d.with_topology(3, 2)), (case2_tie(),), L_PLANNER),
        (normalize_scene(scene_3d), (), L_EX3),
    ]
    rng = np.random.default_rng(21)
    for norm, ties, text in cases:
        system = ResidualSystem(build_layout(norm, ties), parse_lagrangian(text))
        for _ in range(5):
            yield system, rng.normal(scale=0.8, size=system.layout.unknown_count)


def _central_difference(f, u):
    """Columns (f(u + h e_k) - f(u - h e_k)) / 2h, h = 1e-6 (|u_k| + 1)."""
    cols = []
    for k in range(len(u)):
        e = np.zeros(len(u))
        e[k] = 1e-6 * (abs(u[k]) + 1.0)
        cols.append((np.asarray(f(u + e)) - np.asarray(f(u - e))) / (2 * e[k]))
    return np.array(cols).T


def test_residual_matches_action_gradient(scene_2d, scene_3d):
    for system, u in _derivative_cases(scene_2d, scene_3d):
        layout = system.layout
        r = system.residual(u)
        fd = _central_difference(lambda v: system.jet(v)[0], u)
        scale = max(1.0, float(np.max(np.abs(r))))
        np.testing.assert_allclose(r / scale, fd / scale, atol=1e-6)
        # the level-adjoint gradient on the rebuilt point sequence, pulled
        # back through the constant interior Jacobian
        interior = range(2, layout.point_count)
        g = level_adjoint_gradient(
            system.lagrangian, _sequence(layout, u), interior, layout.first_index
        )
        pulled = np.einsum("kid,id->k", layout.basis[:, 1:-1], g)
        assert np.max(np.abs(r - pulled)) / scale < 1e-9


def test_jacobian_is_the_symmetric_derivative_of_the_residual(scene_2d, scene_3d):
    for system, u in _derivative_cases(scene_2d, scene_3d):
        jac = system.jacobian(u)
        np.testing.assert_array_equal(jac, jac.T)
        fd = _central_difference(system.residual, u)
        scale = max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_batched_jet_equals_the_jet_of_each_row(scene_2d, scene_3d, monkeypatch):
    numbers = "2*dot(D2(1),D2(2)) + 0.5*dot(D1(1),D1(3))*dot(D2(2),D2(3)) + 1.5"
    cases = [
        (normalize_scene(scene_2d), (), L_EX1),
        (normalize_scene(scene_2d.with_topology(3, 2)), (case2_tie(),), L_PLANNER),
        (normalize_scene(scene_2d.with_topology(3, 2)), (case1_tie(),), numbers),
        (normalize_scene(scene_3d), (), L_EX3),
    ]
    rng = np.random.default_rng(5)
    # expanded, and assembled term by term, each term on its own unknowns
    for limit, (norm, ties, text) in itertools.product((lagrangian.MAX_EXPANDED, 0), cases):
        monkeypatch.setattr(lagrangian, "MAX_EXPANDED", limit)
        system = ResidualSystem(build_layout(norm, ties), parse_lagrangian(text))
        m = system.layout.unknown_count
        u = rng.normal(scale=0.8, size=(2, 3, m))
        batch = system.jet(u)
        assert [part.shape for part in batch] == [(2, 3), (2, 3, m), (2, 3, m, m)]
        for row in np.ndindex(2, 3):
            np.testing.assert_array_equal(batch[2][row], batch[2][row].T)
            for batched, alone in zip(batch, system.jet(u[row])):
                np.testing.assert_array_equal(batched[row], alone)


# Lagrangians of degree 2 and 4 in 2D; in 3D also degree 3 (a trip) and 5,
# past MAX_DEGREE
JET_TEXTS = {
    2: [
        L_EX1,
        "2*dot(D2(1),D2(2)) + 0.5*dot(D1(1),D1(3))*dot(D2(2),D2(3)) + 1.5",
        L_PLANNER,
    ],
    3: [
        "dot(D3(1),D3(2))",
        L_EX3,
        L_PLANNER,
        "trip(D2(1),D2(2),D2(3))*dot(D1(1),D1(2))",
    ],
}

# SHA-256 over the value, gradient and Hessian bytes of every jet in
# test_jets_are_pinned_bit_for_bit, in its order, one digest per limit: at
# MAX_EXPANDED, where only the degree-5 product is not expanded whole, and
# at 0; either way every part not expanded whole is compiled on its own
# unknowns
PINNED_JETS = {
    lagrangian.MAX_EXPANDED: "b68de0d98f4f1b21e56f4d36a433d92f26d6d26d80b1dbf78dbf09d2c3343c8c",
    0: "40fab48bb859f8883d05938633a57d5b57e430916c4effc8806f6b8571b308dc",
}


def test_jets_are_pinned_bit_for_bit(monkeypatch):
    for limit, pinned in PINNED_JETS.items():
        monkeypatch.setattr(lagrangian, "MAX_EXPANDED", limit)
        digest = hashlib.sha256()
        rng = np.random.default_rng(20)
        for name in ("example1", "example3", "mul_0_1"):
            layout, _ = shipped_layout(name)
            m = layout.unknown_count
            for text in JET_TEXTS[layout.dim]:
                system = ResidualSystem(layout, parse_lagrangian(text))
                for shape in ((m,), (9, m), (3, 31, m)):
                    for part in system.jet(rng.normal(scale=0.8, size=shape)):
                        digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
        assert digest.hexdigest() == pinned, limit


def test_every_jet_returns_a_writable_hessian_of_its_own(scene_2d, scene_3d, monkeypatch):
    cases = [
        (scene_2d, L_EX1),
        (scene_3d, "dot(D3(1),D3(2))"),
        (scene_3d, L_EX3),
        (scene_2d, L_PLANNER),
        (scene_3d, L_PLANNER),
    ]
    for limit, (scene, text) in itertools.product((lagrangian.MAX_EXPANDED, 0), cases):
        monkeypatch.setattr(lagrangian, "MAX_EXPANDED", limit)
        system = ResidualSystem(build_layout(normalize_scene(scene)), parse_lagrangian(text))
        m = system.layout.unknown_count
        for u in (np.full(m, 0.3), np.full((4, m), 0.3)):
            hess = system.jet(u)[2]
            want = hess.copy()
            assert hess.flags.writeable
            hess[...] = np.nan
            np.testing.assert_array_equal(system.jet(u)[2], want)


def test_only_jet_takes_a_batch_of_unknowns(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    system = ResidualSystem(layout, parse_lagrangian(L_EX1))
    m = system.layout.unknown_count
    batch = np.full((2, m), 0.9)
    for single in (
        layout.solution_points,
        system.bending_energy,
        system.residual,
        system.jacobian,
    ):
        with pytest.raises(InvalidArgument):
            single(batch)
    assert system.jet(batch)[1].shape == (2, m)
    with pytest.raises(InvalidArgument):
        system.jet(np.zeros((2, m + 1)))


def test_straight_line_reconstruction_has_zero_residual(straight_scene):
    norm = normalize_scene(straight_scene)
    layout = build_layout(norm)
    system = ResidualSystem(layout, parse_lagrangian(L_EX1))
    # chord length 4, both tangents unit: the straight configuration is
    # alpha = beta = 4/3
    u_star = np.array([4.0 / 3.0, 4.0 / 3.0])
    pts = layout.solution_points(u_star)
    np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-14)
    np.testing.assert_allclose(system.residual(u_star), 0.0, atol=1e-12)
    np.testing.assert_allclose(system.bending_energy(u_star), 0.0, atol=1e-12)


def test_residual_homogeneity_under_coordinate_scaling(scene_2d):
    lam = 1.7
    for text, degree in ((L_EX1, 2), (L_PLANNER, 4)):
        base = scene_2d.with_topology(3, 2)
        scaled = Scene(
            base.left.transformed(base.left.points * lam),
            base.right.transformed(base.right.points * lam),
            base.solution_degree,
            base.solution_pieces,
        )
        ties = (case1_tie(),)
        sys_a = ResidualSystem(build_layout(normalize_scene(base), ties),
                               parse_lagrangian(text))
        sys_b = ResidualSystem(build_layout(normalize_scene(scaled), ties),
                               parse_lagrangian(text))
        u = np.array([0.6, 0.9, 0.4])
        u_scaled = u.copy()
        u_scaled[2:] *= lam  # alpha, beta are scale-free ratios
        ra = sys_a.residual(u)
        rb = sys_b.residual(u_scaled)
        np.testing.assert_allclose(rb[:2], lam**degree * ra[:2], rtol=1e-9)
        np.testing.assert_allclose(rb[2:], lam ** (degree - 1) * ra[2:], rtol=1e-9)


def test_residual_ignores_out_of_support_data(scene_2d):
    norm = normalize_scene(scene_2d)
    layout = build_layout(norm)
    system = ResidualSystem(layout, parse_lagrangian(L_EX1))
    u = np.array([0.31, 0.77])
    r = system.residual(u)

    moved = norm.left.points.copy()
    moved[0] += [0.3, -0.2]  # outside every leaf's difference window
    poked = NormalizedScene(norm.original, norm.left.transformed(moved),
                            norm.right, norm.transform)
    r2 = ResidualSystem(build_layout(poked), parse_lagrangian(L_EX1)).residual(u)
    np.testing.assert_array_equal(r, r2)


def test_balance_error_when_lagrangian_misses_all_unknowns(scene_2d):
    norm = normalize_scene(scene_2d)
    layout = build_layout(norm)
    # differences of left-curve points only: no unknown can move them
    expr = parse_lagrangian("dot(D2(-2),D2(-1))")
    with pytest.raises(BalanceError) as info:
        ResidualSystem(layout, expr)
    assert info.value.unknowns == 2
    assert info.value.equations == 0
    assert "alpha" in info.value.detail and "beta" in info.value.detail


def test_balance_error_names_only_dead_unknowns(scene_2d):
    norm = normalize_scene(scene_2d.with_topology(3, 2))
    layout = build_layout(norm)
    expr = parse_lagrangian("dot(D1(1),D1(1))")  # touches points 1..2 only
    with pytest.raises(BalanceError) as info:
        ResidualSystem(layout, expr)
    assert info.value.unknowns == 4
    assert info.value.equations == 1
    assert "alpha" not in info.value.detail
    assert "beta" in info.value.detail


def test_leaf_outside_data_window_rejected(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    with pytest.raises(InvalidArgument, match=r"reads points 1\.\.8, but the scene only provides -2\.\.7"):
        ResidualSystem(layout, parse_lagrangian("dot(D3(5),D1(1))"))
    with pytest.raises(InvalidArgument, match=r"reads points -5\.\.2, but"):
        ResidualSystem(layout, parse_lagrangian("dot(D1(-5),D1(1))"))


def test_bending_energy_matches_direct_sum(scene_2d):
    layout = build_layout(normalize_scene(scene_2d))
    system = ResidualSystem(layout, parse_lagrangian(L_EX1))
    u = np.array([0.9, 1.1])
    pts = layout.solution_points(u)
    second = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
    np.testing.assert_allclose(system.bending_energy(u),
                               float(np.sum(second * second)), atol=1e-12)
