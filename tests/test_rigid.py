import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from gapspline.errors import DegenerateScene, InvalidArgument
from gapspline.rigid import RigidTransform, normalize_2d, normalize_3d


def test_identity_and_basic_actions():
    t = RigidTransform(np.eye(2), np.zeros(2))
    np.testing.assert_allclose(t.apply(np.array([3.0, 7.0])), (3, 7))
    shift = RigidTransform(np.eye(2), np.array([1.0, -1.0]))
    np.testing.assert_allclose(shift.apply(np.zeros(2)), (1, -1))
    quarter = RigidTransform(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    np.testing.assert_allclose(quarter.apply(np.array([1.0, 0.0])), (0, 1), atol=1e-15)


def test_rejects_improper_rotation():
    with pytest.raises(InvalidArgument):
        RigidTransform(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    with pytest.raises(InvalidArgument):
        RigidTransform(np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2))


def test_rejects_shapes_that_are_not_a_rigid_motion():
    for R, t in (
        (np.eye(2), np.zeros(3)),
        (np.eye(3), np.zeros(2)),
        (np.eye(3), np.zeros((3, 1))),
        (np.eye(4), np.zeros(4)),
        (np.eye(2)[:, :1], np.zeros(2)),
    ):
        with pytest.raises(InvalidArgument, match="are not a rigid motion"):
            RigidTransform(R, t)


def test_orthonormality_test_is_np_allclose_at_the_same_tolerance():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        eye = np.eye(dim)
        for _ in range(400):
            R = random_rotation(rng, dim)
            R[rng.integers(dim), rng.integers(dim)] += rng.choice([-1, 1]) * 10.0 ** rng.uniform(-11, -8)
            if rng.random() < 0.05:
                R[0, 0] = rng.choice([np.nan, np.inf])
            accepted = True
            try:
                RigidTransform(R, np.zeros(dim))
            except InvalidArgument as exc:
                accepted = "orthonormal" not in str(exc)
            with np.errstate(invalid="ignore"):
                assert accepted == np.allclose(R.T @ R, eye, atol=1e-9)


def test_inverse_round_trips_random_points():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        for _ in range(3):
            t = RigidTransform(random_rotation(rng, dim), rng.normal(size=dim))
            pts = rng.normal(size=(10, dim))
            np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)


def test_isometry():
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        t = RigidTransform(random_rotation(rng, dim), rng.normal(size=dim))
        a, b = rng.normal(size=(2, dim))
        assert abs(np.linalg.norm(t.apply(a) - t.apply(b)) - np.linalg.norm(a - b)) < 1e-12


def test_normalize_2d_places_gap_on_x_axis():
    t = normalize_2d(np.array([4.0, 3.0]), np.array([7.0, 2.0]))
    np.testing.assert_allclose(t.apply(np.array([4.0, 3.0])), (0, 0), atol=1e-14)
    np.testing.assert_allclose(
        t.apply(np.array([7.0, 2.0])), (np.sqrt(10), 0), atol=1e-14
    )


def test_normalize_2d_trivial_and_rotated():
    t = normalize_2d(np.zeros(2), np.array([5.0, 0.0]))
    np.testing.assert_allclose(t.rotation, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(t.translation, 0.0, atol=1e-15)
    t = normalize_2d(np.zeros(2), np.array([0.0, 2.0]))
    np.testing.assert_allclose(t.apply(np.array([0.0, 2.0])), (2, 0), atol=1e-14)


def test_normalize_2d_coincident_points():
    with pytest.raises(DegenerateScene):
        normalize_2d(np.ones(2), np.ones(2))


def test_normalize_refuses_wrong_shapes_and_coincident_3d_points():
    for pl, pr in ((np.zeros(3), np.ones(2)), (np.zeros(2), np.ones(3)), (np.zeros((1, 2)), np.ones(2))):
        with pytest.raises(InvalidArgument, match="normalize_2d expects two 2D points"):
            normalize_2d(pl, pr)
    for pl, pr, aux in (
        (np.zeros(2), np.ones(3), np.ones(3)),
        (np.zeros(3), np.ones(2), np.ones(3)),
        (np.zeros(3), np.ones(3), np.ones(2)),
    ):
        with pytest.raises(InvalidArgument, match="normalize_3d expects three 3D points"):
            normalize_3d(pl, pr, aux)
    with pytest.raises(DegenerateScene, match="boundary points coincide"):
        normalize_3d(np.ones(3), np.ones(3), np.zeros(3))


def test_normalize_3d_examples():
    t = normalize_3d(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-14)

    t = normalize_3d(np.zeros(3), np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(t.apply(np.array([0.0, 0.0, 2.0])), (2, 0, 0), atol=1e-14)

    pl = np.array([4.0, 3.0, -0.5])
    pr = np.array([7.0, 2.0, 0.0])
    t = normalize_3d(pl, pr, np.array([2.0, 1.0, -1.0]))
    np.testing.assert_allclose(t.apply(pr), (np.sqrt(10.25), 0, 0), atol=1e-13)


def test_normalize_3d_aux_lands_in_upper_half_plane():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pl, pr, aux = rng.normal(size=(3, 3))
        if np.linalg.norm(pr - pl) < 1e-3:
            continue
        t = normalize_3d(pl, pr, aux)
        a = t.apply(aux)
        assert a[1] >= -1e-12
        assert abs(a[2]) < 1e-10


def test_normalize_3d_collinear_aux_keeps_identity_roll():
    pl = np.zeros(3)
    pr = np.array([3.0, 0.0, 0.0])
    aux = np.array([-2.0, 0.0, 0.0])  # on the chord line
    t = normalize_3d(pl, pr, aux)
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-14)
    # a chord along -x is turned onto +x in the xy plane: a half-turn about z
    pl = np.array([1.0, 2.0, 3.0])
    t = normalize_3d(pl, pl - (3.0, 0.0, 0.0), pl + (5.0, 0.0, 0.0))
    np.testing.assert_array_equal(t.rotation, np.diag([-1.0, -1.0, 1.0]))


coord = st.floats(-10.0, 10.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([1.0, -1.0]),
    st.floats(-9.0, -6.0),
    st.floats(0.0, 2 * np.pi),
    st.floats(-1.0, 2.0),
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord),
)
def test_normalize_3d_is_exact_for_chords_near_the_x_axis(sign, log_angle, azimuth, log_d, pl, aux):
    # a chord 1e-9..1e-6 rad from +x or -x has no special case: p_right lands
    # on (d, 0, 0) to rounding, and aux in the upper xy half-plane
    angle = 10.0**log_angle
    pl = np.array(pl)
    direction = (sign * np.cos(angle), np.sin(angle) * np.cos(azimuth), np.sin(angle) * np.sin(azimuth))
    pr = pl + 10.0**log_d * np.array(direction)
    d = np.linalg.norm(pr - pl)
    t = normalize_3d(pl, pr, np.array(aux))
    np.testing.assert_allclose(t.apply(pr), (d, 0.0, 0.0), rtol=0.0, atol=1e-12 * d)
    a = t.apply(np.array(aux))
    tol = 1e-12 * max(1.0, d)
    assert a[1] >= -tol
    assert abs(a[2]) <= tol


def test_normalize_commutes_with_rigid_motion():
    # normalize(g . p) o g == normalize(p) as maps: the equivariance engine
    rng = np.random.default_rng(34)
    for dim in (2, 3):
        pl, pr = rng.normal(size=(2, dim))
        aux = rng.normal(size=dim)
        g = RigidTransform(random_rotation(rng, dim), rng.normal(size=dim))
        if dim == 2:
            t = normalize_2d(pl, pr)
            tg = normalize_2d(g.apply(pl), g.apply(pr))
        else:
            t = normalize_3d(pl, pr, aux)
            tg = normalize_3d(g.apply(pl), g.apply(pr), g.apply(aux))
        probe = rng.normal(size=(6, dim))
        np.testing.assert_allclose(
            tg.apply(g.apply(probe)), t.apply(probe), atol=1e-10
        )
