"""Patch model tests: forms, boundaries, rigid transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchscape import pose as ps
from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    boundaries,
    curvature_k3,
    is_revolute,
    k3_map,
    patch_dof,
    patch_frame,
    projected_area,
    quad_vertices,
    transform_patch,
)
from patchscape.pose import Pose5, Pose6

from _oracles import DomainError, central_diff_jac, explicit_eval, implicit_eval

S = SurfaceType
B = BoundaryType


def _mk(s, b, k, d, r=(0.1, -0.2, 0.3), t=(0.5, -0.4, 1.2), sigma=None):
    pose = Pose5(np.asarray(r)[:2], t) if is_revolute(s, b) else Pose6(r, t)
    return Patch(s, b, np.asarray(k, float), np.asarray(d, float), pose, sigma)


ALL_TYPES = [
    (S.ELLIPTIC_PARABOLOID, B.ELLIPSE, [3.0, 7.0], [0.3, 0.2]),
    (S.HYPERBOLIC_PARABOLOID, B.ELLIPSE, [-2.0, 6.0], [0.25, 0.2]),
    (S.CYLINDRIC_PARABOLOID, B.AARECT, [4.0], [0.3, 0.15]),
    (S.CIRCULAR_PARABOLOID, B.CIRCLE, [5.0], [0.2]),
    (S.PLANE, B.ELLIPSE, [], [0.3, 0.2]),
    (S.PLANE, B.CIRCLE, [], [0.25]),
    (S.PLANE, B.AARECT, [], [0.3, 0.2]),
    (S.PLANE, B.CQUAD, [], [0.3, 0.3, 0.3, 0.3, 0.6]),
    (S.SPHERE, B.CIRCLE, [4.0], [0.2]),
    (S.CIRCULAR_CYLINDER, B.AARECT, [4.0], [0.3, 0.2]),
]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_rejects_wrong_curvature_count():
    with pytest.raises(ValueError):
        _mk(S.SPHERE, B.CIRCLE, [1.0, 2.0], [0.2])


def test_rejects_wrong_extent_count():
    with pytest.raises(ValueError):
        _mk(S.PLANE, B.AARECT, [], [0.1])


@pytest.mark.parametrize(
    "b, d",
    [(B.ELLIPSE, [0.0, 0.1]), (B.ELLIPSE, [-0.1, 0.1]), (B.CIRCLE, [math.nan]),
     (B.AARECT, [0.1, math.inf]), (B.CQUAD, [0.3, 0.0, 0.3, 0.3, 0.6]),
     (B.CQUAD, [0.3, 0.3, 0.3, 0.3, 0.0]), (B.CQUAD, [0.3, 0.3, 0.3, 0.3, -0.6]),
     (B.CQUAD, [0.3, 0.3, 0.3, 0.3, math.pi / 2]), (B.CQUAD, [0.3, 0.3, 0.3, 0.3, 2.0])],
    ids=["ellipse_zero", "ellipse_negative", "circle_nan", "aarect_inf", "cquad_zero_extent",
         "cquad_gamma_zero", "cquad_gamma_negative", "cquad_gamma_right", "cquad_gamma_obtuse"],
)
def test_rejects_extents_that_bound_no_region(b, d):
    """Every extent is finite and positive, and a cquad's gamma lies in
    (0, pi/2): past pi/2 its vertices run clockwise."""
    with pytest.raises(ValueError, match="extents must be finite and positive|gamma"):
        _mk(S.PLANE, b, [], d)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=4),
       st.floats(1e-3, math.pi / 2 - 1e-3))
def test_accepted_cquads_turn_counter_clockwise(radii, gam):
    """Positive extents and gamma in (0, pi/2) put the quad's diagonals
    across the origin, so every accepted cquad is convex and CCW."""
    v = quad_vertices(_mk(S.PLANE, B.CQUAD, [], radii + [gam]).d)
    e = np.roll(v, -1, axis=0) - v
    assert (e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1) > 0.0).all()


def test_rejects_incompatible_boundary():
    with pytest.raises(ValueError):
        _mk(S.SPHERE, B.AARECT, [1.0], [0.1, 0.1])


def test_rejects_wrong_pose_dof():
    with pytest.raises(ValueError):
        Patch(S.SPHERE, B.CIRCLE, np.array([1.0]), np.array([0.2]),
              Pose6((0.1, 0.2, 0.0), (0, 0, 1)))
    with pytest.raises(ValueError):
        Patch(S.PLANE, B.AARECT, np.array([]), np.array([0.2, 0.1]),
              Pose5((0.1, 0.2), (0, 0, 1)))


def test_rejects_bad_sigma_shape():
    with pytest.raises(ValueError):
        _mk(S.PLANE, B.AARECT, [], [0.3, 0.2], sigma=np.eye(4))


@pytest.mark.parametrize("s,b,k,d", ALL_TYPES)
def test_dof_counts(s, b, k, d):
    expected = {
        (S.ELLIPTIC_PARABOLOID, B.ELLIPSE): 10,
        (S.HYPERBOLIC_PARABOLOID, B.ELLIPSE): 10,
        (S.CYLINDRIC_PARABOLOID, B.AARECT): 9,
        (S.CIRCULAR_PARABOLOID, B.CIRCLE): 7,
        (S.PLANE, B.ELLIPSE): 8,
        (S.PLANE, B.CIRCLE): 6,
        (S.PLANE, B.AARECT): 8,
        (S.PLANE, B.CQUAD): 11,
        (S.SPHERE, B.CIRCLE): 7,
        (S.CIRCULAR_CYLINDER, B.AARECT): 9,
    }[(s, b)]
    assert patch_dof(_mk(s, b, k, d)) == expected


def test_curvature_expansion():
    assert np.allclose(curvature_k3(_mk(S.ELLIPTIC_PARABOLOID, B.ELLIPSE,
                                        [3, 7], [0.3, 0.2])), [3, 7, 0])
    assert np.allclose(curvature_k3(_mk(S.CYLINDRIC_PARABOLOID, B.AARECT,
                                        [4], [0.3, 0.2])), [0, 4, 0])
    assert np.allclose(curvature_k3(_mk(S.CIRCULAR_PARABOLOID, B.CIRCLE,
                                        [5], [0.2])), [5, 5, 0])
    assert np.allclose(curvature_k3(_mk(S.PLANE, B.CIRCLE, [], [0.2])), [0, 0, 0])
    assert np.allclose(curvature_k3(_mk(S.SPHERE, B.CIRCLE, [4], [0.2])), [4, 4, 4])
    assert np.allclose(curvature_k3(_mk(S.CIRCULAR_CYLINDER, B.AARECT,
                                        [4], [0.3, 0.2])), [0, 4, 4])


def test_family_readers_agree_with_patch_rules():
    """boundaries, k3_map and is_revolute state the rules a Patch enforces."""
    pairs = {(s, b) for s in S for b in boundaries(s)}
    assert pairs == {(s, b) for s, b, _, _ in ALL_TYPES}
    for s in S:
        for b in B:
            if (s, b) not in pairs:
                with pytest.raises(ValueError, match="cannot carry"):
                    _mk(s, b, [1.0] * k3_map(s).shape[1], [0.1] * 5)
    for s, b, k, d in ALL_TYPES:
        p = _mk(s, b, k, d)
        assert np.array_equal(curvature_k3(p), k3_map(s) @ p.k)
        assert isinstance(p.pose, Pose5) == is_revolute(s, b)
    assert {s for s, b in pairs if is_revolute(s, b)} == {
        S.CIRCULAR_PARABOLOID, S.SPHERE, S.PLANE}


# ---------------------------------------------------------------------------
# Implicit / explicit consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s,b,k,d", ALL_TYPES)
def test_explicit_points_satisfy_implicit(s, b, k, d):
    patch = _mk(s, b, k, d)
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.1, 0.1, size=(40, 2))
    pts_w = explicit_eval(patch, u)
    val, ok = implicit_eval(patch, pts_w)
    assert np.all(np.abs(val) < 1e-12)
    assert np.all(ok)
    pts_l = explicit_eval(patch, u, frame="local")
    val_l, _ = implicit_eval(patch, pts_l, frame="local")
    assert np.all(np.abs(val_l) < 1e-12)
    assert np.allclose(pts_l[:, :2], u)


def test_single_point_shapes():
    patch = _mk(S.SPHERE, B.CIRCLE, [4.0], [0.2])
    p = explicit_eval(patch, (0.05, -0.03))
    assert p.shape == (3,)
    val, ok = implicit_eval(patch, p)
    assert isinstance(val, float) and isinstance(ok, bool)
    assert abs(val) < 1e-12 and ok


def test_sphere_far_hemisphere_out_of_domain():
    # unit-diameter sphere, k=2: center at z=0.25 locally, far pole at z=0.5
    patch = _mk(S.SPHERE, B.CIRCLE, [2.0], [0.2], r=(0, 0, 0), t=(0, 0, 0))
    near = np.array([0.0, 0.0, 0.0])
    far = np.array([0.0, 0.0, 1.0])  # k*z = 2 > 1
    v_near, ok_near = implicit_eval(patch, near, frame="local")
    v_far, ok_far = implicit_eval(patch, far, frame="local")
    assert abs(v_near) < 1e-15 and ok_near
    assert abs(v_far) < 1e-15 and not ok_far


def test_cylinder_domain_flag():
    patch = _mk(S.CIRCULAR_CYLINDER, B.AARECT, [2.0], [0.3, 0.2])
    # on-axis far side: (y, z) = (0, 1) has k*z = 2 > 1
    _, ok = implicit_eval(patch, np.array([0.1, 0.0, 1.0]), frame="local")
    assert not ok


def test_explicit_domain_errors():
    sph = _mk(S.SPHERE, B.CIRCLE, [2.0], [0.4])
    with pytest.raises(DomainError):
        explicit_eval(sph, (0.6, 0.0))  # beyond radius 0.5 equator
    cyl = _mk(S.CIRCULAR_CYLINDER, B.AARECT, [2.0], [0.9, 0.6])
    with pytest.raises(DomainError):
        explicit_eval(cyl, (0.0, 0.55))
    explicit_eval(cyl, (0.9, 0.4))  # x unconstrained


def test_negative_curvature_sphere_explicit():
    patch = _mk(S.SPHERE, B.CIRCLE, [-3.0], [0.2])
    pts = explicit_eval(patch, np.array([[0.1, 0.05]]), frame="local")
    assert pts[0, 2] < 0.0
    val, ok = implicit_eval(patch, pts, frame="local")
    assert abs(val[0]) < 1e-14 and ok[0]


def test_frame_argument_validation():
    patch = _mk(S.PLANE, B.CIRCLE, [], [0.2])
    with pytest.raises(ValueError):
        implicit_eval(patch, np.zeros(3), frame="sensor")
    with pytest.raises(ValueError):
        explicit_eval(patch, np.zeros(2), frame="sensor")


# ---------------------------------------------------------------------------
# Boundaries and areas
# ---------------------------------------------------------------------------


def test_quad_vertices_ccw_and_rectangle_case():
    dx, dy = 0.3, 0.2
    diag = math.hypot(dx, dy)
    gam = math.atan2(dy, dx)
    v = quad_vertices([diag, diag, diag, diag, gam])
    assert np.allclose(v, [[dx, dy], [-dx, dy], [-dx, -dy], [dx, -dy]], atol=1e-15)
    x, y = v[:, 0], v[:, 1]
    shoelace = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    assert shoelace > 0.0  # CCW


def test_boundary_contains_ellipse():
    patch = _mk(S.PLANE, B.ELLIPSE, [], [0.3, 0.2])
    assert boundary_contains(patch, (0.0, 0.0))
    assert boundary_contains(patch, (0.3, 0.0))  # closed boundary
    assert not boundary_contains(patch, (0.3, 0.01))
    assert not boundary_contains(patch, (0.0, 0.21))


def test_boundary_contains_circle_and_rect():
    circ = _mk(S.PLANE, B.CIRCLE, [], [0.25])
    assert boundary_contains(circ, (0.25, 0.0))
    assert not boundary_contains(circ, (0.2, 0.2))
    rect = _mk(S.PLANE, B.AARECT, [], [0.3, 0.2])
    got = boundary_contains(rect, np.array([[0.3, 0.2], [0.31, 0.0], [-0.29, -0.19]]))
    assert got.tolist() == [True, False, True]


def test_boundary_contains_cquad_matches_rectangle():
    dx, dy = 0.3, 0.2
    diag = math.hypot(dx, dy)
    gam = math.atan2(dy, dx)
    quad = _mk(S.PLANE, B.CQUAD, [], [diag, diag, diag, diag, gam])
    rect = _mk(S.PLANE, B.AARECT, [], [dx, dy])
    rng = np.random.default_rng(3)
    u = rng.uniform(-0.4, 0.4, size=(500, 2))
    assert np.array_equal(boundary_contains(quad, u), boundary_contains(rect, u))


def test_boundary_contains_cquad_asymmetric():
    patch = _mk(S.PLANE, B.CQUAD, [], [0.4, 0.2, 0.2, 0.3, 0.5])
    v = quad_vertices(patch.d)
    assert boundary_contains(patch, (0.0, 0.0))
    for vert in v:
        assert boundary_contains(patch, vert)  # vertices are on the closed hull
        assert not boundary_contains(patch, vert * 1.01)


@pytest.mark.parametrize("s,b,k,d", ALL_TYPES)
def test_projected_area_positive(s, b, k, d):
    assert projected_area(_mk(s, b, k, d)) > 0.0


def test_projected_area_values():
    assert projected_area(_mk(S.PLANE, B.ELLIPSE, [], [0.3, 0.2])) == pytest.approx(
        math.pi * 0.06)
    assert projected_area(_mk(S.PLANE, B.CIRCLE, [], [0.25])) == pytest.approx(
        math.pi * 0.0625)
    assert projected_area(_mk(S.PLANE, B.AARECT, [], [0.3, 0.2])) == pytest.approx(0.24)
    dx, dy = 0.3, 0.2
    diag, gam = math.hypot(dx, dy), math.atan2(dy, dx)
    assert projected_area(
        _mk(S.PLANE, B.CQUAD, [], [diag, diag, diag, diag, gam])
    ) == pytest.approx(4 * dx * dy)


# ---------------------------------------------------------------------------
# Rigid transform
# ---------------------------------------------------------------------------


def _sample_world_points(patch, n=30, seed=5):
    rng = np.random.default_rng(seed)
    scale = 0.8 * min(np.min(patch.d[: min(patch.d.size, 4)]), 0.2)
    u = rng.uniform(-scale, scale, size=(6 * n, 2))
    u = u[boundary_contains(patch, u)][:n]
    assert len(u) == n
    return explicit_eval(patch, u)


def _pack(patch):
    r = patch.pose.rxy if isinstance(patch.pose, Pose5) else patch.pose.r
    return np.concatenate([patch.k, patch.d, r, patch.pose.t])


def _unpack(template, x):
    nk, nd = template.k.size, template.d.size
    revolute = isinstance(template.pose, Pose5)
    nr = 2 if revolute else 3
    k, dd = x[:nk], x[nk : nk + nd]
    r, t = x[nk + nd : nk + nd + nr], x[nk + nd + nr :]
    pose = Pose5(r, t) if revolute else Pose6(r, t)
    return Patch(template.s, template.b, k, dd, pose)


@pytest.mark.parametrize(
    "s,b,k,d",
    [
        (S.ELLIPTIC_PARABOLOID, B.ELLIPSE, [3.0, 7.0], [0.3, 0.2]),
        (S.SPHERE, B.CIRCLE, [4.0], [0.2]),
        (S.PLANE, B.CQUAD, [], [0.3, 0.3, 0.3, 0.3, 0.6]),
    ],
)
def test_transform_moves_surface_points_rigidly(s, b, k, d):
    patch = _mk(s, b, k, d, r=(0.3, 0.1, -0.2), t=(0.2, 0.1, 1.0))
    T = Pose6((0.2, -0.5, 0.4), (1.0, -2.0, 0.5))
    moved, _ = transform_patch(patch, T)
    pts = _sample_world_points(patch)
    moved_pts = ps.xform_fwd(pts, T.r, T.t)
    val, ok = implicit_eval(moved, moved_pts)
    assert np.max(np.abs(val)) < 1e-9
    assert np.all(ok)
    Rm, tm = patch_frame(moved)
    local = (moved_pts - tm) @ Rm
    assert np.all(boundary_contains(moved, local[:, :2]))


@pytest.mark.parametrize(
    "s,b,k,d,r",
    [
        (S.CIRCULAR_CYLINDER, B.AARECT, [4.0], [0.3, 0.2], (0.5, 0.2, -0.3)),
        (S.SPHERE, B.CIRCLE, [4.0], [0.2], (0.4, -0.3, 0.0)),
        # head-on: |r_xy| = pi - 0.05, the z axis 0.05 rad from -zhat
        (S.PLANE, B.CIRCLE, [], [0.25], (math.pi - 0.05) * np.array([0.6, -0.8, 0.0])),
    ],
)
def test_transform_jacobian_matches_finite_differences(s, b, k, d, r):
    patch = _mk(s, b, k, d, r=r, t=(0.3, -0.2, 1.1))
    T = Pose6((0.3, 0.2, -0.1), (0.5, 0.1, -0.2))
    _, J = transform_patch(patch, T)

    def f(x):
        return _pack(transform_patch(_unpack(patch, x), T)[0])

    J_fd = central_diff_jac(f, _pack(patch))
    assert np.max(np.abs(J - J_fd)) < 1e-5


def test_transform_carries_sigma():
    p0 = _mk(S.SPHERE, B.CIRCLE, [4.0], [0.2], r=(0.4, -0.3, 0.0))
    sigma = 0.01 * np.eye(7)
    patch = Patch(p0.s, p0.b, p0.k, p0.d, p0.pose, sigma)
    T = Pose6((0.3, 0.2, -0.1), (0.5, 0.1, -0.2))
    moved, J = transform_patch(patch, T)
    assert np.allclose(moved.sigma, J @ sigma @ J.T)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


@given(
    kx=st.floats(-8, 8),
    ky=st.floats(-8, 8),
    ux=st.floats(-0.15, 0.15),
    uy=st.floats(-0.15, 0.15),
)
@settings(max_examples=60, deadline=None)
def test_paraboloid_explicit_on_implicit_zero_set(kx, ky, ux, uy):
    patch = _mk(S.ELLIPTIC_PARABOLOID if kx * ky > 0 else S.HYPERBOLIC_PARABOLOID,
                B.ELLIPSE, [kx if kx != 0 else 1.0, ky if ky != 0 else 2.0],
                [0.3, 0.2])
    pt = explicit_eval(patch, (ux, uy))
    val, _ = implicit_eval(patch, pt)
    assert abs(val) < 1e-10


@given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_origin_always_inside_boundaries(da, db):
    for b, d in [(B.ELLIPSE, [da, db]), (B.CIRCLE, [da]), (B.AARECT, [da, db]),
                 (B.CQUAD, [da, da, da, da, 0.7])]:
        patch = _mk(S.PLANE, b, [], d)
        assert boundary_contains(patch, (0.0, 0.0))
