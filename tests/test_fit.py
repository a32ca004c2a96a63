"""Fitting tests: solver derivatives against finite differences, then
end-to-end recovery of every surface family from synthetic points."""

import math
import time

import numpy as np
import pytest

from patchscape import fit as pf
from patchscape import pose as ps
from patchscape.fit import FitResult, WlmConfig, coverage_scale, fit_patch, wlm_minimize
from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    explicit_eval,
    implicit_eval,
    patch_frame,
)
from patchscape.pose import Pose5, Pose6

from _oracles import central_diff_jac

S, B = SurfaceType, BoundaryType


def _random_covs(rng, n, scale=1e-4):
    A = rng.standard_normal((n, 3, 3)) * scale
    return np.einsum("nij,nkj->nik", A, A) + 1e-10 * np.eye(3)


# ---------------------------------------------------------------------------
# Model and solver derivatives
# ---------------------------------------------------------------------------


def test_model_parameter_jacobian_matches_fd():
    rng = np.random.default_rng(0)
    model = pf._implicit_model(pf._K3_PARAB, 3)
    p = np.array([3.0, -7.0, 0.3, -0.2, 0.4, 0.1, -0.05, 1.2])
    pts = rng.uniform(-0.3, 0.3, (20, 3)) + [0, 0, 1]
    _, Jp, _, _ = model(pts, p)
    J_fd = central_diff_jac(lambda q: model(pts, q)[0], p)
    assert np.max(np.abs(Jp - J_fd)) < 1e-6


def test_model_point_gradient_matches_fd():
    rng = np.random.default_rng(1)
    model = pf._implicit_model(pf._K3_CCYL, 3)
    p = np.array([4.0, 0.2, 0.1, -0.3, 0.05, 0.0, 1.1])
    pts = rng.uniform(-0.3, 0.3, (5, 3)) + [0, 0, 1]
    _, _, g, _ = model(pts, p)
    for i in range(len(pts)):
        def fi(q):
            varied = pts.copy()
            varied[i] = q
            return np.array([model(varied, p)[0][i]])
        g_fd = central_diff_jac(fi, pts[i])
        assert np.max(np.abs(g[i] - g_fd[0])) < 1e-6


def test_model_mixed_derivative_matches_fd():
    rng = np.random.default_rng(2)
    model = pf._implicit_model(pf._K3_SPHERE, 2)
    p = np.array([2.5, 0.4, -0.3, 0.1, 0.2, 0.9])
    pts = rng.uniform(-0.2, 0.2, (6, 3)) + [0, 0, 1]
    _, _, _, H = model(pts, p)

    def g_flat(q):
        return model(pts, q)[2].ravel()

    H_fd = central_diff_jac(g_flat, p).reshape(len(pts), 3, -1)
    assert np.max(np.abs(H - H_fd)) < 1e-5


def test_normalized_residual_jacobian_matches_fd():
    rng = np.random.default_rng(3)
    model = pf._implicit_model(pf._K3_PARAB, 3)
    p = np.array([2.0, 5.0, 0.2, -0.1, 0.3, 0.05, -0.02, 1.0])
    pts = rng.uniform(-0.25, 0.25, (15, 3)) + [0, 0, 1]
    covs = _random_covs(rng, len(pts))
    _, J = pf._normalized_residual(model, pts, covs, p, 1e-12)
    J_fd = central_diff_jac(
        lambda q: pf._normalized_residual(model, pts, covs, q, 1e-12)[0], p
    )
    scale = np.max(np.abs(J_fd))
    assert np.max(np.abs(J - J_fd)) / scale < 1e-5


def test_side_wall_model_jacobian_matches_fd():
    rng = np.random.default_rng(4)
    line = (np.array([0.0, 0.0, 1.0]), np.array([0.3, -0.2, 0.9]))
    model = pf._implicit_model(pf._K3_PARAB, 3, line)
    p = np.array([2.0, 5.0, 0.2, -0.1, 0.3, 0.07])
    pts = rng.uniform(-0.25, 0.25, (12, 3)) + [0, 0, 1]
    _, Jp, _, H = model(pts, p)
    J_fd = central_diff_jac(lambda q: model(pts, q)[0], p)
    assert np.max(np.abs(Jp - J_fd)) < 1e-6
    H_fd = central_diff_jac(lambda q: model(pts, q)[2].ravel(), p).reshape(
        len(pts), 3, -1
    )
    assert np.max(np.abs(H - H_fd)) < 1e-5


def test_wlm_invariant_to_uniform_cov_scale():
    # a sphere keeps a 2-dim symmetry (orientation about its centre), so
    # compare the physical quantities rather than the raw parameter vector
    rng = np.random.default_rng(5)
    model = pf._implicit_model(pf._K3_SPHERE, 2)
    true_p = np.array([3.0, 0.3, -0.2, 0.05, -0.1, 1.0])
    pts = _sphere_points(true_p, rng, 60)
    covs = _random_covs(rng, len(pts), scale=1e-5)
    p0 = true_p + rng.normal(0, 0.02, 6)
    a = wlm_minimize(model, p0, pts, covs)
    b = wlm_minimize(model, p0, pts, 10.0 * covs)

    def centre(p):
        R = ps.exp_map(ps.rxy_to_r(p[1:3]))
        return p[3:6] + R[:, 2] / p[0]

    assert abs(a.p[0] - b.p[0]) < 1e-8
    assert np.allclose(centre(a.p), centre(b.p), atol=1e-8)


def _sphere_points(p, rng, n):
    kappa, rxy, t = p[0], p[1:3], p[3:6]
    patch = Patch(S.SPHERE, B.CIRCLE, np.array([kappa]), np.array([0.2]),
                  Pose5(rxy, t))
    u = rng.uniform(-0.14, 0.14, (n, 2))
    return explicit_eval(patch, u)


def test_wlm_converges_on_exact_sphere():
    rng = np.random.default_rng(6)
    model = pf._implicit_model(pf._K3_SPHERE, 2)
    true_p = np.array([3.0, 0.3, -0.2, 0.05, -0.1, 1.0])
    pts = _sphere_points(true_p, rng, 80)
    covs = np.broadcast_to(1e-8 * np.eye(3), (len(pts), 3, 3)).copy()
    res = wlm_minimize(model, true_p + [0.3, 0.02, -0.02, 0.003, 0.003, -0.005],
                       pts, covs)
    assert res.converged
    assert abs(res.p[0] - 3.0) < 1e-6
    assert res.sigma.shape == (6, 6)
    assert np.allclose(res.sigma, res.sigma.T)


def test_wlm_reports_nonconvergence():
    rng = np.random.default_rng(7)
    model = pf._implicit_model(pf._K3_SPHERE, 2)
    pts = _sphere_points(np.array([3.0, 0.3, -0.2, 0.05, -0.1, 1.0]), rng, 40)
    covs = np.broadcast_to(1e-8 * np.eye(3), (len(pts), 3, 3)).copy()
    res = wlm_minimize(model, np.array([3.0, 0.3, -0.2, 0.05, -0.1, 1.0]) + 0.3,
                       pts, covs, WlmConfig(max_iter=2))
    assert not res.converged
    assert res.iterations <= 2


# ---------------------------------------------------------------------------
# Stage-map Jacobians
# ---------------------------------------------------------------------------


def test_frame_from_xz_jacobians_match_fd():
    x = np.array([0.9, 0.1, -0.2])
    z = np.array([0.15, -0.1, 0.95])
    _, J_x, J_z = pf._frame_from_xz(x, z)
    Jx_fd = central_diff_jac(lambda q: pf._frame_from_xz(q, z)[0], x)
    Jz_fd = central_diff_jac(lambda q: pf._frame_from_xz(x, q)[0], z)
    assert np.max(np.abs(J_x - Jx_fd)) < 1e-6
    assert np.max(np.abs(J_z - Jz_fd)) < 1e-6


def test_recentre_jacobian_matches_fd():
    rxy = np.array([0.3, -0.2])
    qbar = np.array([0.2, 0.1, 1.1])
    t = np.array([0.15, 0.05, 0.95])
    zl = ps.exp_map(ps.rxy_to_r(rxy))[:, 2]
    _, J = pf._recentre_on_plane(qbar, rxy, t)

    def f(x):
        z, q, tt = x[:3], x[3:6], x[6:9]
        return q - float(z @ (q - tt)) * z

    J_fd = central_diff_jac(f, np.concatenate([zl, qbar, t]))
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_swap_frame_jacobian_matches_fd():
    r = np.array([0.4, -0.3, 0.2])
    _, J = pf._swap_frame(r)
    J_fd = central_diff_jac(lambda q: pf._swap_frame(q)[0], r)
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_extent_maps_match_fd():
    lam = coverage_scale(0.95)
    m = np.array([0.05, -0.02, 0.04, 0.02, 0.005])
    _, J = pf._extents_rect(m, lam)
    J_fd = central_diff_jac(lambda q: pf._extents_rect(q, lam)[0], m)
    assert np.max(np.abs(J - J_fd)) < 1e-6
    _, J = pf._extents_circle_from_vxy(m, lam)
    J_fd = central_diff_jac(lambda q: pf._extents_circle_from_vxy(q, lam)[0], m)
    assert np.max(np.abs(J - J_fd)) < 1e-6
    _, J = pf._extents_ellipse_uncentered(m, lam)
    J_fd = central_diff_jac(lambda q: pf._extents_ellipse_uncentered(q, lam)[0], m)
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_plane_spread_derivatives_match_fd():
    m = np.array([0.05, -0.02, 0.04, 0.02, 0.005])

    def f(q):
        l_p, l_m, theta, *_ = pf._plane_spread(q, 0.95)
        return np.array([l_p, l_m, theta])

    l_p, l_m, theta, dl_p, dl_m, dtheta, drho = pf._plane_spread(m, 0.95)
    J = np.vstack([dl_p @ drho, dl_m @ drho, dtheta @ drho])
    J_fd = central_diff_jac(f, m)
    assert np.max(np.abs(J - J_fd)) < 1e-6
    assert l_p >= l_m > 0.0


def _finisher_map(x, nk, nr, extents, shift, turn):
    """(k, d, r', t') of the finisher and its Jacobian, from x = (m, k, r, t)."""
    m, k, r, t = np.split(x, np.cumsum([5, nk, nr]))
    r3 = r if nr == 3 else ps.rxy_to_r(r)
    R, dR = ps.exp_map(r3), ps.jac_exp(r3)[:nr]
    d, r_new, t_new, J = pf._bound(m, k, r, t, R, dR, extents, shift, turn)
    return np.concatenate([k, d, r_new, t_new]), J


_LAM = coverage_scale(0.95)
_FINISHER_CASES = {
    # name: (nk, nr, extents, shift, turn)
    "cylindric_shift_x": (1, 3, lambda m: pf._extents_rect(m, _LAM), (0,), None),
    "circular": (1, 2, lambda m: pf._extents_circle_from_vxy(m, _LAM), (), None),
    "elliptic": (2, 3, lambda m: pf._extents_ellipse_uncentered(m, _LAM), (), None),
    "plane_circle": (
        0, 2, lambda m: pf._extents_plane(m, 0.95, B.CIRCLE), (0, 1), None,
    ),
    "plane_ellipse_turn": (
        0, 2, lambda m: pf._extents_plane(m, 0.95, B.ELLIPSE), (0, 1),
        lambda m: pf._plane_turn(m, 0.95),
    ),
    "plane_aarect_turn": (
        0, 2, lambda m: pf._extents_plane(m, 0.95, B.AARECT), (0, 1),
        lambda m: pf._plane_turn(m, 0.95),
    ),
    "plane_cquad_turn": (
        0, 2, lambda m: pf._extents_plane(m, 0.95, B.CQUAD), (0, 1),
        lambda m: pf._plane_turn(m, 0.95),
    ),
    "side_wall_no_shift": (1, 3, lambda m: pf._extents_rect(m, _LAM), (), None),
}


@pytest.mark.parametrize("case", sorted(_FINISHER_CASES))
def test_finisher_jacobian_matches_fd(case):
    args = _FINISHER_CASES[case]
    nk, nr = args[:2]
    m = np.array([0.05, -0.02, 0.04, 0.02, 0.005])
    k = np.array([4.0, -2.5])[:nk]
    r = np.array([0.4, -0.3, 0.2])[:nr]
    t = np.array([0.1, -0.05, 1.0])
    x = np.concatenate([m, k, r, t])
    _, J = _finisher_map(x, *args)
    J_fd = central_diff_jac(lambda q: _finisher_map(q, *args)[0], x)
    assert J.shape == J_fd.shape
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_ccyl_rebuild_jacobian_matches_fd():
    r = np.array([0.4, -0.3, 0.2])
    x = np.concatenate([ps.rxy_from_r(r) + [0.05, -0.03], [2.5], r, [0.1, -0.05, 1.0]])

    def rebuild(q):
        return pf._ccyl_rebuild(q[:2], q[2], q[3:6], q[6:])

    r_new, t_new, J = rebuild(x)
    J_fd = central_diff_jac(lambda q: np.concatenate([q[2:3], *rebuild(q)[:2]]), x)
    assert J.shape == J_fd.shape == (7, 9)
    assert np.max(np.abs(J - J_fd)) < 1e-6
    # t' depends on kappa and on r, not on t alone
    assert np.max(np.abs(J[4:, 2:6])) > 1e-3


def test_coverage_scale_value():
    # 95% central mass of a 1D normal lies within 1.96 std
    assert abs(coverage_scale(0.95) - 1.959964) < 1e-5
    with pytest.raises(ValueError):
        coverage_scale(1.0)


# ---------------------------------------------------------------------------
# End-to-end fits
# ---------------------------------------------------------------------------


def _make_data(patch, rng, n=200, sigma=1e-4, frac=0.85):
    """Noisy samples of a patch surface plus matching covariances."""
    lim = 0.95 * np.min(patch.d[: min(patch.d.size, 4)])
    u = rng.uniform(-lim, lim, (6 * n, 2))
    u = u[boundary_contains(patch, u * frac / 0.95)][:n]
    assert len(u) == n
    pts = explicit_eval(patch, u * frac / 0.95)
    pts = pts + rng.normal(0.0, sigma, pts.shape)
    covs = np.broadcast_to(sigma**2 * np.eye(3), (n, 3, 3)).copy()
    R, t = patch_frame(patch)
    assert float(R[:, 2] @ (np.zeros(3) - t)) > 0.0, "patch must face the origin"
    return pts, covs


# poses whose local z faces the origin from around z = 1
_R_FACING = (3.0, 0.4, 0.1)
_T_OFF = (0.08, -0.05, 1.05)


def _fit_and_check_surface(true_patch, result, atol=2e-3):
    """Fitted patch reproduces the true surface over the sampled region."""
    rng = np.random.default_rng(99)
    lim = 0.8 * np.min(true_patch.d[: min(true_patch.d.size, 4)])
    u = rng.uniform(-lim, lim, (200, 2))
    u = u[boundary_contains(true_patch, u)]
    pts = explicit_eval(true_patch, u)
    val, _ = implicit_eval(result.patch, pts)
    # implicit value ~ 2 * distance for these normalizations
    assert np.max(np.abs(val)) < atol


def test_fit_elliptic_paraboloid():
    rng = np.random.default_rng(10)
    true = Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([3.0, 7.0]),
                 np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.converged
    assert res.patch.s == S.ELLIPTIC_PARABOLOID
    assert np.allclose(res.patch.k, [3.0, 7.0], atol=0.1)
    assert abs(res.patch.k[0]) < abs(res.patch.k[1])
    Rf, tf = patch_frame(res.patch)
    Rt, tt = patch_frame(true)
    assert math.acos(min(1.0, Rf[:, 2] @ Rt[:, 2])) < math.radians(0.5)
    assert np.linalg.norm(tf - tt) < 2e-3
    _fit_and_check_surface(true, res)
    assert np.all(np.linalg.eigvalsh(res.patch.sigma) > -1e-12)


def test_fit_hyperbolic_paraboloid():
    rng = np.random.default_rng(11)
    true = Patch(S.HYPERBOLIC_PARABOLOID, B.ELLIPSE, np.array([-2.0, 6.0]),
                 np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.HYPERBOLIC_PARABOLOID
    assert np.allclose(res.patch.k, [-2.0, 6.0], atol=0.1)
    _fit_and_check_surface(true, res)


def test_fit_paraboloid_canonicalizes_axis_order():
    # generated with the larger curvature on x; the fit must swap axes
    rng = np.random.default_rng(12)
    true = Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([7.0, 3.0]),
                 np.array([0.2, 0.25]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.ELLIPTIC_PARABOLOID
    assert np.allclose(res.patch.k, [3.0, 7.0], atol=0.1)
    _fit_and_check_surface(true, res)


def test_fit_cylindric_paraboloid():
    rng = np.random.default_rng(13)
    true = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, np.array([4.0]),
                 np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.CYLINDRIC_PARABOLOID
    assert abs(res.patch.k[0] - 4.0) < 0.1
    _fit_and_check_surface(true, res)


def test_fit_circular_paraboloid():
    rng = np.random.default_rng(14)
    true = Patch(S.CIRCULAR_PARABOLOID, B.CIRCLE, np.array([5.0]),
                 np.array([0.2]), Pose5((3.0, 0.4), _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.CIRCULAR_PARABOLOID
    assert isinstance(res.patch.pose, Pose5)
    assert abs(res.patch.k[0] - 5.0) < 0.1
    _fit_and_check_surface(true, res)


def test_fit_near_flat_classifies_plane():
    rng = np.random.default_rng(15)
    true = Patch(S.PLANE, B.ELLIPSE, np.array([]), np.array([0.25, 0.2]),
                 Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.PLANE
    assert res.patch.b == B.ELLIPSE
    _fit_and_check_surface(true, res, atol=5e-3)


def test_fit_sphere():
    rng = np.random.default_rng(16)
    true = Patch(S.SPHERE, B.CIRCLE, np.array([4.0]), np.array([0.2]),
                 Pose5((3.0, 0.4), _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="sphere")
    assert res.patch.s == S.SPHERE
    assert isinstance(res.patch.pose, Pose5)
    assert abs(res.patch.k[0] - 4.0) < 0.05
    _fit_and_check_surface(true, res)
    # extent close to the sampled radius scaled by the coverage factor
    assert 0.05 < res.patch.d[0] < 0.3


def test_fit_cylinder():
    rng = np.random.default_rng(17)
    true = Patch(S.CIRCULAR_CYLINDER, B.AARECT, np.array([5.0]),
                 np.array([0.25, 0.15]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    res = fit_patch(pts, covs, surface="cylinder")
    assert res.patch.s == S.CIRCULAR_CYLINDER
    assert abs(res.patch.k[0] - 5.0) < 0.1
    Rf, _ = patch_frame(res.patch)
    Rt, _ = patch_frame(true)
    axis_err = math.acos(min(1.0, abs(Rf[:, 0] @ Rt[:, 0])))
    assert axis_err < math.radians(1.0)
    _fit_and_check_surface(true, res)


@pytest.mark.parametrize("boundary", [B.ELLIPSE, B.CIRCLE, B.AARECT, B.CQUAD])
def test_fit_plane_boundaries(boundary):
    rng = np.random.default_rng(18)
    R = ps.exp_map(np.array(_R_FACING))
    t = np.asarray(_T_OFF)
    # anisotropic Gaussian scatter in the plane, rotated 30 degrees
    n = 400
    ang = math.radians(30.0)
    xy = rng.standard_normal((n, 2)) * [0.08, 0.03]
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    local = np.column_stack([xy @ rot.T, np.zeros(n)])
    pts = local @ R.T + t + rng.normal(0, 1e-4, (n, 3))
    covs = np.broadcast_to(1e-8 * np.eye(3), (n, 3, 3)).copy()
    res = fit_patch(pts, covs, surface="plane", plane_boundary=boundary)
    patch = res.patch
    assert patch.s == S.PLANE and patch.b == boundary
    # plane orientation
    Rf, tf = patch_frame(patch)
    assert math.acos(min(1.0, abs(Rf[:, 2] @ R[:, 2]))) < math.radians(0.2)
    # center near the scatter centroid
    assert np.linalg.norm(tf - pts.mean(axis=0)) < 2e-3
    # coverage: close to gamma of the points inside the boundary
    local_f = (pts - tf) @ Rf
    frac = boundary_contains(patch, local_f[:, :2]).mean()
    assert frac > 0.9
    if boundary in (B.ELLIPSE, B.AARECT):
        # principal axis aligned with the 30 degree direction
        major = Rf[:, 0]
        want = R[:, :2] @ np.array([math.cos(ang), math.sin(ang)])
        assert abs(major @ want) > math.cos(math.radians(3.0))
        assert patch.d[0] > patch.d[1]
    if boundary == B.CQUAD:
        assert np.allclose(patch.d[:4], patch.d[0])
        assert 0.0 < patch.d[4] < math.pi / 4


def test_fit_plane_extent_scale():
    rng = np.random.default_rng(19)
    n = 2000
    sx = 0.05
    pts = np.column_stack([
        rng.normal(0, sx, n), rng.normal(0, sx, n), np.full(n, 1.0)
    ]) + rng.normal(0, 1e-5, (n, 3))
    covs = np.broadcast_to(1e-10 * np.eye(3), (n, 3, 3)).copy()
    res = fit_patch(pts, covs, surface="plane", plane_boundary=B.CIRCLE)
    want = math.sqrt(-2.0 * math.log(0.05)) * sx  # 95% mass of a 2D Gaussian
    assert abs(res.patch.d[0] - want) / want < 0.08


@pytest.mark.parametrize("surface", ["paraboloid", "sphere", "cylinder", "plane"])
def test_side_wall_keeps_center_on_line(surface):
    rng = np.random.default_rng(20)
    maker = {
        "paraboloid": Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([3.0, 7.0]),
                            np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF)),
        "sphere": Patch(S.SPHERE, B.CIRCLE, np.array([4.0]), np.array([0.2]),
                        Pose5((3.0, 0.4), _T_OFF)),
        "cylinder": Patch(S.CIRCULAR_CYLINDER, B.AARECT, np.array([5.0]),
                          np.array([0.25, 0.15]), Pose6(_R_FACING, _T_OFF)),
        "plane": Patch(S.PLANE, B.ELLIPSE, np.array([]), np.array([0.25, 0.2]),
                       Pose6(_R_FACING, _T_OFF)),
    }[surface]
    pts, covs = _make_data(maker, rng)
    n_dir = np.array([0.3, -0.2, 0.9])
    n_dir /= np.linalg.norm(n_dir)
    t0 = np.asarray(_T_OFF) - 0.3 * n_dir
    res = fit_patch(pts, covs, surface=surface, side_wall=(t0, n_dir))
    t_fit = res.patch.pose.t
    P = np.eye(3) - np.outer(n_dir, n_dir)
    assert np.linalg.norm(P @ (t_fit - t0)) < 1e-9
    # the center's covariance lies on the line too
    sig_t = res.patch.sigma[-3:, -3:]
    assert np.linalg.norm(P @ sig_t @ P) <= 1e-12 * float(n_dir @ sig_t @ n_dir)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_patch(np.zeros((5, 3)), surface="paraboloid")
    with pytest.raises(ValueError):
        fit_patch(np.zeros((50, 3)), surface="torus")


def test_fit_drops_nonfinite_rows():
    rng = np.random.default_rng(21)
    true = Patch(S.SPHERE, B.CIRCLE, np.array([4.0]), np.array([0.2]),
                 Pose5((3.0, 0.4), _T_OFF))
    pts, covs = _make_data(true, rng)
    pts[::7] = np.nan
    res = fit_patch(pts, covs, surface="sphere")
    assert abs(res.patch.k[0] - 4.0) < 0.1


def test_fit_speed_smoke():
    rng = np.random.default_rng(22)
    true = Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([3.0, 7.0]),
                 np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng, n=50)
    fit_patch(pts, covs, surface="paraboloid")  # warm up
    t0 = time.perf_counter()
    for _ in range(5):
        fit_patch(pts, covs, surface="paraboloid")
    dt = (time.perf_counter() - t0) / 5
    assert dt < 0.05


def test_plane_fit_sigma_tracks_noise_level():
    # out-of-plane variance of the fitted center shrinks like sigma^2 / n
    rng = np.random.default_rng(23)
    n, sig = 400, 1e-3
    pts = np.column_stack([
        rng.uniform(-0.2, 0.2, n), rng.uniform(-0.15, 0.15, n), np.full(n, 1.0)
    ]) + rng.normal(0, sig, (n, 3))
    covs = np.broadcast_to(sig**2 * np.eye(3), (n, 3, 3)).copy()
    res = fit_patch(pts, covs, surface="plane", plane_boundary=B.AARECT)
    patch = res.patch
    Rf, _ = patch_frame(patch)
    zf = Rf[:, 2]
    # t block of (d2, r3, t3) covariance
    sig_t = patch.sigma[5:, 5:]
    var_z = float(zf @ sig_t @ zf)
    assert var_z == pytest.approx(sig**2 / n, rel=0.5)
