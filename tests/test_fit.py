"""Fitting tests: solver derivatives against finite differences, then
end-to-end recovery of every surface family from synthetic points."""

import math
import time

import numpy as np
import pytest

from patchscape import fit as pf
from patchscape import pose as ps
from patchscape.fit import FitResult, coverage_scale, fit_patch, wlm_minimize
from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    k3_map,
    patch_frame,
)
from patchscape.pose import Pose5, Pose6

from _oracles import (
    central_diff_jac,
    explicit_eval,
    implicit_eval,
    tensor_model,
    tensor_moment_joint_sigma,
    tensor_normalized_residual,
)

S, B = SurfaceType, BoundaryType


def _random_covs(rng, n, scale=1e-4):
    A = rng.standard_normal((n, 3, 3)) * scale
    return np.einsum("nij,nkj->nik", A, A) + 1e-10 * np.eye(3)


# ---------------------------------------------------------------------------
# Model and solver derivatives
# ---------------------------------------------------------------------------


def _line(t0, n):
    return np.array(t0, dtype=float), np.array(n, dtype=float)


def _cols(pts, covs):
    """Row-major (n, 3) points and (n, 3, 3) covariances in the fit's
    column-major layout: (3, n) and (3, 3, n)."""
    return np.ascontiguousarray(pts.T), np.ascontiguousarray(covs.transpose(1, 2, 0))


def _rows(model):
    """A residual model at the tests' row-major boundary: it takes (n, 3)
    points and (n, 3, 3) covariances, and gives g as (n, 3) and jac() as
    (n, npar)."""

    def rowmodel(pts, covs, p, v_min):
        res = model(*_cols(pts, covs), p, v_min)
        return res._replace(g=res.g.T, jac=lambda: res.jac().T)

    return rowmodel


# Each family's model (k3 map, rotation DoF, side-wall line) at a test
# p = [k, r, a], the origin at t0 + a n/|n| on the line (t0, n)
_K3_PARAB = k3_map(S.ELLIPTIC_PARABOLOID)  # the general paraboloid's map
_K3_SPHERE, _K3_CCYL, _K3_PLANE = k3_map(S.SPHERE), k3_map(S.CIRCULAR_CYLINDER), k3_map(S.PLANE)
_Z_AXIS = (0.0, 0.0, 1.0)
_WALL = _line((0.0, 0.0, 1.0), (0.3, -0.2, 0.9))
_MODEL_CASES = {
    "paraboloid": (_K3_PARAB, 3, _line((0.05, -0.02, 0.0), (0.1, 0.2, 1.0)),
                   [2.0, 5.0, 0.2, -0.1, 0.3, 1.0]),
    "sphere": (_K3_SPHERE, 2, _line((0.1, 0.2, 0.0), _Z_AXIS), [2.5, 0.4, -0.3, 0.9]),
    "plane": (_K3_PLANE, 2, _line((0.05, 0.1, 0.0), (-0.2, 0.1, 1.0)), [0.3, -0.2, 1.0]),
    "cylinder": (_K3_CCYL, 3, _line((0.05, 0.0, 0.0), (0.0, 0.3, 1.0)),
                 [4.0, 0.2, 0.1, -0.3, 1.1]),
    "side_wall": (_K3_PARAB, 3, _WALL, [2.0, 5.0, 0.2, -0.1, 0.3, 0.07]),
}


def _model_case(name, seed, n):
    k3_map, rot_dof, line, p = _MODEL_CASES[name]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.25, 0.25, (n, 3)) + [0, 0, 1]
    return _rows(pf._implicit_model(k3_map, rot_dof, line)), np.array(p), pts, rng


def _raw(model, pts, p):
    """(f, df/dp): with zero covariances and v_min = 1 the normalizer is 1."""
    res = model(pts, np.zeros((len(pts), 3, 3)), p, 1.0)
    return res.F, res.jac()


def test_model_parameter_jacobian_matches_fd():
    rng = np.random.default_rng(0)
    model = _rows(pf._implicit_model(_K3_PARAB, 3, _line((0.1, -0.05, 0.0), _Z_AXIS)))
    p = np.array([3.0, -7.0, 0.3, -0.2, 0.4, 1.2])
    pts = rng.uniform(-0.3, 0.3, (20, 3)) + [0, 0, 1]
    _, Jp = _raw(model, pts, p)
    J_fd = central_diff_jac(lambda q: _raw(model, pts, q)[0], p)
    assert np.max(np.abs(Jp - J_fd)) < 1e-6


def test_model_point_gradient_matches_fd():
    rng = np.random.default_rng(1)
    model = _rows(pf._implicit_model(_K3_CCYL, 3, _line((0.05, 0.0, 0.0), _Z_AXIS)))
    p = np.array([4.0, 0.2, 0.1, -0.3, 1.1])
    pts = rng.uniform(-0.3, 0.3, (5, 3)) + [0, 0, 1]
    covs = np.broadcast_to(np.eye(3), (len(pts), 3, 3))
    g = model(pts, covs, p, 1e-12).g
    for i in range(len(pts)):
        def fi(q):
            varied = pts.copy()
            varied[i] = q
            return np.array([_raw(model, varied, p)[0][i]])
        g_fd = central_diff_jac(fi, pts[i])
        assert np.max(np.abs(g[i] - g_fd[0])) < 1e-6


def test_model_mixed_derivative_matches_fd():
    # the solver uses d2f/dq dp only contracted with cg = Sigma g. Take that
    # contraction out of J = df/dp / s - f / s^3 cg^T d2f/dq dp and check it
    # against d(cg . g)/dp with cg held at its value at p, for every model
    for case in _MODEL_CASES:
        model, p, pts, rng = _model_case(case, 2, 12)
        covs = _random_covs(rng, len(pts), scale=1.0)
        res = model(pts, covs, p, 1e-12)
        f, df_dp = _raw(model, pts, p)
        s = f / res.F
        cgH = (df_dp / s[:, None] - res.jac()) * (s**3 / f)[:, None]
        cg = np.einsum("nij,nj->ni", covs, res.g)
        fd = central_diff_jac(
            lambda q: np.einsum("ni,ni->n", cg, model(pts, covs, q, 1e-12).g), p
        )
        assert np.max(np.abs(cgH - fd)) / np.max(np.abs(fd)) < 1e-5, case


def test_normalized_residual_jacobian_matches_fd():
    for case in _MODEL_CASES:
        model, p, pts, rng = _model_case(case, 3, 15)
        covs = _random_covs(rng, len(pts))
        J = model(pts, covs, p, 1e-12).jac()
        J_fd = central_diff_jac(lambda q: model(pts, covs, q, 1e-12).F, p)
        scale = np.max(np.abs(J_fd))
        assert np.max(np.abs(J - J_fd)) / scale < 1e-5, case


@pytest.mark.parametrize("case", list(_MODEL_CASES))
def test_normalized_residual_matches_tensor_oracle(case):
    # anisotropic covariances, and point 0 with a zero covariance, so its
    # variance sits at the v_min floor
    k3_map, rot_dof, line, _ = _MODEL_CASES[case]
    model, p, pts, rng = _model_case(case, 8, 40)
    covs = _random_covs(rng, len(pts)) * rng.uniform(0.1, 10.0, (len(pts), 1, 1))
    covs[0] = 0.0
    v_min = 1e-12
    res = model(pts, covs, p, v_min)
    v = np.einsum("ni,ni->n", res.g, np.einsum("nij,nj->ni", covs, res.g))
    assert v[0] == 0.0 and np.all(v[1:] > 100.0 * v_min)
    F_o, J_o = tensor_normalized_residual(
        tensor_model(k3_map, rot_dof, line), pts, covs, p, v_min
    )
    J = res.jac()
    # row by row, relative to each point's largest entry
    assert np.all(np.abs(res.F - F_o) <= 1e-12 * np.abs(F_o))
    assert np.all(np.abs(J - J_o) <= 1e-12 * np.max(np.abs(J_o), axis=1, keepdims=True))


def test_side_wall_model_jacobian_matches_fd():
    rng = np.random.default_rng(4)
    model = _rows(pf._implicit_model(_K3_PARAB, 3, _WALL))
    p = np.array([2.0, 5.0, 0.2, -0.1, 0.3, 0.07])
    pts = rng.uniform(-0.25, 0.25, (12, 3)) + [0, 0, 1]
    _, Jp = _raw(model, pts, p)
    J_fd = central_diff_jac(lambda q: _raw(model, pts, q)[0], p)
    assert np.max(np.abs(Jp - J_fd)) < 1e-6


# sphere solver cases: p = [kappa, r_xy, a], the origin on a vertical line
_SPHERE_LINE = _line((0.05, -0.1, 0.0), _Z_AXIS)
_SPHERE_P = np.array([3.0, 0.3, -0.2, 1.0])


def test_wlm_invariant_to_uniform_cov_scale():
    # compare the physical quantities rather than the raw parameter vector
    rng = np.random.default_rng(5)
    model = pf._implicit_model(_K3_SPHERE, 2, _SPHERE_LINE)
    pts = _sphere_points(_SPHERE_P, rng, 60)
    covs = _random_covs(rng, len(pts), scale=1e-5)
    p0 = _SPHERE_P + rng.normal(0, 0.02, 4)
    a = wlm_minimize(model, p0, *_cols(pts, covs))
    b = wlm_minimize(model, p0, *_cols(pts, 10.0 * covs))

    def centre(p):
        R = ps.exp_map(ps.rxy_to_r(p[1:3]))
        return _SPHERE_LINE[0] + p[3] * _SPHERE_LINE[1] + R[:, 2] / p[0]

    assert abs(a.p[0] - b.p[0]) < 1e-8
    assert np.allclose(centre(a.p), centre(b.p), atol=1e-8)


def _sphere_points(p, rng, n):
    kappa, rxy, t = p[0], p[1:3], _SPHERE_LINE[0] + p[3] * _SPHERE_LINE[1]
    patch = Patch(S.SPHERE, B.CIRCLE, np.array([kappa]), np.array([0.2]),
                  Pose5(rxy, t))
    u = rng.uniform(-0.14, 0.14, (n, 2))
    return explicit_eval(patch, u)


def test_wlm_converges_on_exact_sphere():
    rng = np.random.default_rng(6)
    model = pf._implicit_model(_K3_SPHERE, 2, _SPHERE_LINE)
    pts = _sphere_points(_SPHERE_P, rng, 80)
    covs = np.broadcast_to(1e-8 * np.eye(3), (len(pts), 3, 3)).copy()
    res = wlm_minimize(model, _SPHERE_P + [0.3, 0.02, -0.02, -0.005], *_cols(pts, covs))
    assert res.converged
    assert abs(res.p[0] - 3.0) < 1e-6
    assert res.sigma.shape == (4, 4)
    assert np.allclose(res.sigma, res.sigma.T)


def test_wlm_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(pf, "_MAX_ITER", 2)
    rng = np.random.default_rng(7)
    model = pf._implicit_model(_K3_SPHERE, 2, _SPHERE_LINE)
    pts = _sphere_points(_SPHERE_P, rng, 40)
    covs = np.broadcast_to(1e-8 * np.eye(3), (len(pts), 3, 3)).copy()
    res = wlm_minimize(model, _SPHERE_P + 0.3, *_cols(pts, covs))
    assert not res.converged
    assert res.iterations <= 2


def test_wlm_builds_jacobian_only_at_accepted_steps():
    rng = np.random.default_rng(1)
    model = pf._implicit_model(_K3_SPHERE, 2, _SPHERE_LINE)
    pts = _sphere_points(_SPHERE_P, rng, 60)
    pts = pts + rng.normal(0, 1e-3, pts.shape)
    covs = _random_covs(rng, len(pts), scale=1e-3)
    calls = []  # per model call: [chi2, Jacobian builds]

    def counted(points, cv, p, v_min):
        res = model(points, cv, p, v_min)
        entry = [float(res.F @ res.F), 0]
        calls.append(entry)

        def jac():
            entry[1] += 1
            return res.jac()

        return res._replace(jac=jac)

    def eager(points, cv, p, v_min):
        res = model(points, cv, p, v_min)
        J = res.jac()
        return res._replace(jac=lambda: J)

    # a start from which the solve rejects some trials on its way to converge
    lazy = wlm_minimize(counted, _SPHERE_P + 0.45, *_cols(pts, covs))
    ref = wlm_minimize(eager, _SPHERE_P + 0.45, *_cols(pts, covs))
    # one model call at p0 and one per trial; a trial is accepted when it
    # lowers chi2 below that of the current point
    assert len(calls) == 1 + lazy.iterations
    accepted, chi2 = [0], calls[0][0]
    for i, (chi2_t, _) in enumerate(calls[1:], 1):
        if chi2_t < chi2:
            accepted.append(i)
            chi2 = chi2_t
    assert len(accepted) < len(calls)  # the fit rejected some trials
    assert [builds for _, builds in calls] == [int(i in accepted) for i in range(len(calls))]
    assert lazy.converged == ref.converged and lazy.iterations == ref.iterations
    assert lazy.chi2 == ref.chi2
    assert np.array_equal(lazy.p, ref.p) and np.array_equal(lazy.sigma, ref.sigma)


# ---------------------------------------------------------------------------
# Stage-map Jacobians
# ---------------------------------------------------------------------------


def test_swap_frame_jacobian_matches_fd():
    r = np.array([0.4, -0.3, 0.2])
    _, J = pf._swap_frame(r)
    J_fd = central_diff_jac(lambda q: pf._swap_frame(q)[0], r)
    assert np.max(np.abs(J - J_fd)) < 1e-6


@pytest.mark.parametrize("boundary", [B.ELLIPSE, B.CIRCLE, B.AARECT], ids=lambda b: b.name)
def test_extent_maps_match_fd(boundary):
    lam = coverage_scale(0.95)
    m = np.array([0.05, -0.02, 0.04, 0.02, 0.005])
    _, J = pf._extents_curved(m, lam, boundary)
    J_fd = central_diff_jac(lambda q: pf._extents_curved(q, lam, boundary)[0], m)
    assert np.max(np.abs(J - J_fd)) < 1e-6


def test_plane_spread_derivatives_match_fd():
    # (l+, l-, theta) of the ELLIPSE boundary, which takes d = (l+, l-)
    m = np.array([0.05, -0.02, 0.04, 0.02, 0.005])

    def f(q):
        d, _, theta, _ = pf._extents_plane(q, 0.95, B.ELLIPSE)
        return np.append(d, theta)

    (l_p, l_m), J_d, _, dtheta = pf._extents_plane(m, 0.95, B.ELLIPSE)
    J = np.vstack([J_d, dtheta])
    J_fd = central_diff_jac(f, m)
    assert np.max(np.abs(J - J_fd)) < 1e-6
    assert l_p >= l_m > 0.0


def _finisher_map(x, nk, nr, stype, boundary):
    """(k, d, r', t) of the finisher and its Jacobian, from x = (m, k, r, t)."""
    m, k, r, t = np.split(x, np.cumsum([5, nk, nr]))
    r3 = r if nr == 3 else ps.rxy_to_r(r)
    R, dR = ps.exp_map(r3), ps.jac_exp(r3)[:nr]
    d, r_new, J = pf._bound(m, k, r, R, dR, stype, boundary, 0.95)
    return np.concatenate([k, d, r_new, t]), J


_FINISHER_CASES = {
    # name: (nk, nr, surface type, boundary); planes with a directional
    # boundary turn to the principal axes
    "circular": (1, 2, S.CIRCULAR_PARABOLOID, B.CIRCLE),
    "elliptic": (2, 3, S.ELLIPTIC_PARABOLOID, B.ELLIPSE),
    "plane_circle": (0, 2, S.PLANE, B.CIRCLE),
    "plane_ellipse_turn": (0, 2, S.PLANE, B.ELLIPSE),
    "plane_aarect_turn": (0, 2, S.PLANE, B.AARECT),
    "plane_cquad_turn": (0, 2, S.PLANE, B.CQUAD),
    "side_wall_no_shift": (1, 3, S.CIRCULAR_CYLINDER, B.AARECT),
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


@pytest.mark.parametrize("nk, nr", [(1, 2), (2, 3)], ids=["5dof", "6dof"])
def test_moment_joint_sigma_matches_tensor_oracle(nk, nr):
    # anisotropic covariances of different sizes, in a rotated frame with
    # 2 (5-DoF) or 3 (6-DoF) rotation derivatives
    rng = np.random.default_rng(25)
    n = 300
    r = np.array([0.4, -0.3, 0.2])[:nr]
    r3 = r if nr == 3 else ps.rxy_to_r(r)
    R, dR = ps.exp_map(r3), ps.jac_exp(r3)[:nr]
    t = np.array([0.1, -0.05, 1.0])
    pts = t + rng.uniform(-0.2, 0.2, (n, 3)) @ R.T
    covs = _random_covs(rng, n, scale=1e-2) * rng.uniform(0.1, 10.0, (n, 1, 1))
    # a state sigma small enough that the points' own noise is not lost in
    # the moment block
    A = rng.standard_normal((nk + nr + 3,) * 2) * 1e-3
    sigma_state = A @ A.T
    m, got = pf._moment_joint_sigma(*_cols(pts, covs), R, t, dR, sigma_state, nk)
    want = tensor_moment_joint_sigma(pts, covs, R, t, dR, sigma_state, nk)
    assert got.shape == want.shape == (5 + nk + nr + 3,) * 2
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the moments come from the same projection
    x, y = ((pts - t) @ R[:, :2]).T
    want_m = [x.mean(), y.mean(), (x * x).mean(), (y * y).mean(), (x * y).mean()]
    assert np.allclose(m, want_m, rtol=1e-12, atol=1e-15)


def test_coverage_scale_value():
    # 95% central mass of a 1D normal lies within 1.96 std
    assert abs(coverage_scale(0.95) - 1.959964) < 1e-5
    with pytest.raises(ValueError):
        coverage_scale(1.0)


# ---------------------------------------------------------------------------
# End-to-end fits
# ---------------------------------------------------------------------------


def _make_data(patch, rng, n=200, sigma=1e-4, frac=0.85, pairs=False):
    """Noisy samples of a patch surface plus matching covariances.

    With pairs, the samples come as n/2 pairs (u, -u) about the patch
    origin, so that for a paraboloid the data centroid and the principal
    normal of the points lie on the normal line through the apex.
    """
    lim = 0.95 * np.min(patch.d[: min(patch.d.size, 4)])
    u = rng.uniform(-lim, lim, (6 * n, 2))
    u = u[boundary_contains(patch, u * frac / 0.95)][: n // 2 if pairs else n]
    if pairs:
        u = np.vstack([u, -u])
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


def _centroid_line(pts):
    """Data centroid and least-squares plane normal: the fit's side-wall line."""
    qbar = pts.mean(axis=0)
    return qbar, np.linalg.svd(pts - qbar)[2][-1]


def _assert_on_line(patch, pts):
    """The patch origin and its covariance lie on the centroid line."""
    qbar, n_dir = _centroid_line(pts)
    P = np.eye(3) - np.outer(n_dir, n_dir)
    assert np.linalg.norm(P @ (patch.pose.t - qbar)) < 1e-9
    sig_t = patch.sigma[-3:, -3:]
    assert np.linalg.norm(P @ sig_t @ P) <= 1e-12 * float(n_dir @ sig_t @ n_dir)


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
    pts, covs = _make_data(true, rng, pairs=True)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.converged
    # the linear shape-operator start leaves LM a few steps
    assert res.iterations <= 10
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
    pts, covs = _make_data(true, rng, pairs=True)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.HYPERBOLIC_PARABOLOID
    assert np.allclose(res.patch.k, [-2.0, 6.0], atol=0.1)
    _fit_and_check_surface(true, res)


def test_fit_paraboloid_canonicalizes_axis_order():
    # generated with the larger curvature on x; the fit must swap axes
    rng = np.random.default_rng(12)
    true = Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([7.0, 3.0]),
                 np.array([0.2, 0.25]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng, pairs=True)
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == S.ELLIPTIC_PARABOLOID
    assert np.allclose(res.patch.k, [3.0, 7.0], atol=0.1)
    _fit_and_check_surface(true, res)


_PARABOLOID_DRAWS = {
    # name: (rng seed, surface type, k, d), as the recovery tests above
    "elliptic": (10, S.ELLIPTIC_PARABOLOID, [3.0, 7.0], [0.25, 0.2]),
    "hyperbolic": (11, S.HYPERBOLIC_PARABOLOID, [-2.0, 6.0], [0.25, 0.2]),
    "swapped_axes": (12, S.ELLIPTIC_PARABOLOID, [7.0, 3.0], [0.2, 0.25]),
}


@pytest.mark.parametrize("case", list(_PARABOLOID_DRAWS))
def test_fit_paraboloid_vertex_on_centroid_line(case):
    # unpaired draws: the centroid line misses the true apex by millimetres,
    # and the vertex sits on that line, not at the apex; the curvatures
    # and the class are still recovered
    seed, stype, k, d = _PARABOLOID_DRAWS[case]
    true = Patch(stype, B.ELLIPSE, np.array(k), np.array(d), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, np.random.default_rng(seed))
    res = fit_patch(pts, covs, surface="paraboloid")
    assert res.patch.s == stype
    assert np.allclose(res.patch.k, sorted(k, key=abs), atol=0.1)
    _assert_on_line(res.patch, pts)


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


def test_fit_cylinder_axis_at_every_seed():
    # the axis starts along the flatter principal direction of the linear
    # start, so no draw leaves it across the curved direction
    true = Patch(S.CIRCULAR_CYLINDER, B.AARECT, np.array([5.0]),
                 np.array([0.25, 0.15]), Pose6(_R_FACING, _T_OFF))
    Rt, _ = patch_frame(true)
    off = {}
    for seed in range(20):
        pts, covs = _make_data(true, np.random.default_rng(seed))
        Rf, _ = patch_frame(fit_patch(pts, covs, surface="cylinder").patch)
        axis_err = math.degrees(math.acos(min(1.0, abs(Rf[:, 0] @ Rt[:, 0]))))
        if axis_err >= 1.0:
            off[seed] = axis_err
    assert off == {}


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


# a true patch of each family fit_patch fits, by its surface argument
_SURFACE_PATCHES = {
    "paraboloid": Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([3.0, 7.0]),
                        np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF)),
    "sphere": Patch(S.SPHERE, B.CIRCLE, np.array([4.0]), np.array([0.2]),
                    Pose5((3.0, 0.4), _T_OFF)),
    "cylinder": Patch(S.CIRCULAR_CYLINDER, B.AARECT, np.array([5.0]),
                      np.array([0.25, 0.15]), Pose6(_R_FACING, _T_OFF)),
    "plane": Patch(S.PLANE, B.ELLIPSE, np.array([]), np.array([0.25, 0.2]),
                   Pose6(_R_FACING, _T_OFF)),
}


def test_fit_paraboloid_converges_on_plane_data():
    # a flat surface has no principal directions to search for: from the
    # linear start LM stops well inside its iteration cap
    for seed in range(10):
        pts, covs = _make_data(_SURFACE_PATCHES["plane"], np.random.default_rng(seed),
                               n=150, sigma=5e-4)
        assert fit_patch(pts, covs, surface="paraboloid").converged, seed


@pytest.mark.parametrize("surface", list(_SURFACE_PATCHES))
def test_side_wall_keeps_center_on_line(surface):
    rng = np.random.default_rng(20)
    pts, covs = _make_data(_SURFACE_PATCHES[surface], rng)
    res = fit_patch(pts, covs, surface=surface)
    # the center and its covariance lie on the line through the data
    # centroid along the least-squares plane normal
    _assert_on_line(res.patch, pts)


@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("surface", list(_SURFACE_PATCHES))
def test_fit_patch_invariant_to_point_order(surface, n):
    # the fit is a function of the point set: a permuted input, with each
    # point keeping its own anisotropic covariance, gives the same patch up
    # to summation order. A layout change that mixes coordinates of
    # different points (a reshape where a transpose belongs) breaks this
    rng = np.random.default_rng(27)
    pts, _ = _make_data(_SURFACE_PATCHES[surface], rng, n=n)
    # the floor keeps every direction's noise within ~10x of the points'
    covs = _random_covs(rng, n) + 1e-8 * np.eye(3)
    perm = rng.permutation(n)
    a = fit_patch(pts, covs, surface=surface)
    b = fit_patch(pts[perm], covs[perm], surface=surface)
    assert a.converged and b.converged
    assert (a.patch.s, a.patch.b) == (b.patch.s, b.patch.b)
    (Ra, ta), (Rb, tb) = patch_frame(a.patch), patch_frame(b.patch)
    for x, y in [(a.patch.k, b.patch.k), (a.patch.d, b.patch.d), (Ra, Rb), (ta, tb),
                 (a.patch.sigma, b.patch.sigma)]:
        assert np.max(np.abs(x - y), initial=0.0) <= 1e-9 * np.max(np.abs(x), initial=0.0)


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


def test_fit_drops_nonfinite_covariance_rows():
    # a finite point with a non-finite covariance is dropped like a
    # non-finite point: the fit equals the fit without those rows
    rng = np.random.default_rng(24)
    true = Patch(S.ELLIPTIC_PARABOLOID, B.ELLIPSE, np.array([3.0, 7.0]),
                 np.array([0.25, 0.2]), Pose6(_R_FACING, _T_OFF))
    pts, covs = _make_data(true, rng)
    covs[17] = np.nan
    covs[60, 1, 2] = np.inf
    res = fit_patch(pts, covs)
    ref = fit_patch(np.delete(pts, [17, 60], axis=0), np.delete(covs, [17, 60], axis=0))
    assert np.isfinite(res.chi2) and np.all(np.isfinite(res.patch.sigma))
    assert (res.converged, res.chi2, res.iterations) == (ref.converged, ref.chi2, ref.iterations)
    got, want = res.patch, ref.patch
    assert got.s == want.s and np.array_equal(got.k, want.k) and np.array_equal(got.d, want.d)
    assert all(map(np.array_equal, patch_frame(got), patch_frame(want)))
    assert np.array_equal(got.sigma, want.sigma)


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
