"""Patch fitting with quantified uncertainty.

The fit runs in stages:

1. A linear least-squares plane through the points (centroid plus the
   smallest principal direction, oriented toward the viewpoint), refined
   by a weighted nonlinear solve unless a general paraboloid was
   requested, then re-anchored at the in-plane projection of the
   centroid.
2. For curved families, a weighted Levenberg-Marquardt solve of the
   unified implicit quadric over curvature, orientation, and position.
   Circular cylinders then rebuild their frame so the cross-section axes
   stay consistent with the stage-1 plane normal.
3. A general paraboloid is classified by its fitted curvatures: flat
   (plane), single-curved (cylindric), equal-curved (circular), or
   elliptic/hyperbolic, reducing parameters accordingly.
4. Boundary extents come from the first and second moments of the points
   projected to the local xy plane, scaled so a Gaussian scatter is
   covered with probability gamma.

Measurement weighting follows the implicit-surface normalization: each
residual is divided by the standard deviation induced by its 3x3 point
covariance through the surface gradient, and the residual Jacobian
includes the derivative of that normalization.

Covariance flows through one path. Every solve returns the state
(k, r, t) with its covariance: k the family's free curvatures, r the
2-component r_xy of a 5-DoF frame or the full rotation vector, t the
origin. A side-wall constraint replaces the free position by
t = t0 + a * n with scalar a, keeping the fitted patch centered on a
known line (for example the intersection with a supporting wall); the
solver sees (k, r, a), and the solve lifts the result back to (k, r, t)
through J = block_diag(I, n), the only place the line enters the
covariance. Stages 2-3 then map (k, r, t) to a reduced (k, r, t) by
block-diagonal Jacobians. One finisher takes the moments m of the
projected points jointly with the state and maps (m, k, r, t) to the
final (k, d, r, t): the extents d come from m, t moves to the moment
centroid along the family's free in-plane axes (never on a side wall,
so the position stays on the line), and a plane with a directional
boundary turns its frame to the principal axes of m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import block_diag
from scipy.special import erfinv

from patchscape import pose as _pose
from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
)
from patchscape.pose import Pose5, Pose6

__all__ = [
    "WlmConfig",
    "WlmResult",
    "wlm_minimize",
    "FitResult",
    "fit_patch",
    "coverage_scale",
]

_FLAT_EPS = 1e-2  # curvature magnitude below which a direction is flat
_TINY_KAPPA = 1e-8  # cylinder curvature below which the frame rebuild is skipped


def coverage_scale(gamma: float) -> float:
    """Std multiplier containing a 1D Gaussian with probability gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be inside (0, 1)")
    return math.sqrt(2.0) * float(erfinv(gamma))


# ---------------------------------------------------------------------------
# Weighted Levenberg-Marquardt on implicit surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WlmConfig:
    max_iter: int = 50
    chi2_rtol: float = 1e-8
    step_tol: float = 1e-10
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    v_min: float = 1e-12  # floor on the per-point residual variance


@dataclass
class WlmResult:
    p: np.ndarray
    sigma: np.ndarray
    chi2: float
    iterations: int
    converged: bool


def _implicit_model(k3_map: np.ndarray, rot_dof: int, t_line=None):
    """Residual model f(q; p) = ql^T K ql - 2 ql_z with ql = R^T (q - t).

    p packs [k, r, t] (or [k, r, a] on a side-wall line). Returns a
    callable giving (f, df/dp, df/dq, d2f/dq dp) for a point block.
    """
    nk = k3_map.shape[1]
    if t_line is not None:
        t_base = np.asarray(t_line[0], dtype=float).reshape(3)
        t_dir = np.asarray(t_line[1], dtype=float).reshape(3)
        t_dir = t_dir / np.linalg.norm(t_dir)
        nt = 1
    else:
        nt = 3
    npar = nk + rot_dof + nt

    def model(points, p):
        k3 = k3_map @ p[:nk] if nk else np.zeros(3)
        r3 = np.zeros(3)
        r3[:rot_dof] = p[nk : nk + rot_dof]
        t = t_base + p[-1] * t_dir if nt == 1 else p[nk + rot_dof :]
        R = _pose.exp_map(r3)
        dR = _pose.jac_exp(r3)
        d = points - t
        ql = d @ R
        kql = ql * k3
        f = np.einsum("ni,ni->n", ql, kql) - 2.0 * ql[:, 2]
        dfdql = 2.0 * kql
        dfdql[:, 2] -= 2.0
        g = dfdql @ R.T

        n = len(points)
        Jp = np.empty((n, npar))
        H = np.empty((n, 3, npar))
        for b in range(nk):
            kb = k3_map[:, b]
            Jp[:, b] = (ql * ql) @ kb
            H[:, :, b] = 2.0 * (ql * kb) @ R.T
        for m in range(rot_dof):
            dql = d @ dR[m]  # = (dR_m^T) (q - t)
            Jp[:, nk + m] = np.einsum("ni,ni->n", dfdql, dql)
            H[:, :, nk + m] = dfdql @ dR[m].T + 2.0 * (dql * k3) @ R.T
        dgdt = -2.0 * (R * k3) @ R.T
        if nt == 1:
            Jp[:, -1] = -(g @ t_dir)
            H[:, :, -1] = (dgdt @ t_dir)[None, :]
        else:
            Jp[:, nk + rot_dof :] = -g
            H[:, :, nk + rot_dof :] = np.broadcast_to(dgdt, (n, 3, 3))
        return f, Jp, g, H

    return model


def _normalized_residual(model, points, covs, p, v_min):
    f, Jp, g, H = model(points, p)
    cg = np.einsum("nij,nj->ni", covs, g)
    v = np.maximum(np.einsum("ni,ni->n", g, cg), v_min)
    s = np.sqrt(v)
    F = f / s
    gSH = np.einsum("ni,nip->np", cg, H)
    J = Jp / s[:, None] - (f / (s * v))[:, None] * gSH
    return F, J


def wlm_minimize(model, p0, points, covs, config: WlmConfig = WlmConfig()) -> WlmResult:
    """Damped least squares on the variance-normalized implicit residual.

    Scaling every point covariance by a common factor rescales all
    residuals uniformly and leaves the minimizer unchanged. Gauge
    directions (parameter moves that do not change the surface) are kept
    benign by the damping. On non-convergence the best parameters seen
    are returned with converged False.
    """
    p = np.asarray(p0, dtype=float).copy()
    lam = config.damping_init
    F, J = _normalized_residual(model, points, covs, p, config.v_min)
    chi2 = float(F @ F)
    best_p, best_chi2, best_J = p.copy(), chi2, J
    converged = False
    iters = 0
    for _ in range(config.max_iter):
        A = J.T @ J
        A[np.diag_indices_from(A)] += lam
        try:
            step = np.linalg.solve(A, -(J.T @ F))
        except np.linalg.LinAlgError:
            lam *= config.damping_up
            continue
        if float(np.linalg.norm(step)) <= config.step_tol:
            # stationary for practical purposes, with or without a trial
            converged = True
            break
        iters += 1
        F_t, J_t = _normalized_residual(model, points, covs, p + step, config.v_min)
        chi2_t = float(F_t @ F_t)
        if chi2_t < chi2:
            done = (chi2 - chi2_t) <= config.chi2_rtol * chi2
            p = p + step
            F, J, chi2 = F_t, J_t, chi2_t
            if chi2 < best_chi2:
                best_p, best_chi2, best_J = p.copy(), chi2, J
            lam = max(lam / config.damping_down, 1e-14)
            if done:
                converged = True
                break
        else:
            lam *= config.damping_up
            if lam > 1e12:
                break
    A = best_J.T @ best_J
    # damping floor keeps gauge directions at a finite, documented variance
    A[np.diag_indices_from(A)] += config.damping_init
    sigma = _pose.sym(np.linalg.inv(A))
    return WlmResult(
        p=best_p, sigma=sigma, chi2=best_chi2, iterations=iters, converged=converged
    )


# ---------------------------------------------------------------------------
# Frame helpers
# ---------------------------------------------------------------------------


def _frame_from_xz(x, z):
    """Right-handed frame with x along x and z reconciled against z.

    Returns (r', J_x, J_z): the log of the frame and its derivatives with
    respect to the two input directions.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    nx = np.linalg.norm(x)
    xh = x / nx
    Px = (np.eye(3) - np.outer(xh, xh)) / nx
    y_raw = np.cross(z, xh)
    ny = np.linalg.norm(y_raw)
    yh = y_raw / ny
    Py = (np.eye(3) - np.outer(yh, yh)) / ny
    zx = _pose.skew(xh)
    dyraw_dz = zx.T  # d(z x xh)/dz = -[xh]_x
    dyraw_dx = _pose.skew(z) @ Px
    dy_dz = Py @ dyraw_dz
    dy_dx = Py @ dyraw_dx
    zh = np.cross(xh, yh)
    dz_dx = -_pose.skew(yh) @ Px + zx @ dy_dx
    dz_dz = zx @ dy_dz
    dRx = [np.column_stack([Px[:, m], dy_dx[:, m], dz_dx[:, m]]) for m in range(3)]
    dRz = [np.column_stack([np.zeros(3), dy_dz[:, m], dz_dz[:, m]]) for m in range(3)]
    r_new, J = _pose.jac_log_of(np.column_stack([xh, yh, zh]), dRx + dRz)
    return r_new, J[:, :3], J[:, 3:]


# ---------------------------------------------------------------------------
# Stage 1: plane initialization
# ---------------------------------------------------------------------------


def _lls_plane(points, viewpoint):
    qbar = points.mean(axis=0)
    _, _, Vt = np.linalg.svd(points - qbar, full_matrices=False)
    n = Vt[-1]
    if float(n @ (viewpoint - qbar)) < 0.0:
        n = -n
    return _pose.rxy_for_zdir(n), qbar


def _recentre_on_plane(qbar, rxy, t):
    """Move t to the in-plane projection of the centroid.

    Returns (t', J) with J = d t'/d(zl, qbar, t) stacked (3 x 9); the zl
    dependence is later chained through d zl/d rxy.
    """
    zl = _pose.exp_map(_pose.rxy_to_r(rxy))[:, 2]
    w = qbar - t
    t_new = qbar - float(zl @ w) * zl
    dz = -(np.outer(zl, w) + float(zl @ w) * np.eye(3))
    dq = np.eye(3) - np.outer(zl, zl)
    dt = np.outer(zl, zl)
    return t_new, np.hstack([dz, dq, dt])


def _recentred_sigma(rxy, J_t, sigma_qbar, sigma):
    """Covariance of (rxy, t') from that of the solved (rxy, t).

    The inputs are (zl, qbar, rxy, t) with J_t = d t'/d(zl, qbar, t). t'
    also depends on rxy through zl; chaining it here alongside the
    independent zl block double counts only at second order in the noise.
    """
    J_z = _pose.jac_zaxis(rxy)
    J_zl, J_q, J_tt = J_t[:, :3], J_t[:, 3:6], J_t[:, 6:]
    J = np.block(
        [
            [np.zeros((2, 6)), np.eye(2), np.zeros((2, 3))],
            [J_zl, J_q, J_zl @ J_z, J_tt],
        ]
    )
    S = block_diag(J_z @ sigma[:2, :2] @ J_z.T, sigma_qbar, sigma)
    return J @ S @ J.T


# ---------------------------------------------------------------------------
# Stage 4-5: moments of the projected points
# ---------------------------------------------------------------------------


def _moments(points, R, t):
    ql = (points - t) @ R
    x, y = ql[:, 0], ql[:, 1]
    return np.array(
        [x.mean(), y.mean(), (x * x).mean(), (y * y).mean(), (x * y).mean()]
    )


def _moment_joint_sigma(points, covs, R, t, dR_cols, sigma_state, nk):
    """Joint covariance of (moments, state) with state = (k, r, t).

    The moment block combines per-point noise pushed through the
    projection with the state uncertainty pushed through the moment
    definition; the cross block keeps the two correlated downstream.
    """
    n = len(points)
    d = points - t
    ql = d @ R
    x, y = ql[:, 0], ql[:, 1]
    M = np.zeros((n, 5, 3))
    M[:, 0, 0] = 1.0
    M[:, 1, 1] = 1.0
    M[:, 2, 0] = 2.0 * x
    M[:, 3, 1] = 2.0 * y
    M[:, 4, 0] = y
    M[:, 4, 1] = x
    B = M @ R.T  # d m_i / d q_i, up to 1/n
    sigma_m = np.einsum("nab,nbc,ndc->ad", B, covs, B) / n**2

    # d m / d(k, r, t): r moves ql by d @ dR_j, t by -R^T
    A_r = np.column_stack([np.einsum("nab,nb->a", M, d @ dRj) for dRj in dR_cols]) / n
    A = np.hstack([np.zeros((5, nk)), A_r, -B.mean(axis=0)])

    cross = A @ sigma_state
    top = sigma_m + cross @ A.T
    return np.block([[top, cross], [cross.T, sigma_state]])


# ---------------------------------------------------------------------------
# Stage 6-9: boundary extents with Jacobians over (m, state)
# ---------------------------------------------------------------------------


def _sqrt_floor(v):
    return math.sqrt(max(v, 1e-30))


def _extents_rect(m, lam):
    """Extents for axis-on-x types: x centered, y about the axis."""
    sx = _sqrt_floor(m[2] - m[0] ** 2)
    sy = _sqrt_floor(m[3])
    d = np.array([lam * sx, lam * sy])
    J_m = np.array(
        [
            [-lam * m[0] / sx, 0.0, 0.5 * lam / sx, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5 * lam / sy, 0.0],
        ]
    )
    return d, J_m


def _extents_circle_from_vxy(m, lam):
    sx = _sqrt_floor(m[2])
    sy = _sqrt_floor(m[3])
    J_m = np.zeros((1, 5))
    if abs(m[2] - m[3]) < 1e-12:
        d = lam * 0.5 * (sx + sy)
        J_m[0, 2] = 0.25 * lam / sx
        J_m[0, 3] = 0.25 * lam / sy
    elif m[2] > m[3]:
        d = lam * sx
        J_m[0, 2] = 0.5 * lam / sx
    else:
        d = lam * sy
        J_m[0, 3] = 0.5 * lam / sy
    return np.array([d]), J_m


def _extents_ellipse_uncentered(m, lam):
    sx = _sqrt_floor(m[2])
    sy = _sqrt_floor(m[3])
    d = np.array([lam * sx, lam * sy])
    J_m = np.zeros((2, 5))
    J_m[0, 2] = 0.5 * lam / sx
    J_m[1, 3] = 0.5 * lam / sy
    return d, J_m


def _plane_spread(m, gamma):
    """Principal in-plane Gaussian containment lengths and derivatives.

    Returns (l+, l-, theta, dl+/drho, dl-/drho, dtheta/drho, drho/dm)
    with rho = (alpha, beta, phi) the centered second-moment parameters.
    """
    alpha = m[2] - m[0] ** 2
    beta = 2.0 * (m[4] - m[0] * m[1])
    phi = m[3] - m[1] ** 2
    drho_dm = np.array(
        [
            [-2.0 * m[0], 0.0, 1.0, 0.0, 0.0],
            [-2.0 * m[1], -2.0 * m[0], 0.0, 0.0, 2.0],
            [0.0, -2.0 * m[1], 0.0, 1.0, 0.0],
        ]
    )
    c = -math.log1p(-gamma)
    D = beta * beta + (alpha - phi) ** 2
    sD = math.sqrt(D)
    if sD > 1e-12:
        de_p = np.array([1.0 + (alpha - phi) / sD, beta / sD, 1.0 - (alpha - phi) / sD])
        de_m = np.array([1.0 - (alpha - phi) / sD, -beta / sD, 1.0 + (alpha - phi) / sD])
        dtheta = np.array([-beta, alpha - phi, beta]) / (2.0 * D)
        theta = 0.5 * math.atan2(beta, alpha - phi)
    else:
        # isotropic spread: the split direction is undefined; freeze it
        de_p = np.array([1.0, 0.0, 1.0])
        de_m = np.array([1.0, 0.0, 1.0])
        dtheta = np.zeros(3)
        theta = 0.0
    e_p = max(alpha + phi + sD, 1e-30)
    e_m = max(alpha + phi - sD, 1e-30)
    l_p = math.sqrt(c * e_p)
    l_m = math.sqrt(c * e_m)
    dl_p = (0.5 * c / l_p) * de_p
    dl_m = (0.5 * c / l_m) * de_m
    return l_p, l_m, theta, dl_p, dl_m, dtheta, drho_dm


def _extents_plane(m, gamma, boundary):
    """Plane extents along the principal axes of the projected spread."""
    l_p, l_m, _, dl_p, dl_m, _, drho = _plane_spread(m, gamma)
    L = np.vstack([dl_p @ drho, dl_m @ drho])  # d(l+, l-)/dm
    if boundary == BoundaryType.CIRCLE:
        return np.array([max(l_p, l_m)]), L[:1]  # l+ >= l- always
    if boundary in (BoundaryType.ELLIPSE, BoundaryType.AARECT):
        return np.array([l_p, l_m]), L
    # convex quad equivalent to the principal rectangle
    dd = math.hypot(l_p, l_m)
    gam = math.atan2(l_m, l_p)
    dd_dl = np.array([l_p, l_m]) / dd
    dgam_dl = np.array([-l_m, l_p]) / (l_p**2 + l_m**2)
    return np.array([dd, dd, dd, dd, gam]), np.vstack([dd_dl @ L] * 4 + [dgam_dl @ L])


def _plane_turn(m, gamma):
    """Angle of the principal axes about local z, and its derivative in m."""
    _, _, theta, _, _, dtheta, drho = _plane_spread(m, gamma)
    return theta, dtheta @ drho


# ---------------------------------------------------------------------------
# Fit driver
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    patch: Patch
    converged: bool
    chi2: float
    iterations: int


_K3_PARAB = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
_K3_SPHERE = np.array([[1.0], [1.0], [1.0]])
_K3_CCYL = np.array([[0.0], [1.0], [1.0]])
_K3_PLANE = np.zeros((3, 0))

# axis swap taking x to the old y direction (z fixed): R' = R W
_W_SWAP = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

_SURFACES = ("paraboloid", "plane", "sphere", "cylinder")


def fit_patch(
    points,
    covs=None,
    surface: str = "paraboloid",
    plane_boundary: BoundaryType = BoundaryType.ELLIPSE,
    gamma: float = 0.95,
    viewpoint=(0.0, 0.0, 0.0),
    side_wall=None,
    config: WlmConfig = WlmConfig(),
) -> FitResult:
    """Fit one bounded patch to points with per-point 3x3 covariances.

    surface selects the family: "paraboloid" fits a general paraboloid
    and classifies it (plane, cylindric, circular, elliptic, or
    hyperbolic); "plane", "sphere", and "cylinder" fit those families
    directly. plane_boundary picks the boundary for plane fits
    (classified planes take an ellipse). gamma sets the boundary coverage
    probability of a Gaussian scatter. viewpoint orients the local z
    axis. side_wall, when given as (t0, n), constrains the patch center
    to the line t0 + a n; True derives the line from the initial plane
    (data centroid along its normal), which keeps the patch centered on
    the data. Non-finite points are dropped.

    Returns a FitResult whose patch carries the propagated (k, d, r, t)
    covariance.
    """
    if surface not in _SURFACES:
        raise ValueError(f"surface must be one of {_SURFACES}")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    keep = np.isfinite(pts).all(axis=1)
    pts = pts[keep]
    if covs is None:
        cv = np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
    else:
        cv = np.asarray(covs, dtype=float).reshape(-1, 3, 3)[keep]
    if len(pts) < 13:
        raise ValueError("need at least 13 points to fit a patch")
    vp = np.asarray(viewpoint, dtype=float).reshape(3)
    lam_g = coverage_scale(gamma)

    # ---- stage 1: plane ----------------------------------------------
    rxy0, qbar = _lls_plane(pts, vp)
    if side_wall is True:
        wall_t = qbar.copy()
        wall_n = _pose.exp_map(_pose.rxy_to_r(rxy0))[:, 2]
    elif side_wall is not None:
        wall_t = np.asarray(side_wall[0], dtype=float).reshape(3)
        wall_n = np.asarray(side_wall[1], dtype=float).reshape(3)
        wall_n = wall_n / np.linalg.norm(wall_n)
    wall = side_wall is not None
    runs = []

    def solve(k3_map, r0, t0):
        """Solve from zero curvature; return (k, r, t) and its covariance."""
        nk = k3_map.shape[1]
        model = _implicit_model(k3_map, len(r0), (wall_t, wall_n) if wall else None)
        if not wall:
            p0 = np.concatenate([np.zeros(nk), r0, t0])
        else:
            p0 = np.concatenate([np.zeros(nk), r0, [float(wall_n @ (t0 - wall_t))]])
        res = wlm_minimize(model, p0, pts, cv, config)
        runs.append(res)
        if not wall:
            return res.p[:nk], res.p[nk:-3], res.p[-3:], res.sigma
        # the single side-wall lift: (k, r, a) -> (k, r, wall_t + a n)
        J = block_diag(np.eye(len(res.p) - 1), wall_n[:, None])
        t = wall_t + res.p[-1] * wall_n
        return res.p[:nk], res.p[nk:-1], t, J @ res.sigma @ J.T

    if surface == "paraboloid":
        t0 = qbar
        if wall:
            t0 = wall_t + float(wall_n @ (qbar - wall_t)) * wall_n
        k2, r, t, sigma = solve(_K3_PARAB, _pose.rxy_to_r(rxy0), t0)
        patch = _classify_paraboloid(pts, cv, k2, r, t, sigma, gamma, lam_g, wall)
    else:
        _, rxy0, t0, plane_sigma = solve(_K3_PLANE, rxy0, qbar)
        if not wall:
            t0, J_t = _recentre_on_plane(qbar, rxy0, t0)
            sigma_qbar = cv.sum(axis=0) / len(pts) ** 2
            plane_sigma = _recentred_sigma(rxy0, J_t, sigma_qbar, plane_sigma)

    # ---- stages 2-3: surface solve and finish ------------------------
    if surface == "plane":
        turn = partial(_plane_turn, gamma=gamma)
        if plane_boundary == BoundaryType.CIRCLE:
            turn = None  # a circle keeps the 5-DoF frame
        patch = _finish(
            pts, cv, SurfaceType.PLANE, plane_boundary, np.zeros(0), rxy0, t0,
            plane_sigma, lambda m: _extents_plane(m, gamma, plane_boundary), (0, 1),
            wall, turn,
        )
    elif surface == "sphere":
        k, rxy, t, sigma = solve(_K3_SPHERE, rxy0, t0)
        patch = _finish(
            pts, cv, SurfaceType.SPHERE, BoundaryType.CIRCLE, k, rxy, t, sigma,
            lambda m: _extents_circle_from_vxy(m, lam_g), (), wall,
        )
    elif surface == "cylinder":
        k, r, t, sigma = solve(_K3_CCYL, _pose.rxy_to_r(rxy0), t0)
        if abs(k[0]) >= _TINY_KAPPA and not wall:
            r, t, J = _ccyl_rebuild(rxy0, k[0], r, t)
            # the plane's r_xy comes from another solve; taken as independent
            sigma = J @ block_diag(plane_sigma[:2, :2], sigma) @ J.T
        patch = _finish(
            pts, cv, SurfaceType.CIRCULAR_CYLINDER, BoundaryType.AARECT, k, r, t,
            sigma, lambda m: _extents_rect(m, lam_g), (0,), wall,
        )
    return FitResult(
        patch,
        all(res.converged for res in runs),
        runs[-1].chi2,
        sum(res.iterations for res in runs),
    )


# ---------------------------------------------------------------------------
# Stage maps and the finisher
# ---------------------------------------------------------------------------


def _ccyl_rebuild(plane_rxy, kappa, r, t):
    """Align the cylinder frame with the stage-1 plane normal.

    The fitted x axis is kept as the cylinder axis; y and z rebuild from
    the plane normal, and t shifts so the axis line {t + R (s, 0, 1/k)}
    is unchanged. Returns (r', t', J) with
    J = d(kappa, r', t') / d(plane_rxy, kappa, r, t).
    """
    R_old, dR_old = _pose.exp_map(r), _pose.jac_exp(r)
    z_plane = _pose.exp_map(_pose.rxy_to_r(plane_rxy))[:, 2]
    r_new, J_x, J_z = _frame_from_xz(R_old[:, 0], z_plane)
    R_new = _pose.exp_map(r_new)
    t_new = t + (R_old - R_new) @ np.array([0.0, 0.0, 1.0 / kappa])

    dr_dpl = J_z @ _pose.jac_zaxis(plane_rxy)
    dr_dr = J_x @ dR_old[:, :, 0].T
    dz_new = _pose.jac_exp(r_new)[:, :, 2].T  # d R(r')[:, 2] / dr'
    J = np.block(
        [
            [np.zeros((1, 2)), np.ones((1, 1)), np.zeros((1, 6))],
            [dr_dpl, np.zeros((3, 1)), dr_dr, np.zeros((3, 3))],
            [
                -dz_new @ dr_dpl / kappa,
                ((R_new[:, 2] - R_old[:, 2]) / kappa**2)[:, None],
                (dR_old[:, :, 2].T - dz_new @ dr_dr) / kappa,
                np.eye(3),
            ],
        ]
    )
    return r_new, t_new, J


def _classify_paraboloid(pts, cv, k2, r, t, sigma8, gamma, lam_g, wall):
    """Reduce a fitted general paraboloid to its curvature class."""

    def restate(J_k, J_r):
        J = block_diag(J_k, J_r, np.eye(3))
        return J @ sigma8 @ J.T

    ax, ay = abs(k2[0]), abs(k2[1])
    if max(ax, ay) < _FLAT_EPS:
        sigma = restate(np.zeros((0, 2)), _pose.jac_rxy(r))
        return _finish(
            pts, cv, SurfaceType.PLANE, BoundaryType.ELLIPSE, np.zeros(0),
            _pose.rxy_from_r(r), t, sigma,
            lambda m: _extents_plane(m, gamma, BoundaryType.ELLIPSE), (0, 1), wall,
            lambda m: _plane_turn(m, gamma),
        )
    if min(ax, ay) < _FLAT_EPS:
        # single curved direction; keep it on the local y axis
        if ay >= _FLAT_EPS:
            k, sigma = k2[1:], restate([[0.0, 1.0]], np.eye(3))
        else:
            r_new, J_r = _swap_frame(r)
            k, r, sigma = k2[:1], r_new, restate([[1.0, 0.0]], J_r)
        return _finish(
            pts, cv, SurfaceType.CYLINDRIC_PARABOLOID, BoundaryType.AARECT, k, r, t,
            sigma, lambda m: _extents_rect(m, lam_g), (0,), wall,
        )
    if abs(k2[0] - k2[1]) < _FLAT_EPS:
        return _finish(
            pts, cv, SurfaceType.CIRCULAR_PARABOLOID, BoundaryType.CIRCLE,
            np.array([0.5 * (k2[0] + k2[1])]), _pose.rxy_from_r(r), t,
            restate([[0.5, 0.5]], _pose.jac_rxy(r)),
            lambda m: _extents_circle_from_vxy(m, lam_g), (), wall,
        )
    stype = (
        SurfaceType.ELLIPTIC_PARABOLOID
        if k2[0] * k2[1] > 0.0
        else SurfaceType.HYPERBOLIC_PARABOLOID
    )
    # canonical axes: |kx| < |ky|, ties broken by kx <= ky
    if ax > ay or (ax == ay and k2[0] > k2[1]):
        r_new, J_r = _swap_frame(r)
        k2, r, sigma8 = k2[::-1].copy(), r_new, restate(np.eye(2)[::-1], J_r)
    return _finish(
        pts, cv, stype, BoundaryType.ELLIPSE, k2, r, t, sigma8,
        lambda m: _extents_ellipse_uncentered(m, lam_g), (), wall,
    )


def _swap_frame(r):
    """Quarter turn about local z (x takes the old y direction)."""
    return _pose.jac_log_of(_pose.exp_map(r) @ _W_SWAP, _pose.jac_exp(r) @ _W_SWAP)


def _finish(pts, cv, stype, boundary, k, r, t, sigma, extents, shift, wall, turn=None):
    """Bound a solved surface and carry its covariance to (k, d, r, t).

    (k, r, t) is the solved state with covariance sigma, r a 2-vector
    for a 5-DoF frame. extents(m) gives (d, dd/dm) from the moments m of
    the projected points; t recentres on the moment centroid along the
    local axes listed in shift, except on a side wall; turn(m), for a
    plane with a directional boundary, gives the principal-axis angle
    about local z and its derivative in m.
    """
    r3 = r if len(r) == 3 else _pose.rxy_to_r(r)
    R, dR = _pose.exp_map(r3), _pose.jac_exp(r3)[: len(r)]
    m = _moments(pts, R, t)
    joint = _moment_joint_sigma(pts, cv, R, t, dR, sigma, len(k))
    d, r_new, t_new, J = _bound(m, k, r, t, R, dR, extents, () if wall else shift, turn)
    pose = Pose6(r_new, t_new) if len(r_new) == 3 else Pose5(r_new, t_new)
    return Patch(stype, boundary, k, d, pose, _pose.sym(J @ joint @ J.T))


def _bound(m, k, r, t, R, dR, extents, shift, turn):
    """Final (d, r', t') from the moments m and the state (k, r, t).

    R and dR are the frame R(r) and its derivative dR/dr. Also returns J,
    the Jacobian of (k, d, r', t') with respect to (m, k, r, t).
    """
    nk, nr = len(k), len(r)
    d, J_dm = extents(m)
    axes = list(shift)
    c = np.zeros(3)  # centroid offset on the shift axes: m[0], m[1] are mean x, y
    c[axes] = m[axes]
    t_new = t + R @ c
    dt_dm = np.zeros((3, 5))
    dt_dm[:, axes] = R[:, axes]
    dt_dr = (dR @ c).T
    if turn is None:
        r_new, dr_dm, dr_dr = r, np.zeros((nr, 5)), np.eye(nr)
    else:
        theta, dth_dm = turn(m)
        cs, sn = math.cos(theta), math.sin(theta)
        Rz = np.array([[cs, -sn, 0.0], [sn, cs, 0.0], [0.0, 0.0, 1.0]])
        dRz = np.array([[-sn, -cs, 0.0], [cs, -sn, 0.0], [0.0, 0.0, 0.0]])
        r_new, J_log = _pose.jac_log_of(R @ Rz, [R @ dRz, *(dR @ Rz)])
        dr_dm, dr_dr = np.outer(J_log[:, 0], dth_dm), J_log[:, 1:]
    nd, nq = len(d), len(r_new)
    J = np.block(
        [
            [np.zeros((nk, 5)), np.eye(nk), np.zeros((nk, nr + 3))],
            [J_dm, np.zeros((nd, nk + nr + 3))],
            [dr_dm, np.zeros((nq, nk)), dr_dr, np.zeros((nq, 3))],
            [dt_dm, np.zeros((3, nk)), dt_dr, np.eye(3)],
        ]
    )
    return d, r_new, t_new, J
