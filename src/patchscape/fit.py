"""Patch fitting with quantified uncertainty.

The fit runs in stages:

1. A linear least-squares plane through the points (centroid plus the
   smallest principal direction, oriented toward the origin: points are
   camera frame, so the plane faces the camera). Its centroid and normal
   define the side-wall line that holds the patch origin in every later
   solve. A plane fit refines it by a weighted nonlinear solve.
2. For curved families, a weighted Levenberg-Marquardt solve of the
   unified implicit quadric over curvature, orientation, and the
   position along the line. Which curvatures a family frees, and whether
   its frame is 5- or 6-DoF, come from the family table in
   patchscape.patch (k3_map, is_revolute). Every curved solve starts
   from one linear fit in the stage-1 plane frame, the height
   z = c + e x + f y + (a x^2 + 2 b x y + c' y^2) / 2, whose shape
   operator W = [[a, b], [b, c']] gives the principal curvatures and
   directions and whose c gives the place on the line: the paraboloid
   starts from both eigenpairs, the cylinder puts its axis along the
   flatter direction and takes the other curvature, and the sphere takes
   the mean curvature.
3. A general paraboloid is classified by its fitted curvatures: flat
   (plane), single-curved (cylindric), equal-curved (circular), or
   elliptic/hyperbolic, reducing parameters accordingly.
4. Boundary extents come from the first and second moments of the points
   projected to the local xy plane, scaled so a Gaussian scatter is
   covered with probability gamma. One pass takes the moments together
   with their covariance, and two rules turn them into extents: a curved
   type scales the root second moment of each of its own axes, and a
   plane takes the principal lengths of its centered spread.

Measurement weighting follows the implicit-surface normalization: each
residual is divided by the standard deviation induced by its 3x3 point
covariance through the surface gradient, and the residual Jacobian
includes the closed-form derivative of that normalization.

Covariance flows through one path. Every solve returns the state
(k, r, t) with its covariance: k the family's free curvatures, r the
2-component r_xy of a 5-DoF frame or the full rotation vector, t the
origin. The origin lies on the side-wall line t = t0 + a * n through
the data centroid t0 along the initial plane normal n, which keeps the
fitted patch centered on its data; the solver sees (k, r, a), and the
solve lifts the result back to (k, r, t) through J = block_diag(I, n),
the only place the line enters the covariance. Stages 2-3 then map
(k, r, t) to a reduced (k, r, t) by block-diagonal Jacobians. One
finisher takes the moments m of the projected points jointly with the
state and maps (m, k, r, t) to the final (k, d, r, t): the extents d
come from m, t stays on the line, and a plane with a directional
boundary turns its frame to the principal axes of m. The finisher picks
the extents rule (curved or plane) and the turn itself, from the type,
the boundary and gamma; the boundary is the plane_boundary of a plane
fit and otherwise the first one the family lists.

Per-point arrays are column-major: fit_patches takes each seed's points
(n, 3) and covariances (n, 3, 3), drops the non-finite rows, and
transposes once, to points (3, n) and covariances (3, 3, n). Seeds with
the same n stack to (s, 3, n) and (s, 3, 3, n). Stage 1 (the planes and
the linear shape starts) and the finisher's moments and their covariance
take a stack in one pass; the residual model, its Jacobian (npar, n) and
the solver take one seed's (3, n) slice. Each per-point operation runs
along a contiguous length-n axis, and a stacked operation does per seed
what it does alone, to the bit. fit_patch is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import block_diag
from scipy.special import erfinv

from patchscape import pose as _pose
from patchscape.patch import BoundaryType, Patch, SurfaceType, boundaries, is_revolute, k3_map
from patchscape.pose import Pose5, Pose6

__all__ = [
    "WlmResult",
    "wlm_minimize",
    "FitResult",
    "fit_patches",
    "fit_patch",
    "coverage_scale",
    "MIN_FIT_POINTS",
    "SURFACES",
]

# Fewest finite points fit_patch accepts; neighborhoods smaller than this
# are dropped before a fit is attempted.
MIN_FIT_POINTS = 13

_FLAT_EPS = 1e-2  # curvature magnitude below which a direction is flat


def coverage_scale(gamma: float) -> float:
    """Std multiplier containing a 1D Gaussian with probability gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be inside (0, 1)")
    return math.sqrt(2.0) * float(erfinv(gamma))


# ---------------------------------------------------------------------------
# Weighted Levenberg-Marquardt on implicit surfaces
# ---------------------------------------------------------------------------


_MAX_ITER = 50
_CHI2_RTOL = 1e-8
_STEP_TOL = 1e-10
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 10.0
_V_MIN = 1e-12  # floor on the per-point residual variance


@dataclass
class WlmResult:
    p: np.ndarray
    sigma: np.ndarray
    chi2: float
    iterations: int
    converged: bool


class _Residual(NamedTuple):
    """F = f / s at one p, with s = sqrt(max(g^T Sigma g, v_min)); jac() gives dF/dp.

    F is (n,), g = df/dq is (3, n), and jac() returns (npar, n).
    """

    F: np.ndarray
    g: np.ndarray  # df/dq
    jac: Callable[[], np.ndarray]


def _implicit_model(K: np.ndarray, rot_dof: int, t_line):
    """Residual model f(q; p) = ql^T diag(K k) ql - 2 ql_z with ql = R^T (q - t).

    K is a family's k3_map; p packs [k, r, a], with t = t0 + a n/|n| on the
    side-wall line t_line = (t0, n). Returns model(points, covs, p, v_min)
    -> _Residual, for points (3, n) and covariances (3, 3, n).
    """
    nk = K.shape[1]
    t0, T = t_line[0], t_line[1] / np.linalg.norm(t_line[1])  # t = t0 + T a
    npar = nk + rot_dof + 1

    def model(points, covs, p, v_min) -> _Residual:
        k3 = (K @ p[:nk] if nk else np.zeros(3))[:, None]
        r3 = np.zeros(3)
        r3[:rot_dof] = p[nk : nk + rot_dof]
        t = t0 + T * p[-1]
        R = _pose.exp_map(r3)
        d = points - t[:, None]
        ql = R.T @ d
        kql = k3 * ql
        f = (ql * kql).sum(0) - 2.0 * ql[2]
        dfdql = 2.0 * kql
        dfdql[2] -= 2.0
        g = R @ dfdql
        cg = (covs * g).sum(1)
        v = np.maximum((g * cg).sum(0), v_min)
        s = np.sqrt(v)

        def jac():
            # dF/dp = df/dp / s - f / (s v) cg^T d2f/dq dp, each parameter one
            # row; the contraction comes in closed form from c_l = R^T cg
            dR = _pose._jac_exp_at(R, r3)
            cl = R.T @ cg
            kcl = k3 * cl
            Jp, cgH = np.empty((2, npar, points.shape[1]))
            Jp[:nk] = K.T @ (ql * ql)
            cgH[:nk] = 2.0 * K.T @ (ql * cl)
            for m in range(rot_dof):
                dql = dR[m].T @ d  # = (dR_m^T) (q - t)
                Jp[nk + m] = (dfdql * dql).sum(0)
                cgH[nk + m] = (dfdql * (dR[m].T @ cg) + 2.0 * dql * kcl).sum(0)
            Jp[-1] = -(T @ g)
            cgH[-1] = -2.0 * (T @ R) @ kcl
            return Jp / s - (f / (s * v)) * cgH

        return _Residual(f / s, g, jac)

    return model


def wlm_minimize(model, p0, points, covs) -> WlmResult:
    """Damped least squares on the variance-normalized implicit residual.

    points are (3, n) and covs (3, 3, n), passed through to model, whose
    Jacobian J is (npar, n); a step solves (J J^T + lam I) dp = -J F.
    Scaling every point covariance by a common factor rescales all
    residuals uniformly and leaves the minimizer unchanged. Gauge
    directions (parameter moves that do not change the surface) are kept
    benign by the damping. A trial step evaluates F only; J is built at p0
    and at accepted steps. A step is accepted only when chi2 falls, so
    the last accepted parameters are the best seen; on non-convergence
    they are returned with converged False.
    """
    p = np.asarray(p0, dtype=float).copy()
    lam = _DAMPING_INIT
    res = model(points, covs, p, _V_MIN)
    F, J = res.F, res.jac()
    chi2 = float(F @ F)
    converged = False
    iters = 0
    for _ in range(_MAX_ITER):
        A = J @ J.T
        A.reshape(-1)[:: len(A) + 1] += lam  # strided view of the diagonal
        try:
            step = np.linalg.solve(A, -(J @ F))
        except np.linalg.LinAlgError:
            lam *= _DAMPING_UP
            continue
        if float(np.linalg.norm(step)) <= _STEP_TOL:
            # stationary for practical purposes, with or without a trial
            converged = True
            break
        iters += 1
        trial = model(points, covs, p + step, _V_MIN)
        chi2_t = float(trial.F @ trial.F)
        if chi2_t < chi2:
            done = (chi2 - chi2_t) <= _CHI2_RTOL * chi2
            p = p + step
            F, J, chi2 = trial.F, trial.jac(), chi2_t
            lam = max(lam / _DAMPING_DOWN, 1e-14)
            if done:
                converged = True
                break
        else:
            lam *= _DAMPING_UP
            if lam > 1e12:
                break
    A = J @ J.T
    # damping floor keeps gauge directions at a finite, documented variance
    A.reshape(-1)[:: len(A) + 1] += _DAMPING_INIT
    sigma = _pose.sym(np.linalg.inv(A))
    return WlmResult(
        p=p, sigma=sigma, chi2=chi2, iterations=iters, converged=converged
    )


# ---------------------------------------------------------------------------
# Stage 1: plane initialization
# ---------------------------------------------------------------------------


def _lls_planes(points):
    """Least-squares planes of (s, 3, n) points.

    Returns the centroids (s, 3), the centered points (s, 3, n), and the
    r_xy of each plane frame, whose normal (the smallest principal
    direction) faces the origin.
    """
    qbar = points.mean(axis=2)
    centered = points - qbar[:, :, None]
    U = np.linalg.svd(centered, full_matrices=False)[0]
    rxy = [
        _pose.rxy_for_zdir(-n if float(n @ q) > 0.0 else n) for n, q in zip(U[:, :, -1], qbar)
    ]
    return qbar, centered, rxy


def _shape_starts(centered, R0):
    """Linear starts for the curved solves, in the plane frames R0 (s, 3, 3).

    Fits the height z = c + e x + f y + (a x^2 + 2 b x y + c' y^2) / 2 of
    each seed's centered (3, n) points by linear least squares and returns
    the eigenvalues (s, 2) of the shape operators W = [[a, b], [b, c']] in
    ascending order, their eigenvectors (s, 2, 2) as columns, and the
    heights c where the surfaces meet their side-wall lines.
    """
    x, y, z = (R0.transpose(0, 2, 1) @ centered).transpose(1, 0, 2)
    A = np.stack([np.ones_like(x), x, y, 0.5 * x * x, x * y, 0.5 * y * y], axis=1)
    W, c = np.empty((len(A), 2, 2)), []
    for Ai, zi, Wi in zip(A, z, W):
        ci, _, _, Wi[0, 0], Wi[1, 0], Wi[1, 1] = np.linalg.lstsq(Ai.T, zi, rcond=None)[0]
        Wi[0, 1] = Wi[1, 0]
        c.append(float(ci))
    w, V = np.linalg.eigh(W)
    return w, V, c


# ---------------------------------------------------------------------------
# Stage 4: the moments of the projected points, jointly with the state
# ---------------------------------------------------------------------------


def _moments(points, covs, R, t, dR):
    """Moments m of (s, 3, n) points projected to each seed's local xy
    plane, and their first-order sensitivities.

    R (s, 3, 3) and t (s, 3) are the seeds' frames, and dR (s, nr, 3, 3)
    the derivatives of R by nr rotation parameters. m = (mean x, mean y,
    mean x^2, mean y^2, mean xy). Returns m (s, 5), the moment covariance
    from per-point noise (s, 5, 5), dm/dr (s, 5, nr) and dm/dt (s, 5, 3).
    """
    s, _, n = points.shape
    d = points - t[:, :, None]
    x, y = (R[:, :, :2].transpose(0, 2, 1) @ d).transpose(1, 0, 2)
    m = np.stack([x.mean(1), y.mean(1), (x * x).mean(1), (y * y).mean(1), (x * y).mean(1)], 1)
    one, zero = np.ones((s, n)), np.zeros((s, n))
    # d m / d ql_i = (P_i e_x^T + Q_i e_y^T) / n, so d m / d q_i = (P_i u^T +
    # Q_i w^T) / n with u, w the first two columns of R, and the moment
    # block needs only u^T C_i u, u^T C_i w and w^T C_i w per point
    P = np.stack([one, zero, 2.0 * x, zero, y], axis=1)
    Q = np.stack([zero, one, zero, 2.0 * y, x], axis=1)
    u, w = R[:, :, 0], R[:, :, 1]
    outer = [a[:, :, None] * b[:, None, :] for a, b in ((u, u), (u, w), (w, w))]
    uw_pairs = np.stack(outer, axis=1).reshape(s, 3, 9)
    uu, uw, ww = (uw_pairs @ covs.reshape(s, 9, n)).transpose(1, 0, 2)
    Pt, Qt = P.transpose(0, 2, 1), Q.transpose(0, 2, 1)
    PQ = (P * uw[:, None]) @ Qt
    sigma_m = ((P * uu[:, None]) @ Pt + PQ + PQ.transpose(0, 2, 1) + (Q * ww[:, None]) @ Qt) / n**2

    # d m / d(r, t): r moves ql by dR_j^T (q - t), t by -R^T
    A_r = np.empty((s, 5, dR.shape[1]))
    for j in range(dR.shape[1]):
        dx, dy = (dR[:, j, :, :2].transpose(0, 2, 1) @ d).transpose(1, 0, 2)
        A_r[:, :, j] = ((P @ dx[:, :, None] + Q @ dy[:, :, None]) / n)[:, :, 0]
    A_t = -(P.mean(axis=2)[:, :, None] * u[:, None] + Q.mean(axis=2)[:, :, None] * w[:, None])
    return m, sigma_m, A_r, A_t


def _joint_sigma(sigma_m, A_r, A_t, sigma_state, nk):
    """Joint covariance of one seed's moments m and state = (k, r, t).

    sigma_m, A_r = dm/dr and A_t = dm/dt are the seed's rows of _moments.
    The moment block combines per-point noise pushed through the
    projection with the state uncertainty pushed through the moment
    definition; the cross block keeps the two correlated downstream.
    """
    A = np.hstack([np.zeros((5, nk)), A_r, A_t])
    cross = A @ sigma_state
    joint = np.empty((5 + len(sigma_state),) * 2)
    joint[:5, :5] = sigma_m + cross @ A.T
    joint[:5, 5:], joint[5:, :5], joint[5:, 5:] = cross, cross.T, sigma_state
    return joint


# ---------------------------------------------------------------------------
# Stage 4: two extents rules, curved types and planes, with dd/dm
# ---------------------------------------------------------------------------


def _sqrt_floor(v):
    return math.sqrt(max(v, 1e-30))


def _extents_curved(m, lam, boundary):
    """Extents of a curved type along its own axes, and dd/dm.

    Each axis is lam times the root of its second moment about the
    origin, except the x axis of an AARECT, which takes its moment about
    the points' mean. A circle takes the larger of the two axes, or their
    mean when the moments tie.
    """
    centered = boundary == BoundaryType.AARECT
    vx = m[2] - m[0] ** 2 if centered else m[2]
    s = np.array([_sqrt_floor(vx), _sqrt_floor(m[3])])
    J_m = np.zeros((2, 5))
    J_m[0, 2], J_m[1, 3] = 0.5 * lam / s
    if centered:
        J_m[0, 0] = -lam * m[0] / s[0]
    if boundary != BoundaryType.CIRCLE:
        return lam * s, J_m
    if abs(m[2] - m[3]) < 1e-12:
        return np.array([lam * 0.5 * (s[0] + s[1])]), 0.5 * J_m.sum(axis=0, keepdims=True)
    i = 0 if m[2] > m[3] else 1
    return lam * s[i : i + 1], J_m[i : i + 1]


def _extents_plane(m, gamma, boundary):
    """Plane extents along the principal axes of the projected spread.

    The centered second moments rho = (alpha, beta, phi) give the
    principal Gaussian containment lengths l+ >= l- and the angle theta
    of their axes about local z. Returns (d, dd/dm, theta, dtheta/dm).
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
    l_p = math.sqrt(c * max(alpha + phi + sD, 1e-30))
    l_m = math.sqrt(c * max(alpha + phi - sD, 1e-30))
    # d(l+, l-)/dm
    L = np.vstack([((0.5 * c / l_p) * de_p) @ drho_dm, ((0.5 * c / l_m) * de_m) @ drho_dm])
    if boundary == BoundaryType.CIRCLE:
        d, J_dm = np.array([max(l_p, l_m)]), L[:1]  # l+ >= l- always
    elif boundary in (BoundaryType.ELLIPSE, BoundaryType.AARECT):
        d, J_dm = np.array([l_p, l_m]), L
    else:
        # convex quad equivalent to the principal rectangle
        dd = math.hypot(l_p, l_m)
        gam = math.atan2(l_m, l_p)
        dd_dl = np.array([l_p, l_m]) / dd
        dgam_dl = np.array([-l_m, l_p]) / (l_p**2 + l_m**2)
        d, J_dm = np.array([dd, dd, dd, dd, gam]), np.vstack([dd_dl @ L] * 4 + [dgam_dl @ L])
    return d, J_dm, theta, dtheta @ drho_dm


# ---------------------------------------------------------------------------
# Fit driver
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    patch: Patch
    converged: bool
    chi2: float
    iterations: int


# axis swap taking x to the old y direction (z fixed): R' = R W
_W_SWAP = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

# the names fit_patch's surface argument takes; "paraboloid" fits a
# general paraboloid and classifies it
SURFACES = ("paraboloid", "plane", "sphere", "cylinder")


def _columns(points, covs):
    """The finite rows of (n, 3) points and (n, 3, 3) covariances, as
    (3, n) and (3, 3, n); ValueError if fewer than MIN_FIT_POINTS remain."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if covs is None:
        cv = np.broadcast_to(np.eye(3), (len(pts), 3, 3))
    else:
        cv = np.asarray(covs, dtype=float).reshape(-1, 3, 3)
    keep = np.isfinite(pts).all(axis=1) & np.isfinite(cv).all(axis=(1, 2))
    if np.count_nonzero(keep) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit a patch")
    # the one transpose: every kernel below takes (3, n) and (3, 3, n)
    return np.ascontiguousarray(pts[keep].T), np.ascontiguousarray(cv[keep].transpose(1, 2, 0))


def fit_patches(
    samples: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    surface: str = "paraboloid",
    plane_boundary: BoundaryType = BoundaryType.ELLIPSE,
    gamma: float = 0.95,
) -> List[Union[FitResult, ValueError, np.linalg.LinAlgError]]:
    """Fit one bounded patch to each (points, covs) sample of a batch.

    Each sample gets the fit that fit_patch gives it alone, to the bit.
    Samples with the same number of finite points form one stack, whose
    stage 1 (centroids, SVD planes, the linear shape starts' frame change
    and eigenpairs) and finisher moments (projected moments and their
    covariance) run as one array pass each; every solve runs on its own
    seed. ValueError for a surface or gamma that no fit takes. Returns one
    entry per sample: its FitResult, or the ValueError or LinAlgError its
    fit raised, which leaves the other samples' fits unchanged.
    """
    if surface not in SURFACES:
        raise ValueError(f"surface must be one of {SURFACES}")
    coverage_scale(gamma)  # the finisher's check, before any solve: 0 < gamma < 1
    out: List = [None] * len(samples)
    stacks: Dict[int, list] = {}
    for i, (points, covs) in enumerate(samples):
        try:
            pts, cv = _columns(points, covs)
        except ValueError as e:
            out[i] = e
            continue
        stacks.setdefault(pts.shape[1], []).append((i, pts, cv))
    for members in stacks.values():
        pts = np.stack([m[1] for m in members])
        cv = np.stack([m[2] for m in members])
        try:
            fits = _fit_stack(pts, cv, surface, plane_boundary, gamma)
        except (ValueError, np.linalg.LinAlgError):
            # one seed failed the stack: fit each seed alone to tell which
            fits = []
            for j in range(len(members)):
                try:
                    fits += _fit_stack(pts[j : j + 1], cv[j : j + 1], surface, plane_boundary, gamma)
                except (ValueError, np.linalg.LinAlgError) as e:
                    fits.append(e)
        for (i, _, _), fit in zip(members, fits):
            out[i] = fit
    return out


def fit_patch(
    points,
    covs=None,
    surface: str = "paraboloid",
    plane_boundary: BoundaryType = BoundaryType.ELLIPSE,
    gamma: float = 0.95,
) -> FitResult:
    """Fit one bounded patch to points with per-point 3x3 covariances.

    surface selects the family: "paraboloid" fits a general paraboloid
    and classifies it (plane, cylindric, circular, elliptic, or
    hyperbolic); "plane", "sphere", and "cylinder" fit those families
    directly. plane_boundary picks the boundary for plane fits; every
    other fitted type, classified planes included, takes the first
    boundary its family lists. gamma sets the boundary coverage
    probability of a Gaussian scatter. Points are camera frame, and the
    initial plane's local z axis faces the camera at the origin. The
    patch origin is held on the side-wall line through the data centroid
    along the initial plane normal, which keeps the patch centered on the
    data. A point whose coordinates or covariance are not all finite is
    dropped. The batch of one of fit_patches; raises what that fit raised.

    Returns a FitResult whose patch carries the propagated (k, d, r, t)
    covariance.
    """
    fit = fit_patches([(points, covs)], surface, plane_boundary, gamma)[0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _fit_stack(pts, cv, surface, plane_boundary, gamma) -> List[FitResult]:
    """fit_patch of every seed of points (s, 3, n) and covariances (s, 3, 3, n)."""
    # ---- stage 1: planes and the side-wall lines ---------------------
    qbar, centered, rxy0 = _lls_planes(pts)
    R0 = np.stack([_pose.exp_map(_pose.rxy_to_r(rxy)) for rxy in rxy0])
    if surface != "plane":
        w, V, c = _shape_starts(centered, R0)

    # ---- stages 2-3: surface solves, one seed at a time --------------
    states = []
    for i in range(len(pts)):
        wall_n = R0[i, :, 2]

        def spun(v):
            """6-DoF r of the plane frame turned about its z so that local x
            lies along v, a unit direction in that frame's xy plane."""
            Rz = np.array([[v[0], -v[1], 0.0], [v[1], v[0], 0.0], [0.0, 0.0, 1.0]])
            return _pose.log_map(R0[i] @ Rz)

        if surface == "plane":
            stype, k0, r0, a0 = SurfaceType.PLANE, [], rxy0[i], 0.0
        else:
            wi, Vi, a0 = w[i], V[i], c[i]
            if surface == "paraboloid":
                # a general paraboloid frees kx and ky, as the elliptic family does
                stype, k0, r0 = SurfaceType.ELLIPTIC_PARABOLOID, wi, spun(Vi[:, 0])
            elif surface == "cylinder":
                # the axis, local x, takes the flatter direction
                curved = int(abs(wi[1]) >= abs(wi[0]))
                stype = SurfaceType.CIRCULAR_CYLINDER
                k0, r0 = wi[curved : curved + 1], spun(Vi[:, 1 - curved])
            else:
                stype, k0, r0 = SurfaceType.SPHERE, [wi.mean()], rxy0[i]
        K = k3_map(stype)
        model = _implicit_model(K, len(r0), (qbar[i], wall_n))
        res = wlm_minimize(model, np.concatenate([k0, r0, [a0]]), pts[i], cv[i])
        # the single side-wall lift: (k, r, a) -> (k, r, qbar + a n)
        nk = K.shape[1]
        J = block_diag(np.eye(len(res.p) - 1), wall_n[:, None])
        k, r, t, sigma = res.p[:nk], res.p[nk:-1], qbar[i] + res.p[-1] * wall_n, J @ res.sigma @ J.T
        if surface == "paraboloid":
            stype, k, r, sigma = _classify_paraboloid(k, r, sigma)
        boundary = plane_boundary if surface == "plane" else boundaries(stype)[0]
        states.append((res, stype, boundary, k, r, t, sigma))

    # ---- stage 4: bound every solved surface -------------------------
    return [
        FitResult(patch, res.converged, res.chi2, res.iterations)
        for patch, (res, *_) in zip(_finish(pts, cv, [st[1:] for st in states], gamma), states)
    ]


# ---------------------------------------------------------------------------
# Stage maps and the finisher
# ---------------------------------------------------------------------------


def _classify_paraboloid(k2, r, sigma8):
    """Reduce a fitted general paraboloid to its curvature class.

    Returns (type, k, r, sigma) with r a 2-vector for a revolute type.
    """

    def restate(J_k, J_r):
        J = block_diag(J_k, J_r, np.eye(3))
        return J @ sigma8 @ J.T

    ax, ay = abs(k2[0]), abs(k2[1])
    if max(ax, ay) < _FLAT_EPS:
        rxy, J_r = _pose.jac_rxy_of(_pose.exp_map(r), _pose.jac_exp(r))
        return SurfaceType.PLANE, np.zeros(0), rxy, restate(np.zeros((0, 2)), J_r)
    if min(ax, ay) < _FLAT_EPS:
        # single curved direction; keep it on the local y axis
        if ay >= _FLAT_EPS:
            return SurfaceType.CYLINDRIC_PARABOLOID, k2[1:], r, restate([[0.0, 1.0]], np.eye(3))
        r_new, J_r = _swap_frame(r)
        return SurfaceType.CYLINDRIC_PARABOLOID, k2[:1], r_new, restate([[1.0, 0.0]], J_r)
    if abs(k2[0] - k2[1]) < _FLAT_EPS:
        rxy, J_r = _pose.jac_rxy_of(_pose.exp_map(r), _pose.jac_exp(r))
        k = np.array([0.5 * (k2[0] + k2[1])])
        return SurfaceType.CIRCULAR_PARABOLOID, k, rxy, restate([[0.5, 0.5]], J_r)
    stype = (
        SurfaceType.ELLIPTIC_PARABOLOID
        if k2[0] * k2[1] > 0.0
        else SurfaceType.HYPERBOLIC_PARABOLOID
    )
    # canonical axes: |kx| < |ky|, ties broken by kx <= ky
    if ax > ay or (ax == ay and k2[0] > k2[1]):
        r_new, J_r = _swap_frame(r)
        return stype, k2[::-1].copy(), r_new, restate(np.eye(2)[::-1], J_r)
    return stype, k2, r, sigma8


def _swap_frame(r):
    """Quarter turn about local z (x takes the old y direction)."""
    return _pose.jac_log_of(_pose.exp_map(r) @ _W_SWAP, _pose.jac_exp(r) @ _W_SWAP)


def _finish(pts, cv, states, gamma):
    """Bound solved surfaces and carry their covariances to (k, d, r, t).

    pts (s, 3, n) and cv (s, 3, 3, n) hold the seeds' points; states[i] is
    seed i's (stype, boundary, k, r, t, sigma): the solved state of a
    surface of type stype with covariance sigma, r a 2-vector for a 5-DoF
    frame, t on the side-wall line, where it stays. One stacked pass takes
    the moments m of every seed's projected points and their sensitivities,
    and each seed then takes their joint covariance with its state; the
    boundary's extents come from m by the curved or the plane rule, which
    (stype, boundary, gamma) picks (see _bound), and a plane whose
    boundary is not revolute also turns its frame to the principal axes of
    m. Returns one Patch per seed.
    """
    r3 = [r if len(r) == 3 else _pose.rxy_to_r(r) for _, _, _, r, _, _ in states]
    R = np.stack([_pose.exp_map(r) for r in r3])
    dR = np.stack([_pose._jac_exp_at(R_i, r) for R_i, r in zip(R, r3)])
    t = np.stack([st[4] for st in states])
    m, sigma_m, A_r, A_t = _moments(pts, cv, R, t, dR)
    patches = []
    for i, (stype, boundary, k, r, t_i, sigma) in enumerate(states):
        nr = len(r)
        joint = _joint_sigma(sigma_m[i], A_r[i, :, :nr], A_t[i], sigma, len(k))
        d, r_new, J = _bound(m[i], k, r, R[i], dR[i, :nr], stype, boundary, gamma)
        pose = Pose6(r_new, t_i) if len(r_new) == 3 else Pose5(r_new, t_i)
        patches.append(Patch(stype, boundary, k, d, pose, _pose.sym(J @ joint @ J.T)))
    return patches


def _bound(m, k, r, R, dR, stype, boundary, gamma):
    """Final (d, r') from the moments m and the state (k, r, t).

    A plane takes its extents along the principal axes of m, and turns
    its frame to them unless its boundary is the revolute circle; a
    curved type takes them along its own axes, scaled to cover a
    Gaussian scatter with probability gamma. R and dR are the frame R(r)
    and its derivative dR/dr; t passes through unchanged. Also returns
    J, the Jacobian of (k, d, r', t) with respect to (m, k, r, t).
    """
    nk, nr = len(k), len(r)
    plane = stype == SurfaceType.PLANE
    if plane:
        d, J_dm, theta, dth_dm = _extents_plane(m, gamma, boundary)
    else:
        d, J_dm = _extents_curved(m, coverage_scale(gamma), boundary)
    if not plane or is_revolute(stype, boundary):
        r_new, dr_dm, dr_dr = r, np.zeros((nr, 5)), np.eye(nr)
    else:
        cs, sn = math.cos(theta), math.sin(theta)
        Rz = np.array([[cs, -sn, 0.0], [sn, cs, 0.0], [0.0, 0.0, 1.0]])
        dRz = np.array([[-sn, -cs, 0.0], [cs, -sn, 0.0], [0.0, 0.0, 0.0]])
        r_new, J_log = _pose.jac_log_of(R @ Rz, [R @ dRz, *(dR @ Rz)])
        dr_dm, dr_dr = np.outer(J_log[:, 0], dth_dm), J_log[:, 1:]
    # rows (k, d, r', t), columns (m, k, r, t)
    nd, nq = len(d), len(r_new)
    J = np.zeros((nk + nd + nq + 3, 5 + nk + nr + 3))
    J[:nk, 5 : 5 + nk] = np.eye(nk)
    J[nk : nk + nd, :5] = J_dm
    J[nk + nd : -3, :5], J[nk + nd : -3, 5 + nk : -3] = dr_dm, dr_dr
    J[-3:, -3:] = np.eye(3)
    return d, r_new, J
