"""Rotation vectors, rigid transforms, and their Jacobians.

Orientation is carried as a rotation vector r (axis times angle, radians).
The exponential map turns r into a rotation matrix via the Rodrigues form,
the log map inverts it with an explicit branch structure that stays exact
through theta = pi, and both directions come with closed-form Jacobians so
downstream covariance propagation never needs finite differences.

Conventions:
  - X_f(q, r, t) = R(r) q + t maps local coordinates to world.
  - X_r(q, r, t) = R(r)^T (q - t) maps world coordinates to local.
  - Canonical rotation vectors satisfy ||r|| <= pi. At exactly pi the sign
    ambiguity (r and -r encode the same rotation) is resolved by making the
    first component with magnitude above 1e-9 * pi positive.
  - Chains apply their links right to left: the first link in the sequence
    acts on the point first.

Numerical policy:
  - Series branches for sin(theta)/theta style terms switch at
    theta <= eps(float64)^(1/4) ~ 1.22e-4, where the truncation error of the
    quoted series drops below machine epsilon.
  - The log map picks its main branch with delta > 1e-10 and treats angles
    within 1e-7 of 0 or pi specially. Those two constants are stability
    thresholds, not model parameters.
  - exp_map and log_map run on plain Python floats internally. They sit in
    per-point loops (pose round trips, chain recomputation), and scalar
    arithmetic beats ndarray dispatch by an order of magnitude at this size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag

__all__ = [
    "OrientationVector",
    "Pose6",
    "Pose5",
    "ChainLink",
    "exp_map",
    "log_map",
    "reparameterize",
    "rxy_from_r",
    "rxy_to_r",
    "rxy_for_zdir",
    "xform_fwd",
    "xform_rev",
    "pose_inverse",
    "compose_pose",
    "compose_chain",
    "skew",
    "sym",
    "jac_exp",
    "jac_log_of",
    "jac_rxy",
    "jac_zaxis",
    "jac_chain",
    "chain_covariance",
]

# A rotation vector: ndarray of shape (3,), axis * angle in radians.
OrientationVector = np.ndarray

# Series cutoff ~ eps^(1/4): below this the quoted Taylor forms of
# sin(t)/t and (1-cos(t))/t^2 are exact to machine precision.
_SERIES_EPS = float(np.finfo(np.float64).eps) ** 0.25

# Log-map branch thresholds. delta = 2 (1 - cos t) zhat_i^2 with
# zhat_i^2 >= 1/3, so delta <= 1e-10 forces t <= ~1.7e-5 (small branch).
_LOG_DELTA_EPS = 1e-10
_LOG_THETA_EPS = 1e-7

# Rejection tolerance for non-orthonormal log-map input.
_ORTHONORMAL_TOL = 1e-9

# Relative magnitude below which a component does not count as the
# "first nonzero" one when fixing the sign at theta = pi.
_PI_SIGN_TOL = 1e-9

# Skew-symmetric basis: _E_BASIS[m] = d[r]_x / dr_m.
_E_BASIS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)


@dataclass(frozen=True)
class Pose6:
    """Full 6-DoF rigid pose: rotation vector r and translation t."""

    r: np.ndarray  # (3,) rotation vector, canonical ||r|| <= pi
    t: np.ndarray  # (3,) translation

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float).reshape(3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))


@dataclass(frozen=True)
class Pose5:
    """5-DoF pose for surfaces symmetric about their local z axis.

    The rotation is the two-component vector r_xy; the full rotation
    vector is (r_xy, 0), which can aim the local z axis anywhere.
    """

    rxy: np.ndarray  # (2,)
    t: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rxy", np.asarray(self.rxy, dtype=float).reshape(2))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))


@dataclass(frozen=True)
class ChainLink:
    """One link of a transform chain: a pose applied forward or reverse."""

    pose: Pose6
    phi: int = 1  # +1 applies X_f, -1 applies X_r

    def __post_init__(self) -> None:
        if self.phi not in (1, -1):
            raise ValueError("chain link phi must be +1 or -1")


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {v.shape}")
    return v


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]_x, so that [v]_x w = v x w."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def sym(a) -> np.ndarray:
    """Symmetric part of a square matrix (clears roundoff asymmetry)."""
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# Exponential map and friends
# ---------------------------------------------------------------------------


def exp_map(r) -> np.ndarray:
    """Rodrigues rotation matrix of a rotation vector.

    R = I + [r]_x * a + [r]_x^2 * b with a = sin(t)/t, b = (1-cos(t))/t^2,
    where t = ||r||. Series forms take over below the eps^(1/4) cutoff.
    """
    v = np.asarray(r, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"rotation vector must have shape (3,), got {v.shape}")
    x, y, z = v.tolist()
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t <= _SERIES_EPS:
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / t2
    xx = b * x * x
    yy = b * y * y
    zz = b * z * z
    xy = b * x * y
    xz = b * x * z
    yz = b * y * z
    ax = a * x
    ay = a * y
    az = a * z
    return np.array(
        [
            [1.0 - yy - zz, xy - az, xz + ay],
            [xy + az, 1.0 - xx - zz, yz - ax],
            [xz - ay, yz + ax, 1.0 - xx - yy],
        ]
    )


def jac_exp(r) -> np.ndarray:
    """Derivative of the Rodrigues matrix: shape (3, 3, 3), [m] = dR/dr_m."""
    v = _as_vec3(r, "rotation vector")
    t2 = float(v @ v)
    t = math.sqrt(t2)
    if t <= _SERIES_EPS:
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
        da = (t2 / 30.0 - 1.0 / 3.0) * v
        db = (t2 / 180.0 - 1.0 / 12.0) * v
    else:
        st = math.sin(t)
        ct = math.cos(t)
        a = st / t
        b = (1.0 - ct) / t2
        da = ((t * ct - st) / t**3) * v
        db = ((t * st + 2.0 * ct - 2.0) / t**4) * v
    K = skew(v)
    K2 = K @ K
    out = np.empty((3, 3, 3))
    for m in range(3):
        Em = _E_BASIS[m]
        out[m] = K * da[m] + Em * a + K2 * db[m] + (K @ Em + Em @ K) * b
    return out


def reparameterize(r) -> np.ndarray:
    """Canonical rotation vector for the same rotation, ||r|| <= pi.

    The angle is wrapped modulo 2*pi, then folded into (-pi, pi]. A wrap
    that lands exactly on zero returns the zero vector. At pi the sign
    convention makes the first non-negligible component positive.
    """
    v = _as_vec3(r, "rotation vector")
    t = float(np.linalg.norm(v))
    if t == 0.0:
        return v.copy()
    tw = math.fmod(t, 2.0 * math.pi)
    if tw < 0.0:
        tw += 2.0 * math.pi
    if tw == 0.0:
        return np.zeros(3)
    if tw <= math.pi:
        out = v * (tw / t)
    else:
        out = v * ((tw - 2.0 * math.pi) / t)
    if abs(abs(tw - math.pi)) <= _PI_SIGN_TOL * math.pi:
        out = _fix_pi_sign(out)
    return out


def _fix_pi_sign(r: np.ndarray) -> np.ndarray:
    """Make the first component with |c| > tol * pi positive (theta = pi)."""
    for c in r:
        if abs(c) > _PI_SIGN_TOL * math.pi:
            return -r if c < 0.0 else r
    return r


# ---------------------------------------------------------------------------
# Log map
# ---------------------------------------------------------------------------


def log_map(R, jacobian: bool = True):
    """Rotation vector of a rotation matrix, with d r / d R.

    Returns (r, J) where J has shape (3, 3, 3) and J[m, a, b] = dr_m/dR_ab,
    or (r, None) when jacobian=False. The result is canonical (||r|| <= pi;
    first-nonzero-positive at exactly pi).

    Raises ValueError if R is not orthonormal within 1e-9 or has negative
    determinant.
    """
    M = np.asarray(R, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"rotation matrix must have shape (3, 3), got {M.shape}")
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = M.ravel().tolist()

    # Orthonormality: row Gram matrix within tolerance of the identity.
    g00 = r00 * r00 + r01 * r01 + r02 * r02 - 1.0
    g11 = r10 * r10 + r11 * r11 + r12 * r12 - 1.0
    g22 = r20 * r20 + r21 * r21 + r22 * r22 - 1.0
    g01 = r00 * r10 + r01 * r11 + r02 * r12
    g02 = r00 * r20 + r01 * r21 + r02 * r22
    g12 = r10 * r20 + r11 * r21 + r12 * r22
    fro = math.sqrt(
        g00 * g00 + g11 * g11 + g22 * g22 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)
    )
    if fro > _ORTHONORMAL_TOL:
        raise ValueError(f"matrix is not orthonormal (||R^T R - I|| = {fro:.3e})")
    det = (
        r00 * (r11 * r22 - r12 * r21)
        - r01 * (r10 * r22 - r12 * r20)
        + r02 * (r10 * r21 - r11 * r20)
    )
    if det < 0.0:
        raise ValueError("matrix is a reflection (det < 0), not a rotation")

    tr = r00 + r11 + r22
    vx = r21 - r12
    vy = r02 - r20
    vz = r10 - r01
    c = (tr - 1.0) / 2.0
    s = 0.5 * math.sqrt(vx * vx + vy * vy + vz * vz)
    theta = math.atan2(s, c)

    # Axis permutation by the largest diagonal entry keeps delta well away
    # from cancellation for every input.
    if r00 >= r11 and r00 >= r22:
        i, j, k = 0, 1, 2
        delta = 1.0 + r00 - r11 - r22
    elif r11 >= r22:
        i, j, k = 1, 2, 0
        delta = 1.0 + r11 - r22 - r00
    else:
        i, j, k = 2, 0, 1
        delta = 1.0 + r22 - r00 - r11

    if delta > _LOG_DELTA_EPS:
        e = (r00, r01, r02, r10, r11, r12, r20, r21, r22)
        return _log_main(e, tr, theta, c, s, i, j, k, delta, jacobian)
    return _log_small(vx, vy, vz, theta, c, s, jacobian)


def _log_main(e, tr, theta, c, s, i, j, k, delta, jacobian):
    # e is the row-major tuple of matrix entries; everything here runs on
    # plain floats, one ndarray is built at the very end.
    gamma = theta / math.sqrt(3.0 - tr)
    d = math.sqrt(delta)
    sym_j = e[3 * j + i] + e[3 * i + j]
    sym_k = e[3 * k + i] + e[3 * i + k]
    r = [0.0, 0.0, 0.0]
    r[i] = d * gamma
    r[j] = gamma * sym_j / d
    r[k] = gamma * sym_k / d

    if theta < math.pi - _LOG_THETA_EPS:
        # The branch fixes only r_i's sign; test the rotation's action on a
        # vector perpendicular to the axis to recover the true sign.
        h0, h1, h2 = r[0] / theta, r[1] / theta, r[2] / theta
        if h0 * h0 + h1 * h1 < 0.25:
            p0, p1, p2 = -h2, 0.0, h0  # rhat x yhat
        else:
            p0, p1, p2 = h1, -h0, 0.0  # rhat x zhat
        m0 = e[0] * p0 + e[1] * p1 + e[2] * p2
        m1 = e[3] * p0 + e[4] * p1 + e[5] * p2
        m2 = e[6] * p0 + e[7] * p1 + e[8] * p2
        x0 = h1 * p2 - h2 * p1
        x1 = h2 * p0 - h0 * p2
        x2 = h0 * p1 - h1 * p0
        if m0 * x0 + m1 * x1 + m2 * x2 < 0.0:
            r = [-r[0], -r[1], -r[2]]
            d = -d
    else:
        tol = _PI_SIGN_TOL * math.pi
        for comp in r:
            if abs(comp) > tol:
                if comp < 0.0:
                    r = [-r[0], -r[1], -r[2]]
                    d = -d
                break

    if not jacobian:
        return np.array(r), None

    rh = (r[0] / theta, r[1] / theta, r[2] / theta)
    ch = 0.5 * c
    # dtheta[a][b] = (c * [rhat]_x - s I)[a][b] / 2
    dt = (
        (-0.5 * s, -ch * rh[2], ch * rh[1]),
        (ch * rh[2], -0.5 * s, -ch * rh[0]),
        (-ch * rh[1], ch * rh[0], -0.5 * s),
    )
    tf = theta / (6.0 - 2.0 * tr)
    rhi = rh[i]
    g2d = gamma / (2.0 * d)
    god = gamma / d
    rows = [None, None, None]
    Ji = [[0.0] * 3 for _ in range(3)]
    Jj = [[0.0] * 3 for _ in range(3)]
    Jk = [[0.0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            ddg = rhi * (dt[a][b] + (tf if a == b else 0.0))
            if a == b:
                gdd = g2d if a == i else -g2d
            else:
                gdd = 0.0
            core = (ddg - gdd) / delta
            Ji[a][b] = gdd + ddg
            Jj[a][b] = sym_j * core
            Jk[a][b] = sym_k * core
    Jj[j][i] += god
    Jj[i][j] += god
    Jk[k][i] += god
    Jk[i][k] += god
    rows[i] = Ji
    rows[j] = Jj
    rows[k] = Jk
    return np.array(r), np.array(rows)


def _log_small(vx, vy, vz, theta, c, s, jacobian):
    if theta > _LOG_THETA_EPS:
        a = s / theta
        lam = (s - c * theta) / (2.0 * s * s)
    else:
        a = 1.0 - theta * theta / 6.0
        lam = theta / 6.0
    v = np.array([vx, vy, vz])
    r = v / (2.0 * a)
    if not jacobian:
        return r, None
    eye = np.eye(3)
    if theta > _LOG_THETA_EPS:
        dtheta = (c * skew(r / theta) - s * eye) / 2.0
    else:
        dtheta = (c * (np.ones((3, 3)) - eye) - s * eye) / 2.0
    J = _E_BASIS / (2.0 * a) + lam * v[:, None, None] * dtheta[None, :, :]
    return r, J


def jac_log_of(R, dR_blocks):
    """r' = log(R) and dr'/dx, given the blocks dR/dx_m of each input x_m.

    Returns (r', J) with J of shape (3, len(dR_blocks)): column m is the
    log-map Jacobian contracted with dR/dx_m.
    """
    r, Jlog = log_map(R)
    return r, np.einsum("iab,mab->im", Jlog, np.asarray(dR_blocks).reshape(-1, 3, 3))


# ---------------------------------------------------------------------------
# The xy orientation reduction
# ---------------------------------------------------------------------------


def rxy_to_r(rxy) -> np.ndarray:
    """Lift a 2-component xy rotation vector to the full 3-vector (r, 0)."""
    v = np.asarray(rxy, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"rxy must have shape (2,), got {v.shape}")
    return np.array([v[0], v[1], 0.0])


def jac_zaxis(rxy) -> np.ndarray:
    """Derivative of the local z axis R((r_xy, 0)) zhat: shape (3, 2)."""
    dR = jac_exp(rxy_to_r(rxy))
    return np.column_stack([dR[0][:, 2], dR[1][:, 2]])


def rxy_from_r(r) -> np.ndarray:
    """Two-component orientation with the same local z axis as r.

    The reduced vector r_xy satisfies R((r_xy, 0)) zhat = R(r) zhat; it
    drops the rotation about the surface's own z axis. When the z axis is
    flipped all the way over (theta_xy = pi) the axis already lies in the
    xy plane and the first two components of r are returned directly.
    """
    v = _as_vec3(r, "rotation vector")
    zl = exp_map(v)[:, 2]
    w = np.array([-zl[1], zl[0]])  # xy part of zhat x zl; z part is 0
    s = float(np.linalg.norm(w))
    cth = float(zl[2])
    theta = math.atan2(s, cth)
    if math.pi - theta <= 1e-6:
        return v[:2].copy()
    if theta <= _SERIES_EPS:
        alpha = 1.0 - theta * theta / 6.0
    else:
        alpha = s / theta
    return w / alpha


def rxy_for_zdir(zdir) -> np.ndarray:
    """xy rotation vector whose rotation maps zhat onto the unit vector zdir."""
    v = _as_vec3(zdir, "direction")
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero direction vector")
    v = v / n
    w = np.array([-v[1], v[0]])
    s = float(np.linalg.norm(w))
    theta = math.atan2(s, float(v[2]))
    if s <= 1e-12:
        if v[2] > 0.0:
            return np.zeros(2)
        return np.array([math.pi, 0.0])  # z to -z: pi about the x axis
    return w * (theta / s)


def jac_rxy(r) -> np.ndarray:
    """Derivative of rxy_from_r: shape (2, 3).

    Built from the quotient rule on r_xy = (zhat x zl) / alpha(theta_xy)
    with zl = R(r) zhat; on the theta_xy = pi branch the reduction is the
    plain xy projection of r and the derivative is the projector.
    """
    v = _as_vec3(r, "rotation vector")
    R = exp_map(v)
    zl = R[:, 2]
    w3 = np.array([-zl[1], zl[0], 0.0])
    s = float(np.linalg.norm(w3))
    cth = float(zl[2])
    theta = math.atan2(s, cth)
    if math.pi - theta <= 1e-6:
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dzl = np.stack([jac_exp(v)[m] @ np.array([0.0, 0.0, 1.0]) for m in range(3)], axis=1)
    zx = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # [zhat]_x
    if theta <= _SERIES_EPS:
        alpha = 1.0 - theta * theta / 6.0
        dalpha = -theta / 3.0
    else:
        alpha = s / theta
        dalpha = (theta * cth - s) / (theta * theta)
    J3 = (zx @ dzl) / alpha
    if s > 1e-12:
        what = w3 / s
        # dtheta/dzl, with cos^2 + sin^2 = 1 collapsing the atan2 quotient.
        dtheta_dzl = cth * (what @ zx) - s * np.array([0.0, 0.0, 1.0])
        J3 += np.outer(w3, (-dalpha / (alpha * alpha)) * (dtheta_dzl @ dzl))
    return J3[:2]


# ---------------------------------------------------------------------------
# Rigid transforms and chains
# ---------------------------------------------------------------------------


def xform_fwd(q, r, t) -> np.ndarray:
    """Local-to-world: R(r) q + t. Accepts (3,) or (N, 3) points."""
    pts = np.asarray(q, dtype=float)
    R = exp_map(r)
    tv = _as_vec3(t, "translation")
    if pts.ndim == 1:
        return R @ pts + tv
    return pts @ R.T + tv


def xform_rev(q, r, t) -> np.ndarray:
    """World-to-local: R(r)^T (q - t). Accepts (3,) or (N, 3) points."""
    pts = np.asarray(q, dtype=float)
    R = exp_map(r)
    tv = _as_vec3(t, "translation")
    if pts.ndim == 1:
        return R.T @ (pts - tv)
    return (pts - tv) @ R


def pose_inverse(pose: Pose6) -> Pose6:
    """Inverse rigid pose: (r, t)^-1 = (-r, -R(r)^T t)."""
    R = exp_map(pose.r)
    return Pose6(-pose.r, -(R.T @ pose.t))


def compose_pose(outer: Pose6, inner: Pose6) -> Pose6:
    """Pose of the map X_f(outer) after X_f(inner)."""
    return compose_chain([ChainLink(inner, 1), ChainLink(outer, 1)])


def compose_chain(links: Sequence[ChainLink]) -> Pose6:
    """Collapse a chain of forward/reverse links into a single pose.

    Links apply right to left: the first element of the sequence acts on
    the point first. The composed rotation vector is canonical.
    """
    if len(links) == 0:
        return Pose6(np.zeros(3), np.zeros(3))
    Rc = np.eye(3)
    p = np.zeros(3)
    for link in links:
        R = exp_map(link.pose.r)
        if link.phi == 1:
            p = R @ p + link.pose.t
            Rc = R @ Rc
        else:
            p = R.T @ (p - link.pose.t)
            Rc = R.T @ Rc
    rc, _ = log_map(Rc, jacobian=False)
    return Pose6(rc, p)


def jac_chain(links: Sequence[ChainLink]) -> np.ndarray:
    """Jacobian of the composed pose with respect to every link parameter.

    Returns a (6, 6n) matrix: rows are (r_c, t_c), column blocks are
    (r_n, t_n, ..., r_1, t_1), last link first, matching the right-to-left
    application order.
    """
    n = len(links)
    if n == 0:
        raise ValueError("empty chain")

    # Per-link signed rotations R_j = R(phi_j r_j) and their derivatives
    # with respect to the stored r_j (the phi chain rule included).
    Rs = []
    dRs = []
    for link in links:
        arg = link.phi * link.pose.r
        Rs.append(exp_map(arg))
        dRs.append(link.phi * jac_exp(arg))

    # Prefix transforms: t_r[j] is the image of the origin after links
    # 1..j; right[j] is R_{j} ... R_1 (right[0] = I).
    t_r = [np.zeros(3)]
    right = [np.eye(3)]
    p = np.zeros(3)
    Racc = np.eye(3)
    for jdx, link in enumerate(links):
        if link.phi == 1:
            p = Rs[jdx] @ p + link.pose.t
        else:
            p = Rs[jdx] @ (p - link.pose.t)
        Racc = Rs[jdx] @ Racc
        t_r.append(p.copy())
        right.append(Racc.copy())

    # Suffix rotations: left[j] = R_n ... R_{j+1} (left[n] = I).
    left = [np.eye(3)] * (n + 1)
    Racc = np.eye(3)
    for jdx in range(n - 1, -1, -1):
        left[jdx] = Racc.copy()
        Racc = Racc @ Rs[jdx]

    J = np.zeros((6, 6 * n))
    dRc = []  # d R_c / d r_j, link-major
    for jdx in range(n):
        col = 6 * (n - 1 - jdx)  # layout [r_n t_n ... r_1 t_1]
        Rl = left[jdx]  # R_n ... R_{j+1}
        Rr = right[jdx]  # R_{j-1} ... R_1
        tr_prev = t_r[jdx]
        link = links[jdx]
        for m in range(3):
            dRj = dRs[jdx][m]
            dRc.append(Rl @ dRj @ Rr)
            if link.phi == 1:
                J[3:6, col + m] = Rl @ (dRj @ tr_prev)
            else:
                J[3:6, col + m] = Rl @ (dRj @ (tr_prev - link.pose.t))
        if link.phi == 1:
            J[3:6, col + 3 : col + 6] = Rl
        else:
            J[3:6, col + 3 : col + 6] = -(Rl @ Rs[jdx])
    _, dr = jac_log_of(right[n], dRc)
    for jdx in range(n):
        col = 6 * (n - 1 - jdx)
        J[0:3, col : col + 3] = dr[:, 3 * jdx : 3 * jdx + 3]
    return J


def chain_covariance(
    links: Sequence[ChainLink],
    link_covariances: Sequence[np.ndarray],
    five_dof: bool = False,
) -> np.ndarray:
    """First-order covariance of a composed pose chain.

    link_covariances[i] is the 6x6 (r, t) covariance of links[i]; the
    result is Sigma_c = J_c S J_c^T with S block diagonal in the chain
    Jacobian's column order. With five_dof, the composed rotation is
    reduced to r_xy through its Jacobian, giving the 5x5 covariance of a
    revolute patch pose.
    """
    if len(links) != len(link_covariances):
        raise ValueError("need one covariance per link")
    if len(links) == 0:
        raise ValueError("empty chain")
    covs = []
    for c in link_covariances:
        cc = np.asarray(c, dtype=float)
        if cc.shape != (6, 6):
            raise ValueError("link covariances must be 6x6")
        if not np.allclose(cc, cc.T, atol=1e-9):
            raise ValueError("link covariances must be symmetric")
        covs.append(cc)
    J = jac_chain(links)
    S = block_diag(*covs[::-1])  # column blocks run last link first
    sigma = sym(J @ S @ J.T)
    if not five_dof:
        return sigma
    J5 = block_diag(jac_rxy(compose_chain(links).r), np.eye(3))
    return sym(J5 @ sigma @ J5.T)
