"""Rotation vectors, rigid transforms, and their Jacobians.

Orientation is carried as a rotation vector r (axis times angle, radians).
The exponential map turns r into a rotation matrix via the Rodrigues form
and the log map inverts it exactly through theta = pi. Both derivatives
come from one pair, the SO(3) right Jacobian J_r and its inverse (Sola,
Deray, Atchuthan, "A micro Lie theory for state estimation in robotics",
arXiv:1812.01537), so covariance propagation never needs finite
differences.

Conventions:
  - X_f(q, r, t) = R(r) q + t maps local coordinates to world.
  - X_r(q, r, t) = R(r)^T (q - t) maps world coordinates to local.
  - Canonical rotation vectors satisfy ||r|| <= pi. At exactly pi the sign
    ambiguity (r and -r encode the same rotation) is resolved by making the
    first component with magnitude above 1e-9 * pi positive.
  - Chains apply their links right to left: the first link in the sequence
    acts on the point first.
  - A rotation and its derivative blocks dR/dx_m reach a pose's parameters
    through one of two chart maps: jac_log_of gives a 6-DoF pose's r =
    log(R), and jac_rxy_of a 5-DoF pose's r_xy, the xy rotation vector
    whose rotation takes zhat onto R zhat (rxy_for_zdir). The fit's frame
    reductions and transform_patch change a rotation's chart only through
    them.
  - The 5-DoF chart folds at theta_xy = pi, where the z axis is -zhat:
    every r_xy of norm pi aims it there. rxy_for_zdir returns (pi, 0) at
    the fold, and jac_rxy_of takes the minimum-norm derivative, which is
    the exact one wherever the chart is regular.

Numerical policy:
  - Series branches for sin(theta)/theta style terms switch at
    theta <= eps(float64)^(1/4) ~ 1.22e-4, where the truncation error of the
    quoted series drops below machine epsilon.
  - The log map splits at theta = pi/2. Below it r is the antisymmetric
    part v = R - R^T scaled by theta / (2 sin theta), which stays accurate
    down to 0. From pi/2 up it is read off the symmetric part, where
    3 - tr(R) >= 2 does not cancel, and takes its sign from v.
  - Within 1e-7 of pi, v is roundoff and the sign convention above picks
    the sign. This band is a stability threshold, not a model parameter.
  - dR/dr_m = R [J_r(r) e_m]_x and d log(R) = J_r^-1(r) vee(R^T dR): J_r and
    J_r^-1 are the only rotation derivatives here. J_r^-1 stays finite up
    to theta = pi.
  - exp_map and log_map run on plain Python floats internally. They sit in
    per-point loops (pose round trips, chain recomputation), and scalar
    arithmetic beats ndarray dispatch by an order of magnitude at this size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Pose6",
    "Pose5",
    "ChainLink",
    "exp_map",
    "log_map",
    "rxy_from_r",
    "rxy_to_r",
    "rxy_for_zdir",
    "xform_fwd",
    "pose_inverse",
    "compose_chain",
    "skew",
    "sym",
    "jac_exp",
    "jac_log_of",
    "jac_rxy_of",
]

# Series cutoff ~ eps^(1/4): below this the quoted Taylor forms of
# sin(t)/t and (1-cos(t))/t^2 are exact to machine precision.
_SERIES_EPS = float(np.finfo(np.float64).eps) ** 0.25

# Angles within this of pi take their sign from _fix_pi_sign: there the
# antisymmetric part of R is roundoff and cannot fix the sign.
_LOG_THETA_EPS = 1e-7

# Rejection tolerance for non-orthonormal log-map input.
_ORTHONORMAL_TOL = 1e-9

# Relative magnitude below which a component does not count as the
# "first nonzero" one when fixing the sign at theta = pi.
_PI_SIGN_TOL = 1e-9

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


def _rodrigues_form(x, y, z, a, b) -> np.ndarray:
    """I + a [r]_x + b [r]_x^2 for r = (x, y, z), built from plain floats.

    exp_map, J_r and J_r^-1 all have this form.
    """
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
    return _rodrigues_form(x, y, z, a, b)


def _jr(r: np.ndarray) -> np.ndarray:
    """SO(3) right Jacobian: J_r(r) = I - b [r]_x + c [r]_x^2.

    b = (1 - cos t)/t^2 and c = (t - sin t)/t^3 with t = ||r||, so that
    exp(r + dr) = exp(r) exp(J_r(r) dr) to first order.
    """
    x, y, z = r.tolist()
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t <= _SERIES_EPS:
        b = 0.5 - t2 / 24.0
        c = 1.0 / 6.0 - t2 / 120.0
    else:
        b = 2.0 * math.sin(0.5 * t) ** 2 / t2  # 1 - cos t without cancellation
        c = (t - math.sin(t)) / (t2 * t)
    return _rodrigues_form(x, y, z, -b, c)


def _jr_inv(r: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: I + [r]_x / 2 + (1/t^2 - 1/(2 t tan(t/2))) [r]_x^2.

    Finite up to t = pi, where the last coefficient tends to 1/pi^2.
    """
    x, y, z = r.tolist()
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t <= _SERIES_EPS:
        e = 1.0 / 12.0 + t2 / 720.0
    else:
        e = 1.0 / t2 - 1.0 / (2.0 * t * math.tan(0.5 * t))
    return _rodrigues_form(x, y, z, 0.5, e)


def _jac_exp_at(R: np.ndarray, r: np.ndarray) -> np.ndarray:
    """jac_exp(r) from R = exp_map(r), which the caller already holds."""
    return R @ np.array([skew(c) for c in _jr(r).T.tolist()])


def jac_exp(r) -> np.ndarray:
    """Derivative of the Rodrigues matrix: shape (3, 3, 3), [m] = dR/dr_m.

    dR/dr_m = R(r) [J_r(r) e_m]_x.
    """
    v = _as_vec3(r, "rotation vector")
    return _jac_exp_at(exp_map(v), v)


def _fix_pi_sign(r: np.ndarray) -> np.ndarray:
    """Make the first component with |c| > tol * pi positive (theta = pi)."""
    for c in r:
        if abs(c) > _PI_SIGN_TOL * math.pi:
            return -r if c < 0.0 else r
    return r


# ---------------------------------------------------------------------------
# Log map
# ---------------------------------------------------------------------------


def log_map(R) -> np.ndarray:
    """Canonical rotation vector of a rotation matrix (||r|| <= pi).

    Below theta = pi/2 the vector comes from the antisymmetric part of R,
    from pi/2 up from its symmetric part; at exactly pi the first
    non-negligible component is made positive. jac_log_of gives the
    derivative.

    Raises ValueError if R is not orthonormal within 1e-9 or has negative
    determinant.
    """
    M = np.asarray(R, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"rotation matrix must have shape (3, 3), got {M.shape}")
    e = M.ravel().tolist()
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = e

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
    s = 0.5 * math.sqrt(vx * vx + vy * vy + vz * vz)
    theta = math.atan2(s, (tr - 1.0) / 2.0)

    if theta < 0.5 * math.pi:
        # v = 2 sin(theta) * axis; theta / sin(theta) by series near 0.
        if theta <= _SERIES_EPS:
            f = 0.5 + theta * theta / 12.0
        else:
            f = theta / (2.0 * s)
        return np.array([f * vx, f * vy, f * vz])

    # Symmetric part, permuted by the largest diagonal entry: here
    # 3 - tr >= 2 and d^2 = 2 (1 - cos theta) zhat_i^2 >= 2/3, so neither
    # cancels.
    if r00 >= r11 and r00 >= r22:
        i, j, k = 0, 1, 2
    elif r11 >= r22:
        i, j, k = 1, 2, 0
    else:
        i, j, k = 2, 0, 1
    d = math.sqrt(1.0 + e[4 * i] - e[4 * j] - e[4 * k])
    gamma = theta / math.sqrt(3.0 - tr)
    out = [0.0, 0.0, 0.0]
    out[i] = d * gamma
    out[j] = gamma * (e[3 * j + i] + e[3 * i + j]) / d
    out[k] = gamma * (e[3 * k + i] + e[3 * i + k]) / d
    r = np.array(out)
    if theta >= math.pi - _LOG_THETA_EPS:
        return _fix_pi_sign(r)
    if out[0] * vx + out[1] * vy + out[2] * vz < 0.0:
        return -r
    return r


def jac_log_of(R, dR_blocks):
    """r' = log(R) and dr'/dx, given the blocks dR/dx_m of each input x_m.

    Returns (r', J) with J of shape (3, len(dR_blocks)), column m being
    J_r^-1(r') vee(R^T dR/dx_m). Precondition: every block is tangent to
    SO(3) at R (R^T dR/dx_m is skew), as it is for the derivative of any
    function that stays on SO(3).
    """
    r = log_map(R)
    A = np.asarray(R, dtype=float).T @ np.asarray(dR_blocks, dtype=float).reshape(-1, 3, 3)
    return r, _jr_inv(r) @ np.array([A[:, 2, 1], A[:, 0, 2], A[:, 1, 0]])


# ---------------------------------------------------------------------------
# The xy orientation reduction
# ---------------------------------------------------------------------------


def rxy_to_r(rxy) -> np.ndarray:
    """Lift a 2-component xy rotation vector to the full 3-vector (r, 0)."""
    v = np.asarray(rxy, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"rxy must have shape (2,), got {v.shape}")
    return np.array([v[0], v[1], 0.0])


def rxy_from_r(r) -> np.ndarray:
    """Two-component orientation with the local z axis of r: R((r_xy, 0)) zhat = R(r) zhat."""
    return rxy_for_zdir(exp_map(r)[:, 2])


def rxy_for_zdir(zdir) -> np.ndarray:
    """xy rotation vector whose rotation maps zhat onto the unit vector zdir.

    At the fold, zdir = -zhat, it is (pi, 0): a half turn about the x axis.
    """
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


def jac_rxy_of(R, dR_blocks):
    """r_xy = rxy_for_zdir(R zhat) and dr_xy/dx, given the blocks dR/dx_m of each input x_m.

    The 5-DoF counterpart of jac_log_of. Returns (r_xy, J) with J of shape
    (2, len(dR_blocks)), column m being pinv(dz/dr_xy) (dR/dx_m zhat), where
    z(r_xy) = R((r_xy, 0)) zhat. Where the chart is regular that is the
    exact derivative; at the fold dz/dr_xy has rank 1 and J is the
    minimum-norm one.
    """
    rxy = rxy_for_zdir(np.asarray(R, dtype=float)[:, 2])
    dz = np.asarray(dR_blocks, dtype=float).reshape(-1, 3, 3)[:, :, 2].T
    return rxy, np.linalg.pinv(jac_exp(rxy_to_r(rxy))[:2, :, 2].T) @ dz


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


def pose_inverse(pose: Pose6) -> Pose6:
    """Inverse rigid pose: (r, t)^-1 = (-r, -R(r)^T t)."""
    R = exp_map(pose.r)
    return Pose6(-pose.r, -(R.T @ pose.t))


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
    rc = log_map(Rc)
    return Pose6(rc, p)
