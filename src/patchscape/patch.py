"""Bounded curved-surface patch models.

A patch is a surface type, a curvature vector k, a boundary type with
extents d, and a pose. All surfaces share a single implicit quadric form
in the local frame,

    f(q) = q^T diag(k3) q - 2 q^T zhat,

where k3 expands the stored curvatures onto the three axes per type. The
zero set passes through the local origin with the local z axis as its
outward normal there; positive curvature curves the surface toward +z
(concave from the viewpoint side).

Boundaries live on the local xy plane and clip the surface by the xy
projection of the point. Surfaces symmetric about their z axis (circular
paraboloid, sphere, plane-with-circle) carry a 5-DoF pose; everything
else carries the full 6 DoF.

Parameter covariance, when present, is ordered (k, d, r, t) with r the
2- or 3-vector matching the pose type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np
from scipy.linalg import block_diag

from patchscape import pose as _pose
from patchscape.pose import Pose5, Pose6

__all__ = [
    "SurfaceType",
    "BoundaryType",
    "Patch",
    "DomainError",
    "MatchThresholds",
    "implicit_eval",
    "explicit_eval",
    "boundary_contains",
    "projected_area",
    "polygon_area",
    "quad_vertices",
    "flip_toward_viewpoint",
    "transform_patch",
    "match_patches",
    "patch_frame",
    "patch_rotvec",
    "patch_dof",
    "curvature_k3",
]


class SurfaceType(Enum):
    ELLIPTIC_PARABOLOID = "elliptic_paraboloid"
    HYPERBOLIC_PARABOLOID = "hyperbolic_paraboloid"
    CYLINDRIC_PARABOLOID = "cylindric_paraboloid"
    CIRCULAR_PARABOLOID = "circular_paraboloid"
    PLANE = "plane"
    SPHERE = "sphere"
    CIRCULAR_CYLINDER = "circular_cylinder"


class BoundaryType(Enum):
    ELLIPSE = "ellipse"
    CIRCLE = "circle"
    AARECT = "aarect"
    CQUAD = "cquad"


class DomainError(ValueError):
    """Evaluation outside a sphere's or cylinder's reachable extent."""


# Stored-curvature count. plane has none; two-curvature types store (kx, ky).
_K_LEN = {
    SurfaceType.ELLIPTIC_PARABOLOID: 2,
    SurfaceType.HYPERBOLIC_PARABOLOID: 2,
    SurfaceType.CYLINDRIC_PARABOLOID: 1,
    SurfaceType.CIRCULAR_PARABOLOID: 1,
    SurfaceType.PLANE: 0,
    SurfaceType.SPHERE: 1,
    SurfaceType.CIRCULAR_CYLINDER: 1,
}

_D_LEN = {
    BoundaryType.ELLIPSE: 2,
    BoundaryType.CIRCLE: 1,
    BoundaryType.AARECT: 2,
    BoundaryType.CQUAD: 5,
}

# Fixed surface->boundary pairing; a plane takes any boundary.
_SURFACE_BOUNDARY = {
    SurfaceType.ELLIPTIC_PARABOLOID: (BoundaryType.ELLIPSE,),
    SurfaceType.HYPERBOLIC_PARABOLOID: (BoundaryType.ELLIPSE,),
    SurfaceType.CYLINDRIC_PARABOLOID: (BoundaryType.AARECT,),
    SurfaceType.CIRCULAR_PARABOLOID: (BoundaryType.CIRCLE,),
    SurfaceType.SPHERE: (BoundaryType.CIRCLE,),
    SurfaceType.CIRCULAR_CYLINDER: (BoundaryType.AARECT,),
    SurfaceType.PLANE: (
        BoundaryType.ELLIPSE,
        BoundaryType.CIRCLE,
        BoundaryType.AARECT,
        BoundaryType.CQUAD,
    ),
}

# Types whose pose is 5-DoF (surface plus boundary symmetric about z).
_REVOLUTE = {
    (SurfaceType.CIRCULAR_PARABOLOID, BoundaryType.CIRCLE),
    (SurfaceType.SPHERE, BoundaryType.CIRCLE),
    (SurfaceType.PLANE, BoundaryType.CIRCLE),
}


@dataclass(frozen=True)
class Patch:
    s: SurfaceType
    b: BoundaryType
    k: np.ndarray  # stored curvatures, see _K_LEN
    d: np.ndarray  # boundary extents, see _D_LEN
    pose: Union[Pose5, Pose6]
    sigma: Optional[np.ndarray] = None  # (p, p) covariance over (k, d, r, t)

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float).reshape(-1))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).reshape(-1))
        if self.b not in _SURFACE_BOUNDARY[self.s]:
            raise ValueError(f"{self.s.value} cannot carry a {self.b.value} boundary")
        if self.k.size != _K_LEN[self.s]:
            raise ValueError(
                f"{self.s.value} needs {_K_LEN[self.s]} curvatures, got {self.k.size}"
            )
        if self.d.size != _D_LEN[self.b]:
            raise ValueError(
                f"{self.b.value} needs {_D_LEN[self.b]} extents, got {self.d.size}"
            )
        revolute = (self.s, self.b) in _REVOLUTE
        if revolute and not isinstance(self.pose, Pose5):
            raise ValueError(f"{self.s.value}/{self.b.value} patches use a 5-DoF pose")
        if not revolute and not isinstance(self.pose, Pose6):
            raise ValueError(f"{self.s.value}/{self.b.value} patches use a 6-DoF pose")
        if self.sigma is not None:
            sig = np.asarray(self.sigma, dtype=float)
            p = patch_dof(self)
            if sig.shape != (p, p):
                raise ValueError(f"sigma must be ({p}, {p}), got {sig.shape}")
            object.__setattr__(self, "sigma", sig)

    @property
    def revolute(self) -> bool:
        return isinstance(self.pose, Pose5)


def patch_dof(patch: Patch) -> int:
    nr = 2 if isinstance(patch.pose, Pose5) else 3
    return _K_LEN[patch.s] + _D_LEN[patch.b] + nr + 3


def patch_rotvec(patch: Patch) -> np.ndarray:
    """Full 3-component rotation vector of the patch frame."""
    if isinstance(patch.pose, Pose5):
        return _pose.rxy_to_r(patch.pose.rxy)
    return patch.pose.r


def patch_frame(patch: Patch) -> Tuple[np.ndarray, np.ndarray]:
    """Rotation matrix and translation of the local frame."""
    return _pose.exp_map(patch_rotvec(patch)), patch.pose.t


def curvature_k3(patch: Patch) -> np.ndarray:
    """Expand stored curvatures to the diag(k3) of the unified implicit form."""
    s = patch.s
    if s in (SurfaceType.ELLIPTIC_PARABOLOID, SurfaceType.HYPERBOLIC_PARABOLOID):
        return np.array([patch.k[0], patch.k[1], 0.0])
    if s == SurfaceType.CYLINDRIC_PARABOLOID:
        return np.array([0.0, patch.k[0], 0.0])
    if s == SurfaceType.CIRCULAR_PARABOLOID:
        return np.array([patch.k[0], patch.k[0], 0.0])
    if s == SurfaceType.PLANE:
        return np.zeros(3)
    if s == SurfaceType.SPHERE:
        return np.array([patch.k[0]] * 3)
    return np.array([0.0, patch.k[0], patch.k[0]])  # circular cylinder


# ---------------------------------------------------------------------------
# Surface evaluation
# ---------------------------------------------------------------------------


def implicit_eval(patch: Patch, q, frame: str = "world"):
    """Unified implicit form and its domain flag.

    Returns (value, in_domain). value is zero on the surface. For spheres
    and cylinders the implicit form's zero set is the whole closed quadric;
    in_domain marks the near half reachable by the explicit form
    (0 <= k * z_local <= 1). Accepts a single point or an (N, 3) array.
    """
    pts = np.asarray(q, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if frame == "world":
        R, t = patch_frame(patch)
        pts = (pts - t) @ R
    elif frame != "local":
        raise ValueError("frame must be 'world' or 'local'")
    k3 = curvature_k3(patch)
    val = pts * pts @ k3 - 2.0 * pts[:, 2]
    if patch.s in (SurfaceType.SPHERE, SurfaceType.CIRCULAR_CYLINDER):
        kz = patch.k[0] * pts[:, 2]
        ok = (kz >= 0.0) & (kz <= 1.0)
    else:
        ok = np.ones(len(pts), dtype=bool)
    if single:
        return float(val[0]), bool(ok[0])
    return val, ok


def explicit_eval(patch: Patch, u, frame: str = "world"):
    """Surface point over local xy coordinates u.

    Paraboloids and planes are global; spheres and cylinders raise
    DomainError where |k| * extent exceeds 1. Accepts (2,) or (N, 2).
    """
    uu = np.asarray(u, dtype=float)
    single = uu.ndim == 1
    uu = np.atleast_2d(uu)
    s = patch.s
    if s == SurfaceType.PLANE:
        z = np.zeros(len(uu))
    elif s == SurfaceType.SPHERE:
        kap = patch.k[0]
        rho2 = np.einsum("ij,ij->i", uu, uu)
        if kap == 0.0:
            z = np.zeros(len(uu))
        else:
            root = 1.0 - kap * kap * rho2
            if np.any(root < 0.0):
                raise DomainError("xy point beyond the sphere's equator")
            z = (1.0 - np.sqrt(root)) / kap
    elif s == SurfaceType.CIRCULAR_CYLINDER:
        kap = patch.k[0]
        if kap == 0.0:
            z = np.zeros(len(uu))
        else:
            root = 1.0 - kap * kap * uu[:, 1] ** 2
            if np.any(root < 0.0):
                raise DomainError("xy point beyond the cylinder's side")
            z = (1.0 - np.sqrt(root)) / kap
    else:
        k3 = curvature_k3(patch)
        z = 0.5 * (k3[0] * uu[:, 0] ** 2 + k3[1] * uu[:, 1] ** 2)
    pts = np.column_stack([uu, z])
    if frame == "world":
        R, t = patch_frame(patch)
        pts = pts @ R.T + t
    elif frame != "local":
        raise ValueError("frame must be 'world' or 'local'")
    return pts[0] if single else pts


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------


def quad_vertices(d) -> np.ndarray:
    """CCW vertices of a convex quad from (d1, d2, d3, d4, gamma)."""
    d = np.asarray(d, dtype=float).reshape(5)
    gam = d[4]
    angles = np.array([gam, math.pi - gam, math.pi + gam, -gam])
    return d[:4, None] * np.column_stack([np.cos(angles), np.sin(angles)])


def boundary_contains(patch: Patch, u):
    """Whether local xy points fall inside the patch boundary (closed)."""
    uu = np.asarray(u, dtype=float)
    single = uu.ndim == 1
    uu = np.atleast_2d(uu)
    b, d = patch.b, patch.d
    if b == BoundaryType.ELLIPSE:
        inside = (uu[:, 0] / d[0]) ** 2 + (uu[:, 1] / d[1]) ** 2 <= 1.0
    elif b == BoundaryType.CIRCLE:
        inside = np.einsum("ij,ij->i", uu, uu) <= d[0] * d[0]
    elif b == BoundaryType.AARECT:
        inside = (np.abs(uu[:, 0]) <= d[0]) & (np.abs(uu[:, 1]) <= d[1])
    else:
        v = quad_vertices(d)
        inside = np.ones(len(uu), dtype=bool)
        for i in range(4):
            a, bb = v[i], v[(i + 1) % 4]
            e = bb - a
            # perp of [x y] is [y -x]; inside is the non-positive side
            ln = (uu[:, 0] - a[0]) * e[1] - (uu[:, 1] - a[1]) * e[0]
            inside &= ln <= 0.0
    return bool(inside[0]) if single else inside


def projected_area(patch: Patch) -> float:
    """Area of the boundary region on the local xy plane."""
    b, d = patch.b, patch.d
    if b == BoundaryType.ELLIPSE:
        return math.pi * d[0] * d[1]
    if b == BoundaryType.CIRCLE:
        return math.pi * d[0] * d[0]
    if b == BoundaryType.AARECT:
        return 4.0 * d[0] * d[1]
    return polygon_area(quad_vertices(d))


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as (N, 2) vertices."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


# ---------------------------------------------------------------------------
# Flip and rigid transform
# ---------------------------------------------------------------------------

_RX_PI = np.diag([1.0, -1.0, -1.0])


def flip_toward_viewpoint(patch: Patch, viewpoint) -> Patch:
    """Make the local z axis face the viewpoint.

    If zhat_l . (v - t) is already positive the patch returns unchanged.
    Otherwise the frame rotates pi about its local x axis and curvatures
    negate, which leaves the surface point set untouched. A viewpoint
    exactly in the tangent plane is degenerate and leaves the patch as is.
    Covariance, when present, is carried through the exact Jacobian of the
    parameter change.
    """
    v = np.asarray(viewpoint, dtype=float).reshape(3)
    R, t = patch_frame(patch)
    facing = float(R[:, 2] @ (v - t))
    if facing >= 0.0:
        return patch
    return _flip(patch, R)[0]


def _flip(patch: Patch, R: np.ndarray) -> Tuple[Patch, np.ndarray]:
    new_d = patch.d.copy()
    J_d = np.eye(patch.d.size)
    if patch.b == BoundaryType.CQUAD:
        # pi about x mirrors the quad across the x axis; relabel the
        # vertices to keep them CCW: (d1 d2 d3 d4) -> (d4 d3 d2 d1).
        J_d = block_diag(np.eye(4)[::-1], 1.0)
        new_d = J_d @ patch.d

    if isinstance(patch.pose, Pose5):
        rxy_new = _pose.rxy_for_zdir(-R[:, 2])
        # d rxy'/d rxy through the z-direction map, via the pseudo-inverse
        # of the (well-conditioned away from the pi fold) lift derivative.
        dz_old = _pose.jac_zaxis(patch.pose.rxy)
        J_r = np.linalg.pinv(_pose.jac_zaxis(rxy_new)) @ (-dz_old)
        new_pose = Pose5(rxy_new, patch.pose.t)
    else:
        dR_old = _pose.jac_exp(patch.pose.r)
        r_new, J_r = _pose.jac_log_of(R @ _RX_PI, dR_old @ _RX_PI)
        new_pose = Pose6(r_new, patch.pose.t)
    J = block_diag(-np.eye(patch.k.size), J_d, J_r, np.eye(3))

    sigma = None
    if patch.sigma is not None:
        sigma = J @ patch.sigma @ J.T
    return replace(patch, k=-patch.k, d=new_d, pose=new_pose, sigma=sigma), J


def transform_patch(patch: Patch, T: Pose6):
    """Apply a deterministic rigid transform T to the patch pose.

    Returns (patch', J) where J is d(new params)/d(old params) over the
    canonical (k, d, r, t) order; sigma is carried through J when present.
    """
    R_T = _pose.exp_map(T.r)
    t_new = R_T @ patch.pose.t + T.t
    if isinstance(patch.pose, Pose5):
        zl_new = R_T @ _pose.exp_map(_pose.rxy_to_r(patch.pose.rxy))[:, 2]
        rxy_new = _pose.rxy_for_zdir(zl_new)
        J_r = np.linalg.pinv(_pose.jac_zaxis(rxy_new)) @ (
            R_T @ _pose.jac_zaxis(patch.pose.rxy)
        )
        new_pose = Pose5(rxy_new, t_new)
    else:
        R_new = R_T @ _pose.exp_map(patch.pose.r)
        r_new, J_r = _pose.jac_log_of(R_new, R_T @ _pose.jac_exp(patch.pose.r))
        new_pose = Pose6(r_new, t_new)
    J = block_diag(np.eye(patch.k.size + patch.d.size), J_r, R_T)
    sigma = J @ patch.sigma @ J.T if patch.sigma is not None else None
    return replace(patch, pose=new_pose, sigma=sigma), J


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchThresholds:
    d_s: float = 0.015  # m, per boundary-extent component
    k_s: float = 5.0  # 1/m, per curvature component
    a_s: float = math.radians(20.0)  # rad, axis angle
    r_s: float = 0.01  # m, center distance


def _angle_between(a, b) -> float:
    c = float(np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    return math.acos(c)


def match_patches(a: Patch, b: Patch, thresholds: MatchThresholds = MatchThresholds()) -> bool:
    """Decide whether two patches describe the same physical surface piece.

    Checks type equality, componentwise extent and curvature gaps, the
    angle between local z axes, and center distance. Types that are not
    symmetric about z additionally require the local y axes to agree
    directly or after a pi turn about z (the models are invariant to that
    turn).
    """
    if a.s != b.s or a.b != b.b:
        return False
    if np.any(np.abs(a.d - b.d) >= thresholds.d_s):
        return False
    if a.k.size and np.any(np.abs(a.k - b.k) >= thresholds.k_s):
        return False
    Ra, ta = patch_frame(a)
    Rb, tb = patch_frame(b)
    if _angle_between(Ra[:, 2], Rb[:, 2]) >= thresholds.a_s:
        return False
    if float(np.linalg.norm(ta - tb)) >= thresholds.r_s:
        return False
    if not a.revolute:
        ya, yb = Ra[:, 1], Rb[:, 1]
        if (
            _angle_between(ya, yb) >= thresholds.a_s
            and _angle_between(ya, -yb) >= thresholds.a_s
        ):
            return False
    return True
