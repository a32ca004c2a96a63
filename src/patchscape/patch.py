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

The table _FAMILY is the one definition of a surface family: per type,
which stored curvature fills each diag(k3) axis, the boundaries it can
carry (a fit gives it the first), and the boundary that makes it
revolute. The patch checks itself against it, and the fit and the
patch-map reader take their rules from it through k3_map, boundaries and
is_revolute.

Parameter covariance, when present, is ordered (k, d, r, t) with r the
2- or 3-vector matching the pose type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy.linalg import block_diag

from patchscape import pose as _pose
from patchscape.pose import Pose5, Pose6

__all__ = [
    "SurfaceType",
    "BoundaryType",
    "Patch",
    "boundary_contains",
    "projected_area",
    "polygon_area",
    "quad_vertices",
    "transform_patch",
    "patch_frame",
    "patch_rotvec",
    "patch_dof",
    "curvature_k3",
    "k3_map",
    "boundaries",
    "is_revolute",
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


_D_LEN = {
    BoundaryType.ELLIPSE: 2,
    BoundaryType.CIRCLE: 1,
    BoundaryType.AARECT: 2,
    BoundaryType.CQUAD: 5,
}


class _Family(NamedTuple):
    k3: Tuple[int, int, int]  # stored curvature on each diag(k3) axis, -1 a zero
    boundaries: Tuple[BoundaryType, ...]  # those it can carry; a fit gives it the first
    revolute: Optional[BoundaryType]  # the boundary that makes its pose 5-DoF


_S, _B = SurfaceType, BoundaryType
# The one definition of each surface family: the patch, the fit and the
# patch-map reader all take their rules from here.
_FAMILY = {
    _S.ELLIPTIC_PARABOLOID: _Family((0, 1, -1), (_B.ELLIPSE,), None),
    _S.HYPERBOLIC_PARABOLOID: _Family((0, 1, -1), (_B.ELLIPSE,), None),
    _S.CYLINDRIC_PARABOLOID: _Family((-1, 0, -1), (_B.AARECT,), None),
    _S.CIRCULAR_PARABOLOID: _Family((0, 0, -1), (_B.CIRCLE,), _B.CIRCLE),
    _S.PLANE: _Family((-1, -1, -1), (_B.ELLIPSE, _B.CIRCLE, _B.AARECT, _B.CQUAD), _B.CIRCLE),
    _S.SPHERE: _Family((0, 0, 0), (_B.CIRCLE,), _B.CIRCLE),
    _S.CIRCULAR_CYLINDER: _Family((-1, 0, 0), (_B.AARECT,), None),
}


def _k_len(s: SurfaceType) -> int:
    return max(_FAMILY[s].k3) + 1


def k3_map(s: SurfaceType) -> np.ndarray:
    """The (3, len(k)) 0/1 matrix taking the stored curvatures k of a type to diag(k3)."""
    return (np.array(_FAMILY[s].k3)[:, None] == np.arange(_k_len(s))).astype(float)


def boundaries(s: SurfaceType) -> Tuple[BoundaryType, ...]:
    """The boundaries a surface type can carry; a fit gives it the first."""
    return _FAMILY[s].boundaries


def is_revolute(s: SurfaceType, b: BoundaryType) -> bool:
    """Whether the pair is symmetric about local z, so that it takes a 5-DoF pose."""
    return _FAMILY[s].revolute == b


@dataclass(frozen=True)
class Patch:
    s: SurfaceType
    b: BoundaryType
    k: np.ndarray  # stored curvatures, see _FAMILY
    d: np.ndarray  # boundary extents, see _D_LEN
    pose: Union[Pose5, Pose6]
    sigma: Optional[np.ndarray] = None  # (p, p) covariance over (k, d, r, t)

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float).reshape(-1))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).reshape(-1))
        if self.b not in boundaries(self.s):
            raise ValueError(f"{self.s.value} cannot carry a {self.b.value} boundary")
        if self.k.size != _k_len(self.s):
            raise ValueError(
                f"{self.s.value} needs {_k_len(self.s)} curvatures, got {self.k.size}"
            )
        if self.d.size != _D_LEN[self.b]:
            raise ValueError(
                f"{self.b.value} needs {_D_LEN[self.b]} extents, got {self.d.size}"
            )
        if not all(0.0 < x < math.inf for x in self.d.tolist()):
            raise ValueError(f"{self.b.value} extents must be finite and positive, "
                             f"got {self.d.tolist()}")
        # a cquad's diagonals cross at the origin, so with positive extents
        # and gamma in (0, pi/2) its vertices turn counter-clockwise at every
        # corner: the convex quad boundary_contains and the coverage grid take
        if self.b == BoundaryType.CQUAD and not self.d[4] < math.pi / 2:
            raise ValueError(f"cquad angle gamma must be below pi/2, got {self.d[4]}")
        revolute = is_revolute(self.s, self.b)
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


def patch_dof(patch: Patch) -> int:
    nr = 2 if isinstance(patch.pose, Pose5) else 3
    return _k_len(patch.s) + _D_LEN[patch.b] + nr + 3


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
    return np.append(patch.k, 0.0)[list(_FAMILY[patch.s].k3)]  # index -1: the 0.0


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
# Rigid transform
# ---------------------------------------------------------------------------


def transform_patch(patch: Patch, T: Pose6):
    """Apply a deterministic rigid transform T to the patch pose.

    Returns (patch', J) where J is d(new params)/d(old params) over the
    canonical (k, d, r, t) order; sigma is carried through J when present.
    The new rotation R_T R(r) reaches the pose through its chart map: a
    5-DoF pose's r_xy through pose.jac_rxy_of, a 6-DoF pose's r through
    pose.jac_log_of.
    """
    R_T = _pose.exp_map(T.r)
    r = patch_rotvec(patch)
    R_new = R_T @ _pose.exp_map(r)
    dR = R_T @ _pose.jac_exp(r)
    t_new = R_T @ patch.pose.t + T.t
    if isinstance(patch.pose, Pose5):
        rxy_new, J_r = _pose.jac_rxy_of(R_new, dR[:2])
        new_pose = Pose5(rxy_new, t_new)
    else:
        r_new, J_r = _pose.jac_log_of(R_new, dR)
        new_pose = Pose6(r_new, t_new)
    J = block_diag(np.eye(patch.k.size + patch.d.size), J_r, R_T)
    sigma = J @ patch.sigma @ J.T if patch.sigma is not None else None
    return replace(patch, pose=new_pose, sigma=sigma), J
