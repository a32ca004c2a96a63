"""Synthetic organized range sensor.

Camera convention: x right, y down, z forward (optical axis). A pixel
(u, v) observes along the unnormalized ray

    m = ((u - cx) / fx, (v - cy) / fy, 1),

so a point at ray parameter r is p = m * r with depth z = r. Clouds are
stored in the camera frame, row major over the v (row), u (column) grid,
with NaN rows for pixels that miss the scene.

Range noise models perturb the measured point. The power-law models are
rank one along the ray: the ray parameter moves by a zero-mean normal
with variance k, k*r, or k*r^2 (k in m^2, m, unitless), giving point
covariance k * r^p * m m^T. The stereo model propagates pixel matching
noise through the disparity relation d = fx * b / z and is full rank.
Per-point covariances are always evaluated at the noiseless intersection.
A cloud stores each one packed: the six distinct entries of the symmetric
3x3, in COV_UPPER's order "xx xy xz yy yz zz", which is also the order of
a covariance row in an OPC2 file. unpack_cov rebuilds the 3x3 of the rows
a fit uses, mirroring the lower triangle from the upper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from patchscape import pose as _pose
from patchscape.patch import (
    Patch,
    SurfaceType,
    boundary_contains,
    curvature_k3,
    patch_frame,
)
from patchscape.pose import Pose6

__all__ = [
    "CameraIntrinsics",
    "KINECT_640",
    "intrinsics_preset",
    "ScenePlane",
    "ConstantNoise",
    "LinearNoise",
    "QuadraticNoise",
    "StereoNoise",
    "OrganizedCloud",
    "COV_UPPER",
    "pack_cov",
    "unpack_cov",
    "pixel_rays",
    "project",
    "point_covariance",
    "sample_scene",
]


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    baseline: float  # stereo baseline, m

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0 for v in (self.fx, self.fy)):
            raise ValueError(f"fx and fy must be finite and positive, got {self.fx} and {self.fy}")
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.baseline)):
            raise ValueError(f"cx, cy and baseline must be finite, "
                             f"got {self.cx}, {self.cy} and {self.baseline}")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0
                   for v in (self.width, self.height)):
            raise ValueError(f"width and height must be non-negative ints, "
                             f"got {self.width!r} and {self.height!r}")

    def scaled(self, factor: float) -> "CameraIntrinsics":
        """Intrinsics after decimating the image by an integer factor.

        Decimated pixel j stands for the block of full-resolution pixels
        j f .. j f + f - 1, whose centre is j f + (f - 1) / 2, so the
        principal point moves to (c - (f - 1) / 2) / f.
        """
        shift = (factor - 1) / 2
        return replace(
            self,
            fx=self.fx / factor,
            fy=self.fy / factor,
            cx=(self.cx - shift) / factor,
            cy=(self.cy - shift) / factor,
            width=int(self.width // factor),
            height=int(self.height // factor),
        )


KINECT_640 = CameraIntrinsics(
    fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480, baseline=0.075
)

_PRESETS = {"kinect-640": KINECT_640}


def intrinsics_preset(name: str) -> CameraIntrinsics:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown intrinsics preset {name!r}") from None


@dataclass(frozen=True)
class ScenePlane:
    """Infinite plane n . p = c in the world frame."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)


@dataclass(frozen=True)
class _PowerNoise:
    """Ray-parameter variance k * r^power, k in m^(2 - power), finite and >= 0."""

    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ValueError(f"{self.kind} noise k must be finite and non-negative, got {self.k}")


@dataclass(frozen=True)
class ConstantNoise(_PowerNoise):
    kind = "constant"
    power = 0


@dataclass(frozen=True)
class LinearNoise(_PowerNoise):
    kind = "linear"
    power = 1


@dataclass(frozen=True)
class QuadraticNoise(_PowerNoise):
    kind = "quadratic"
    power = 2


@dataclass(frozen=True)
class StereoNoise:
    sigma_p: float = 0.35  # pixel matching std, px
    sigma_m: float = 0.17  # disparity matching std, px
    kind = "stereo"

    def __post_init__(self):
        # point_covariance squares them
        if not all(math.isfinite(v * v) and v > 0.0 for v in (self.sigma_p, self.sigma_m)):
            raise ValueError(f"stereo noise sigma_p and sigma_m must be finite and positive, "
                             f"with finite squares, got {self.sigma_p} and {self.sigma_m}")


NoiseModel = Union[ConstantNoise, LinearNoise, QuadraticNoise, StereoNoise]


# (row, col) of the six distinct entries of a symmetric 3x3, in the order a
# packed covariance row stores them: xx xy xz yy yz zz
COV_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PACK_ROWS, _PACK_COLS = (list(ix) for ix in zip(*COV_UPPER))
# the packed entry of each row-major 3x3 entry: 0 1 2 / 1 3 4 / 2 4 5
_UNPACK = [COV_UPPER.index((min(i, j), max(i, j))) for i in range(3) for j in range(3)]


def pack_cov(full: np.ndarray) -> np.ndarray:
    """(..., 6) packed rows of (..., 3, 3) covariances: their upper triangles."""
    return full[..., _PACK_ROWS, _PACK_COLS]


def unpack_cov(packed: np.ndarray) -> np.ndarray:
    """(..., 3, 3) symmetric covariances of (..., 6) packed rows."""
    return packed[..., _UNPACK].reshape(packed.shape[:-1] + (3, 3))


@dataclass
class OrganizedCloud:
    """Row-major organized point cloud in the camera frame."""

    points: np.ndarray  # (H, W, 3), NaN where no return
    cov: Optional[np.ndarray]  # (H, W, 6) packed in COV_UPPER's order, or None
    intrinsics: CameraIntrinsics

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.points[..., 2])


# ---------------------------------------------------------------------------
# Pixel geometry
# ---------------------------------------------------------------------------


def pixel_rays(intr: CameraIntrinsics, pixels=None) -> np.ndarray:
    """Unnormalized rays with unit z. pixels (N, 2) as (u, v), or the
    whole (H, W, 3) grid when omitted."""
    if pixels is None:
        u = np.arange(intr.width, dtype=float)
        v = np.arange(intr.height, dtype=float)
        mu = (u[None, :] - intr.cx) / intr.fx
        mv = (v[:, None] - intr.cy) / intr.fy
        rays = np.empty((intr.height, intr.width, 3))
        rays[..., 0] = np.broadcast_to(mu, rays.shape[:2])
        rays[..., 1] = np.broadcast_to(mv, rays.shape[:2])
        rays[..., 2] = 1.0
        return rays
    px = np.atleast_2d(np.asarray(pixels, dtype=float))
    rays = np.empty((len(px), 3))
    rays[:, 0] = (px[:, 0] - intr.cx) / intr.fx
    rays[:, 1] = (px[:, 1] - intr.cy) / intr.fy
    rays[:, 2] = 1.0
    return rays


def project(intr: CameraIntrinsics, points) -> np.ndarray:
    """Camera-frame points to pixel coordinates (u, v)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = pts[:, 0] * intr.fx / z + intr.cx
        v = pts[:, 1] * intr.fy / z + intr.cy
    out = np.column_stack([u, v])
    return out[0] if np.asarray(points).ndim == 1 else out


# ---------------------------------------------------------------------------
# Noise covariance
# ---------------------------------------------------------------------------


def _stereo_jacobian(intr: CameraIntrinsics, u, v, d):
    """d(point)/d(u, v, d) of stereo triangulation, batched."""
    b = intr.baseline
    J = np.zeros(np.shape(d) + (3, 3))
    J[..., 0, 0] = b / d
    J[..., 0, 2] = -b * u / d**2
    J[..., 1, 1] = b / d
    J[..., 1, 2] = -b * v / d**2
    J[..., 2, 2] = -intr.fx * b / d**2
    return J


def point_covariance(noise: NoiseModel, intr: CameraIntrinsics, pixels, ranges):
    """Per-point 3x3 covariance at the noiseless range.

    pixels (N, 2) or (2,), ranges matching. Power models give the rank-one
    k * r^p * m m^T; stereo propagates E = diag(sp^2, sp^2, sm^2) through
    the triangulation Jacobian at disparity d = fx * b / r, and needs a
    positive baseline b and a finite covariance (ValueError otherwise).
    """
    px = np.atleast_2d(np.asarray(pixels, dtype=float))
    r = np.atleast_1d(np.asarray(ranges, dtype=float))
    if isinstance(noise, StereoNoise):
        if not intr.baseline > 0.0:
            raise ValueError(f"stereo noise needs a positive baseline, got {intr.baseline}")
        with np.errstate(over="ignore", invalid="ignore"):
            d = intr.fx * intr.baseline / r
            J = _stereo_jacobian(intr, px[:, 0], px[:, 1], d)
            E = np.diag([noise.sigma_p**2, noise.sigma_p**2, noise.sigma_m**2])
            cov = J @ E @ np.swapaxes(J, -1, -2)
        if not np.isfinite(cov).all():
            raise ValueError("stereo noise covariance overflows at these intrinsics and ranges")
    else:
        m = pixel_rays(intr, px)
        var = noise.k * r ** noise.power
        cov = var[:, None, None] * m[:, :, None] * m[:, None, :]
    return cov[0] if np.asarray(pixels).ndim == 1 else cov


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------

_S_MIN = 1e-9


def _cast_patch(patch: Patch, o_w, m_w) -> np.ndarray:
    """Smallest positive ray parameter hitting the bounded patch, inf on
    miss. o_w (3,) world ray origin, m_w (N, 3) world ray directions."""
    R, t = patch_frame(patch)
    o = R.T @ (o_w - t)
    m = m_w @ R
    k3 = curvature_k3(patch)
    A = m * m @ k3
    hb = m @ (k3 * o) - m[:, 2]
    C = float(o @ (k3 * o) - 2.0 * o[2])

    best = np.full(len(m), np.inf)
    lin = np.abs(A) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        # a ray flat along the patch (A = 0) meets it once, at -C / (2 hb);
        # others at the cancellation-free roots qq / A and C / qq
        s_lin = np.where(np.abs(hb) > 1e-300, -C / (2.0 * hb), np.inf)
        D = hb * hb - A * C
        qq = -(hb + np.where(hb >= 0.0, 1.0, -1.0) * np.sqrt(np.where(D >= 0.0, D, 0.0)))
        real = ~lin & (D >= 0.0)
        roots = (np.where(lin, s_lin, np.where(real, qq / A, np.inf)),
                 np.where(real & (np.abs(qq) > 0), C / qq, np.inf))

    for s in roots:
        live = np.isfinite(s) & (s > _S_MIN)
        q = o[None, :] + s[live, None] * m[live]
        good = boundary_contains(patch, q[:, :2])
        if patch.s in (SurfaceType.SPHERE, SurfaceType.CIRCULAR_CYLINDER):
            kz = patch.k[0] * q[:, 2]
            good &= (kz >= 0.0) & (kz <= 1.0)
        best[live] = np.minimum(best[live], np.where(good, s[live], np.inf))
    return best


def _cast_plane(plane: ScenePlane, o_w, m_w) -> np.ndarray:
    denom = m_w @ plane.normal
    num = plane.offset - float(plane.normal @ o_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(np.abs(denom) > 1e-300, num / denom, np.inf)
    return np.where(s > _S_MIN, s, np.inf)


def sample_scene(
    scene: Sequence[Union[Patch, ScenePlane]],
    intr: CameraIntrinsics,
    camera_pose: Optional[Pose6] = None,
    noise: Optional[NoiseModel] = None,
    rng=None,
) -> OrganizedCloud:
    """Render an organized cloud of the nearest scene hits.

    camera_pose maps camera to world (p_w = R p_cam + t); identity when
    omitted. With a noise model, cov holds the packed rows of
    point_covariance at each hit's noiseless range, all NaN at pixels with
    no return; stereo noise is drawn through the Cholesky factor of the
    full 3x3, whose lower triangle can differ from the stored upper one in
    its last bits. Deterministic for a fixed integer seed or seeded
    Generator.
    """
    if camera_pose is None:
        camera_pose = Pose6(np.zeros(3), np.zeros(3))
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)

    H, W = intr.height, intr.width
    rays_cam = pixel_rays(intr).reshape(-1, 3)
    R_cam = _pose.exp_map(camera_pose.r)
    o_w = np.asarray(camera_pose.t, dtype=float)
    rays_w = rays_cam @ R_cam.T

    s_best = np.full(len(rays_cam), np.inf)
    for surf in scene:
        if isinstance(surf, ScenePlane):
            s_surf = _cast_plane(surf, o_w, rays_w)
        else:
            s_surf = _cast_patch(surf, o_w, rays_w)
        s_best = np.minimum(s_best, s_surf)

    hit = np.isfinite(s_best)
    s_true = np.where(hit, s_best, np.nan)
    pts = rays_cam * s_true[:, None]

    cov = None
    if noise is not None:
        # the hits' (u, v) as floats, which point_covariance takes without a copy
        v, u = np.divmod(np.flatnonzero(hit).astype(float), W)
        full = point_covariance(noise, intr, np.column_stack([u, v]), s_true[hit])
        if isinstance(noise, StereoNoise):
            xi = rng.standard_normal((H * W, 3))
            pts[hit] += np.einsum("nij,nj->ni", np.linalg.cholesky(full), xi[hit])
        else:
            eps = rng.standard_normal(H * W) * np.sqrt(noise.k * s_true**noise.power)
            pts = pts + rays_cam * np.where(hit, eps, 0.0)[:, None]
        cov = np.full((H * W, 6), np.nan)
        cov[hit] = pack_cov(full)
        cov = cov.reshape(H, W, 6)

    pts[~hit] = np.nan
    return OrganizedCloud(points=pts.reshape(H, W, 3), cov=cov, intrinsics=intr)
