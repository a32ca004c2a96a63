"""Sparse patch mapping over organized clouds and the moving local volume.

The mapping pipeline runs in stages on each organized range frame:
preprocessing filters (passthrough, bilateral, median decimation), dense
two-scale normals via integral images, the hiking saliency filter (DtFP,
DoN, DoNG), grid-based seed selection in the volume frame, per-seed
neighborhood search (image backprojection, k-d tree, or triangle mesh),
and patch fit/validate with curvature, residual, and coverage gates.

The map lives in a cubic local volumetric workspace whose frame sits at a
top corner with y pointing down. The volume follows the camera under one
of four policies (fv, fc, fd, ff); when it remaps, resident patches are
carried by the same rigid transform so their world poses are unchanged,
then culled against the cube and, optionally, a behind-camera plane.

Clouds are camera frame (x right, y down, z forward). Gravity and
forward vectors handed to the volume policies are world frame.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from patchscape import pose as _pose
from patchscape.fit import FitResult, fit_patch
from patchscape.patch import Patch, patch_frame, projected_area, transform_patch
from patchscape.pose import ChainLink, Pose6
from patchscape.sensor import OrganizedCloud, project
from patchscape.validate import (
    CoverageConfig,
    CurvatureGate,
    ResidualMethod,
    coverage_eval,
    curvature_gate,
    residual,
)

__all__ = [
    "passthrough",
    "bilateral_filter",
    "median_decimate",
    "integral_normals",
    "SaliencyConfig",
    "fixation_point",
    "saliency_filter",
    "SeedGrid",
    "Seed",
    "select_seeds",
    "NeighborhoodVariant",
    "NeighborhoodIndex",
    "Neighborhood",
    "neighborhood",
    "fit_sample",
    "mesh_triangles",
    "surface_area",
    "expected_patch_count",
    "MovePolicy",
    "VolumeState",
    "init_volume",
    "volume_update",
    "remap_patches",
    "MapPatch",
    "ValidationRecord",
    "MapConfig",
    "gate_patch",
    "MapBudgets",
    "MapStepResult",
    "map_step",
]


_AXES = {"x": 0, "y": 1, "z": 2}


# ---------------------------------------------------------------------------
# Preprocessing filters
# ---------------------------------------------------------------------------


def _invalidate(points: np.ndarray, cov: Optional[np.ndarray], kill: np.ndarray):
    pts = points.copy()
    pts[kill] = np.nan
    cv = None
    if cov is not None:
        cv = cov.copy()
        cv[kill] = np.nan
    return pts, cv


def passthrough(cloud: OrganizedCloud, axis: Union[str, int], lo: float, hi: float) -> OrganizedCloud:
    """Invalidate points whose camera-frame coordinate leaves [lo, hi].

    Organization is preserved: removed entries become NaN rows.
    """
    ax = _AXES[axis] if isinstance(axis, str) else int(axis)
    if ax not in (0, 1, 2):
        raise ValueError("axis must be x, y, z or 0, 1, 2")
    c = cloud.points[..., ax]
    with np.errstate(invalid="ignore"):
        kill = cloud.valid_mask & ((c < lo) | (c > hi))
    pts, cv = _invalidate(cloud.points, cloud.cov, kill)
    return OrganizedCloud(points=pts, cov=cv, intrinsics=cloud.intrinsics)


def bilateral_filter(
    cloud: OrganizedCloud, radius: int = 2, sigma_s: float = 2.0, sigma_r: float = 0.05
) -> OrganizedCloud:
    """Discontinuity-preserving bilateral filter on the depth image.

    Each valid pixel's depth is replaced by a weighted mean over a
    (2 radius + 1)^2 window, weights Gaussian in both pixel offset
    (sigma_s, px) and depth difference (sigma_r, m), so depths across a
    jump contribute almost nothing. Points move along their pixel rays
    (scaled by z'/z); per-point covariances are carried unchanged, since
    the filter's cross-pixel correlations are not tracked.
    """
    z = cloud.points[..., 2]
    h, w = z.shape
    valid = np.isfinite(z)
    zp = np.full((h + 2 * radius, w + 2 * radius), np.nan)
    zp[radius : radius + h, radius : radius + w] = z
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    inv_2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv_2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    for dv in range(-radius, radius + 1):
        for du in range(-radius, radius + 1):
            zn = zp[radius + dv : radius + dv + h, radius + du : radius + du + w]
            ok = valid & np.isfinite(zn)
            if not np.any(ok):
                continue
            dz = np.where(ok, zn - z, 0.0)
            wgt = np.exp(-(du * du + dv * dv) * inv_2ss - dz * dz * inv_2sr)
            wgt = np.where(ok, wgt, 0.0)
            num += wgt * np.where(ok, zn, 0.0)
            den += wgt
    with np.errstate(invalid="ignore", divide="ignore"):
        z_new = np.where(valid, num / den, np.nan)
        scale = np.where(valid, z_new / z, np.nan)
    pts = cloud.points * scale[..., None]
    cv = cloud.cov.copy() if cloud.cov is not None else None
    return OrganizedCloud(points=pts, cov=cv, intrinsics=cloud.intrinsics)


def median_decimate(cloud: OrganizedCloud, factor: int = 2) -> OrganizedCloud:
    """Downsample by picking the median-depth member of each block.

    Each factor x factor block contributes the member point whose z is
    the (lower) median of the block's valid depths, so its measured
    covariance rides along. Blocks with no valid member become NaN.
    Intrinsics are rescaled to the decimated grid.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    h, w = cloud.points.shape[:2]
    h2, w2 = h // factor, w // factor
    pts = cloud.points[: h2 * factor, : w2 * factor]
    z = pts[..., 2].reshape(h2, factor, w2, factor).transpose(0, 2, 1, 3)
    z = z.reshape(h2, w2, factor * factor)
    zs = np.where(np.isfinite(z), z, np.inf)
    order = np.argsort(zs, axis=2)
    n = np.isfinite(z).sum(axis=2)
    pick = np.take_along_axis(
        order, np.maximum(n - 1, 0)[..., None] // 2, axis=2
    )[..., 0]

    # block-member index back to full-resolution pixel coordinates
    bi, bj = np.divmod(pick, factor)
    rows = np.arange(h2)[:, None] * factor + bi
    cols = np.arange(w2)[None, :] * factor + bj
    out = cloud.points[rows, cols].copy()
    out[n == 0] = np.nan
    cv = None
    if cloud.cov is not None:
        cv = cloud.cov[rows, cols].copy()
        cv[n == 0] = np.nan
    return OrganizedCloud(points=out, cov=cv, intrinsics=cloud.intrinsics.scaled(factor))


def _decimated_source(
    cloud: OrganizedCloud, pixel: Tuple[int, int], factor: int, point: np.ndarray
) -> Tuple[int, int]:
    """Full-resolution pixel of the block member median_decimate kept at pixel.

    The decimated cloud holds an exact copy of that member's point, so the
    member is found by comparing the block's points with it.
    """
    i0, j0 = pixel[0] * factor, pixel[1] * factor
    block = cloud.points[i0 : i0 + factor, j0 : j0 + factor]
    bi, bj = np.argwhere((block == point).all(axis=-1))[0]
    return (i0 + int(bi), j0 + int(bj))


# ---------------------------------------------------------------------------
# Dense normals from integral images
# ---------------------------------------------------------------------------


# (row, col) of the six distinct entries of the symmetric p p^T, in the
# order the moment image stores them after the count and the coordinates
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# Closed-form eigenvectors are trusted down to this relative eigen-gap
# (lam_mid - lam_min) / |lam|_max; see _smallest_eigvec for the bound.
_GAP_MIN = np.finfo(float).eps ** (1.0 / 3.0)

# Windows solved per vectorized block: small enough that the solver's few
# dozen temporaries stay in a core's L2 cache, large enough to amortize
# NumPy's per-call overhead.
_BLOCK = 4096


def _moment_integral(points: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(10, H + 1, W + 1) zero-padded running sums of [1, p, upper(p p^T)].

    Any window's point count, coordinate sums and second moments are then
    four lookups. The running sums are taken in place, so this image is the
    only full-frame buffer.
    """
    h, w = valid.shape
    ii = np.zeros((10, h + 1, w + 1))
    m = ii[:, 1:, 1:]
    m[0] = valid
    for c in range(3):
        np.copyto(m[1 + c], points[..., c], where=valid)
    for c, (i, j) in enumerate(_UPPER):
        np.multiply(m[1 + i], m[1 + j], out=m[4 + c])
    np.cumsum(ii, axis=1, out=ii)
    np.cumsum(ii, axis=2, out=ii)
    return ii


def _box_sums(ii: np.ndarray, v: np.ndarray, u: np.ndarray, half: np.ndarray) -> np.ndarray:
    """(10, n) moment sums over frame-clipped windows centered at pixels (v, u).

    Each window spans half[i] pixels on every side of its center.
    """
    _, h1, w1 = ii.shape
    flat = ii.reshape(len(ii), -1)
    lo_v = np.clip(v - half, 0, h1 - 1) * w1
    hi_v = np.clip(v + half + 1, 0, h1 - 1) * w1
    lo_u = np.clip(u - half, 0, w1 - 1)
    hi_u = np.clip(u + half + 1, 0, w1 - 1)
    s = flat[:, hi_v + hi_u]
    s -= flat[:, lo_v + hi_u]
    s -= flat[:, hi_v + lo_u]
    s += flat[:, lo_v + lo_u]
    return s


def _null_vector(a, lam: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the two rows of A - lam I spanning most area.

    a holds the six distinct entries of symmetric A in _UPPER order; the
    result is (3, n) and not finite where A - lam I has rank below two.
    """
    a00, a01, a02, a11, a12, a22 = a
    m00, m11, m22 = a00 - lam, a11 - lam, a22 - lam
    c01 = np.array([a01 * a12 - a02 * m11, a02 * a01 - m00 * a12, m00 * m11 - a01 * a01])
    c02 = np.array([a01 * m22 - a02 * a12, a02 * a02 - m00 * m22, m00 * a12 - a01 * a02])
    c12 = np.array([m11 * m22 - a12 * a12, a12 * a02 - a01 * m22, a01 * a12 - m11 * a02])
    n01, n02, n12 = (np.einsum("kn,kn->n", c, c) for c in (c01, c02, c12))
    first = (n01 >= n02) & (n01 >= n12)
    v = np.where(first, c01, np.where(n02 >= n12, c02, c12))
    return v / np.sqrt(np.where(first, n01, np.maximum(n02, n12)))


def _smallest_eigvec(a) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest-eigenvalue unit eigenvectors of symmetric 3x3 matrices.

    a holds the six distinct entries in _UPPER order, each an (n,) array.
    The eigenvalues come from the trigonometric solution of the
    characteristic cubic (Kopp, arXiv:physics/0610206); the eigenvector is
    the null vector of A - lam_min I, taken again at the Rayleigh quotient
    of that first estimate. With gap = lam_mid - lam_min and |A| the
    largest |lam|, the trigonometric lam_min is off by ~eps |A|^2 / gap,
    which turns the first vector by ~eps (|A| / gap)^2. The Rayleigh
    quotient is off by ~eps^2 |A|^4 / gap^3, so the second vector is off
    by ~eps |A| / gap + eps^2 (|A| / gap)^4. The first term is the
    conditioning of the eigenvector itself; it dominates while
    gap / |A| >= eps^(1/3) (_GAP_MIN), where the error is below
    ~eps^(2/3) ~ 4e-11 rad.

    Returns ((3, n) vectors, certified). certified is False where the
    vector is not finite or the relative gap is below _GAP_MIN.
    """
    a00, a01, a02, a11, a12, a22 = a
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        det = b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02) + a02 * (a01 * a12 - b11 * a02)
        phi = np.arccos(np.clip(det / (2.0 * p * p * p), -1.0, 1.0)) / 3.0
        lam_max = q + 2.0 * p * np.cos(phi)
        lam_min = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
        lam_mid = 3.0 * q - lam_max - lam_min
        v = _null_vector(a, lam_min)
        x, y, z = v
        rayleigh = (
            a00 * x * x + a11 * y * y + a22 * z * z
            + 2.0 * (a01 * x * y + a02 * x * z + a12 * y * z)
        )
        v = _null_vector(a, rayleigh)
        scale = np.maximum(np.abs(lam_max), np.abs(lam_min))
        certified = np.isfinite(v).all(axis=0) & (lam_mid - lam_min > _GAP_MIN * scale)
    return v, certified


def _window_normals(s: np.ndarray, min_support: int) -> np.ndarray:
    """(n, 3) camera-facing unit normals from (10, n) window moment sums.

    NaN where the window holds fewer than min_support valid points.
    """
    cnt = s[0]
    good = cnt >= min_support
    cnt_safe = np.where(good, cnt, 1.0)
    mu = s[1:4] / cnt_safe
    cov = [s[4 + c] / cnt_safe - mu[i] * mu[j] for c, (i, j) in enumerate(_UPPER)]
    n, certified = _smallest_eigvec(cov)

    redo = np.flatnonzero(good & ~certified)
    if len(redo):
        full = np.empty((len(redo), 3, 3))
        for c, (i, j) in enumerate(_UPPER):
            full[:, i, j] = full[:, j, i] = cov[c][redo]
        n[:, redo] = np.linalg.eigh(full)[1][:, :, 0].T

    # orient toward the camera: the window mean always sits in front of it
    flip = np.einsum("kn,kn->n", n, mu) > 0.0
    n = np.where(flip, -n, n).T
    n[~good] = np.nan
    return n


def integral_normals(
    cloud: OrganizedCloud, r: float, f: Optional[float] = None, min_support: int = 6
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-scale dense normals by windowed covariance over integral images.

    Returns (N, N_s): N uses window size 2 r f / Z(i) pixels at each
    pixel, N_s half that, so both windows see roughly a metric r-ball
    (respectively r/2) on the surface. Normals are unit, oriented toward
    the camera, and NaN at invalid pixels and where the window holds fewer
    than min_support valid points.

    One integral image of the count, coordinate sums and the six distinct
    second moments serves both scales; window sums are taken at valid
    pixels only. Each normal is the smallest-eigenvalue eigenvector of its
    window covariance, in closed form (trigonometric eigenvalues, a
    cross-product null vector and one Rayleigh-quotient refinement).
    Windows whose relative eigen-gap (lam_mid - lam_min) / |lam|_max falls
    below eps^(1/3), where the closed form's error bound no longer holds,
    or whose result is not finite, are solved by np.linalg.eigh instead.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    fpx = float(f) if f is not None else cloud.intrinsics.fx
    if fpx <= 0.0:
        raise ValueError("focal length must be positive")
    valid = cloud.valid_mask
    v, u = np.nonzero(valid)
    z = cloud.points[v, u, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        wpx = np.where(z > 0.0, 2.0 * r * fpx / z, 0.0)
    ii = _moment_integral(cloud.points, valid)
    out = []
    for div in (2.0, 4.0):
        half = np.maximum((wpx / div).astype(int), 1)
        n = np.full(cloud.points.shape, np.nan)
        for b in range(0, len(v), _BLOCK):
            blk = slice(b, b + _BLOCK)
            s = _box_sums(ii, v[blk], u[blk], half[blk])
            n[v[blk], u[blk]] = _window_normals(s, min_support)
        out.append(n)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Hiking saliency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaliencyConfig:
    """Thresholds for the three hiking saliency tests.

    r is the patch neighborhood radius; l_d and l_f locate the fixation
    point a body height down and two step lengths forward of the camera;
    R bounds the region of interest around it. phi_d and phi_g (degrees)
    gate the fine-vs-coarse normal angle and the normal-vs-antigravity
    slope; kappa_min and kappa_max bound principal curvatures after the
    fit.
    """

    r: float = 0.1
    l_d: float = 1.0
    l_f: float = 1.2
    R: float = 0.7
    phi_d: float = 15.0
    phi_g: float = 35.0
    kappa_min: float = -13.6
    kappa_max: float = 19.7

    def __post_init__(self):
        if not (self.r > 0.0 and self.R > 0.0):
            raise ValueError("r and R must be positive")
        for name in ("phi_d", "phi_g"):
            v = getattr(self, name)
            if not 0.0 < v < 90.0:
                raise ValueError(f"{name} must lie in (0, 90) degrees")

    @property
    def gate(self) -> CurvatureGate:
        return CurvatureGate(self.kappa_min, self.kappa_max)


def fixation_point(g, l_d: float = 1.0, l_f: float = 1.2) -> np.ndarray:
    """Estimated gaze point: l_d down plus l_f ahead of the camera.

    g is the unit gravity direction in camera frame (y points down, so a
    level camera has g ~ +y); [1 0 0] x g points forward for that pose.
    """
    gv = np.asarray(g, dtype=float).reshape(3)
    return l_d * gv + l_f * np.cross(np.array([1.0, 0.0, 0.0]), gv)


def saliency_filter(
    cloud: OrganizedCloud,
    normals: Tuple[np.ndarray, np.ndarray],
    g,
    cfg: SaliencyConfig = SaliencyConfig(),
) -> np.ndarray:
    """Boolean pixel mask of points passing DtFP, DoN, and DoNG.

    DtFP keeps points within R of the fixation point; DoN drops pixels
    whose fine and coarse normals disagree by more than phi_d; DoNG drops
    slopes whose normal strays more than phi_g from the antigravity
    direction. The mask depends only on per-pixel values, so it is
    order-free.
    """
    gv = np.asarray(g, dtype=float).reshape(3)
    gv = gv / np.linalg.norm(gv)
    n, n_s = normals
    ok = cloud.valid_mask & np.isfinite(n[..., 0]) & np.isfinite(n_s[..., 0])

    fix = fixation_point(gv, cfg.l_d, cfg.l_f)
    with np.errstate(invalid="ignore"):
        near = np.linalg.norm(cloud.points - fix, axis=-1) <= cfg.R
        don = np.einsum("hwi,hwi->hw", n, n_s) >= math.cos(math.radians(cfg.phi_d))
        dong = -(n @ gv) >= math.cos(math.radians(cfg.phi_g))
    return ok & near & don & dong


# ---------------------------------------------------------------------------
# Seed selection on the volume-frame xz grid
# ---------------------------------------------------------------------------


@dataclass
class SeedGrid:
    """Coarse xz grid imposed on the volume for uniform seed spread."""

    v_g: int = 8
    n_g: int = 1

    def __post_init__(self):
        if self.v_g < 1 or self.n_g < 1:
            raise ValueError("v_g and n_g must be positive")


@dataclass(frozen=True)
class Seed:
    pixel: Tuple[int, int]  # (row, col) in the cloud it was selected from
    point: np.ndarray  # camera frame
    cell: Tuple[int, int]  # (ix, iz) on the volume xz grid


def _cell_of(p_vol: np.ndarray, v_s: float, v_g: int) -> Optional[Tuple[int, int]]:
    w = v_s / v_g
    ix = math.floor(p_vol[0] / w)
    iz = math.floor(p_vol[2] / w)
    if 0 <= ix < v_g and 0 <= iz < v_g:
        return (int(ix), int(iz))
    return None


def select_seeds(
    cloud: OrganizedCloud,
    salient: np.ndarray,
    volume: "VolumeState",
    v_g: Optional[int] = None,
    n_g: Optional[int] = None,
    rng_seed=None,
) -> List[Seed]:
    """Pick up to n_g random salient seeds per occupied volume grid cell.

    Points project onto the volume-frame xz plane; cells are visited in
    increasing distance of their center from the projected camera, and
    cells already holding n_g resident patches accept no new seeds.
    Deterministic for a fixed rng_seed.
    """
    grid = volume.grid
    v_g = grid.v_g if v_g is None else v_g
    n_g = grid.n_g if n_g is None else n_g
    rng = np.random.default_rng(rng_seed)

    pix = np.argwhere(salient)
    if len(pix) == 0:
        return []
    pts_cam = cloud.points[pix[:, 0], pix[:, 1]]
    pts_vol = _pose.xform_fwd(pts_cam, volume.c_t.r, volume.c_t.t)

    w = volume.v_s / v_g
    ij = np.floor(pts_vol[:, [0, 2]] / w).astype(int)
    ingrid = np.flatnonzero(((ij >= 0) & (ij < v_g)).all(axis=1))

    # group by cell; the stable sort keeps each cell's pixels in scan order
    key = ij[ingrid, 0] * v_g + ij[ingrid, 1]
    order = np.argsort(key, kind="stable")
    cells, starts = np.unique(key[order], return_index=True)
    groups = np.split(ingrid[order], starts[1:])
    by_cell = {divmod(int(c), v_g): g for c, g in zip(cells, groups)}

    cam_xz = volume.c_t.t[[0, 2]]
    occupancy = volume.cell_counts()

    def cell_rank(cell):
        center = (np.array(cell, dtype=float) + 0.5) * w
        return (float(np.linalg.norm(center - cam_xz)), cell)

    seeds: List[Seed] = []
    for cell in sorted(by_cell, key=cell_rank):
        room = n_g - occupancy.get(cell, 0)
        if room <= 0:
            continue
        cands = by_cell[cell]
        take = min(room, len(cands))
        chosen = rng.choice(len(cands), size=take, replace=False)
        for c in np.sort(chosen):
            idx = cands[int(c)]
            seeds.append(
                Seed(
                    pixel=(int(pix[idx, 0]), int(pix[idx, 1])),
                    point=pts_cam[idx].copy(),
                    cell=cell,
                )
            )
    return seeds


# ---------------------------------------------------------------------------
# Neighborhood search
# ---------------------------------------------------------------------------


class NeighborhoodVariant(Enum):
    BACKPROJECTION = "backprojection"
    KDTREE = "kdtree"
    TRIANGLE_MESH = "triangle_mesh"


# Pixels added on every side of the backprojected search window: measured
# points can sit slightly off their pixel ray (stereo noise perturbs all
# three coordinates), so the exact window for on-ray points is padded
# before the per-pixel Euclidean check.
_PIXEL_MARGIN = 6


@dataclass(frozen=True)
class NeighborhoodIndex:
    """Search method plus the triangle-mesh build thresholds.

    variant is a NeighborhoodVariant or its value.
    """

    variant: NeighborhoodVariant = NeighborhoodVariant.BACKPROJECTION
    t_es: float = 0.05
    t_ar: float = 5.0
    t_jump: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "variant", NeighborhoodVariant(self.variant))
        if not self.t_es > 0.0:
            raise ValueError("t_es must be positive")
        if not self.t_ar >= 1.0:
            raise ValueError("t_ar must be at least 1")
        if not self.t_jump > 0.0:
            raise ValueError("t_jump must be positive")


@dataclass(frozen=True)
class Neighborhood:
    points: np.ndarray  # (n, 3) camera frame
    covs: Optional[np.ndarray]  # (n, 3, 3) or None
    pixels: np.ndarray  # (n, 2) int (row, col)


def _resolve_seed(cloud: OrganizedCloud, seed) -> Tuple[Tuple[int, int], np.ndarray]:
    """The seed's (row, col) pixel and its point, which must be valid."""
    arr = np.asarray(seed)
    if arr.shape != (2,) or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("seed must be an integer (row, col) pixel")
    i, j = int(arr[0]), int(arr[1])
    h, w = cloud.points.shape[:2]
    if not (0 <= i < h and 0 <= j < w) or not np.isfinite(cloud.points[i, j, 2]):
        raise ValueError(f"seed pixel (row {i}, col {j}) is out of range or has no return")
    return (i, j), cloud.points[i, j]


def _ball_pixels_backprojection(
    cloud: OrganizedCloud, s: np.ndarray, r: float
) -> Tuple[slice, slice]:
    """Candidate pixel window: the sphere's image plus a safety margin.

    For any q with |q - s| <= r and depths z >= z_s - r, the pixel offset
    obeys |u_q - u_s| <= fx r (z_s + |x_s|) / (z_s (z_s - r)), and
    likewise for v; a sphere reaching the camera plane falls back to a
    full scan. Returns the (rows, cols) slices of the window.
    """
    intr = cloud.intrinsics
    h, w = cloud.points.shape[:2]
    z = float(s[2])
    if z - r <= 0.0:
        return slice(0, h), slice(0, w)
    uv = project(intr, s)
    du = intr.fx * r * (z + abs(float(s[0]))) / (z * (z - r))
    dv = intr.fy * r * (z + abs(float(s[1]))) / (z * (z - r))
    j0 = max(0, int(math.floor(uv[0] - du)) - _PIXEL_MARGIN)
    j1 = min(w, int(math.ceil(uv[0] + du)) + _PIXEL_MARGIN + 1)
    i0 = max(0, int(math.floor(uv[1] - dv)) - _PIXEL_MARGIN)
    i1 = min(h, int(math.ceil(uv[1] + dv)) + _PIXEL_MARGIN + 1)
    return slice(i0, i1), slice(j0, j1)


def mesh_triangles(
    cloud: OrganizedCloud, t_jump: float = 0.02, t_es: float = 0.05, t_ar: float = 5.0
) -> np.ndarray:
    """Grid triangles surviving the jump, edge-length, and aspect prunes.

    Valid pixels connect along rows, columns, and one diagonal per 2x2
    block. Edges spanning a depth jump |dz| > t_jump are dropped before
    triangles form; surviving triangles are then pruned when their
    longest 3D side exceeds t_es or the longest-to-shortest ratio
    exceeds t_ar. Returns (M, 3) flat pixel ids (row * W + col).
    """
    pts = cloud.points
    h, w = pts.shape[:2]
    z = pts[..., 2]
    valid = np.isfinite(z)

    def edge_ok(a_idx, b_idx):
        ok = valid[a_idx] & valid[b_idx]
        with np.errstate(invalid="ignore"):
            ok &= np.abs(z[a_idx] - z[b_idx]) <= t_jump
        return ok

    ii, jj = np.meshgrid(np.arange(h - 1), np.arange(w - 1), indexing="ij")
    tl = (ii, jj)
    tr = (ii, jj + 1)
    bl = (ii + 1, jj)
    br = (ii + 1, jj + 1)
    e_top = edge_ok(tl, tr)
    e_left = edge_ok(tl, bl)
    e_diag = edge_ok(tr, bl)
    e_bot = edge_ok(bl, br)
    e_right = edge_ok(tr, br)

    def flat(idx):
        return idx[0] * w + idx[1]

    tris = []
    upper = e_top & e_left & e_diag
    lower = e_diag & e_bot & e_right
    if np.any(upper):
        tris.append(np.stack([flat(tl)[upper], flat(tr)[upper], flat(bl)[upper]], axis=1))
    if np.any(lower):
        tris.append(np.stack([flat(tr)[lower], flat(bl)[lower], flat(br)[lower]], axis=1))
    if not tris:
        return np.zeros((0, 3), dtype=int)
    tri = np.concatenate(tris, axis=0)

    p = pts.reshape(-1, 3)
    sides = np.stack(
        [
            np.linalg.norm(p[tri[:, 0]] - p[tri[:, 1]], axis=1),
            np.linalg.norm(p[tri[:, 1]] - p[tri[:, 2]], axis=1),
            np.linalg.norm(p[tri[:, 2]] - p[tri[:, 0]], axis=1),
        ],
        axis=1,
    )
    longest = sides.max(axis=1)
    shortest = sides.min(axis=1)
    keep = (longest <= t_es) & (shortest > 0.0) & (longest <= t_ar * shortest)
    return tri[keep]


def _mesh_graph(cloud: OrganizedCloud, index: NeighborhoodIndex) -> sparse.csr_matrix:
    tri = mesh_triangles(cloud, index.t_jump, index.t_es, index.t_ar)
    n = cloud.points.shape[0] * cloud.points.shape[1]
    if len(tri) == 0:
        return sparse.csr_matrix((n, n))
    a = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
    b = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    # an edge shared by two triangles appears twice; coo conversion sums
    # duplicates, so deduplicate the undirected pairs first
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    uniq = np.unique(np.stack([lo, hi], axis=1), axis=0)
    a, b = uniq[:, 0], uniq[:, 1]
    p = cloud.points.reshape(-1, 3)
    wgt = np.linalg.norm(p[a] - p[b], axis=1)
    g = sparse.coo_matrix((wgt, (a, b)), shape=(n, n))
    g = g.maximum(g.T)  # symmetrize: undirected graph
    return g.tocsr()


def neighborhood(
    index: NeighborhoodIndex, cloud: OrganizedCloud, seed, r: float
) -> Neighborhood:
    """All points within r of the seed, in row-major pixel order.

    Backprojection and k-d tree both return the exact Euclidean r-ball
    over valid points; the triangle mesh bounds the chain distance
    (shortest weighted edge path) instead, so its neighborhoods never
    cross depth jumps. The seed is a (row, col) pixel holding a valid
    point; the ball is centered on that point. fit_sample draws the
    points a fit runs on.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    (si, sj), s = _resolve_seed(cloud, seed)
    h, w = cloud.points.shape[:2]

    if index.variant == NeighborhoodVariant.BACKPROJECTION:
        rows, cols = _ball_pixels_backprojection(cloud, s, r)
        win = cloud.points[rows, cols]
        cand = np.argwhere(np.isfinite(win[..., 2]))
        d = np.linalg.norm(win[cand[:, 0], cand[:, 1]] - s, axis=1)
        sel = cand[d <= r] + (rows.start, cols.start)
    elif index.variant == NeighborhoodVariant.KDTREE:
        flat_idx = np.flatnonzero(cloud.valid_mask.ravel())
        tree = cKDTree(cloud.points.reshape(-1, 3)[flat_idx])
        hits = np.asarray(tree.query_ball_point(s, r), dtype=int)
        sel = np.stack(np.unravel_index(flat_idx[np.sort(hits)], (h, w)), axis=1)
    else:
        graph = _mesh_graph(cloud, index)
        dist = dijkstra(graph, directed=False, indices=si * w + sj, limit=r)
        reach = np.flatnonzero(np.isfinite(dist) & (dist <= r))
        sel = np.stack(np.unravel_index(reach, (h, w)), axis=1)

    pts = cloud.points[sel[:, 0], sel[:, 1]]
    cvs = cloud.cov[sel[:, 0], sel[:, 1]] if cloud.cov is not None else None
    return Neighborhood(points=pts, covs=cvs, pixels=sel)


def fit_sample(
    nb: Neighborhood, n_f: int, rng: np.random.Generator
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Points and covariances a fit runs on: at most n_f of the neighborhood.

    A uniform draw without replacement, kept in the neighborhood's order;
    a neighborhood of at most n_f points is taken whole and draws nothing
    from rng.
    """
    if len(nb.points) <= n_f:
        return nb.points, nb.covs
    pick = np.sort(rng.choice(len(nb.points), size=n_f, replace=False))
    return nb.points[pick], (nb.covs[pick] if nb.covs is not None else None)


# ---------------------------------------------------------------------------
# Area bookkeeping and termination
# ---------------------------------------------------------------------------


def surface_area(
    cloud: OrganizedCloud, t_jump: float = 0.02, t_es: float = 0.05, t_ar: float = 5.0
) -> float:
    """Sampled surface area: the summed areas of the range-image mesh."""
    tri = mesh_triangles(cloud, t_jump, t_es, t_ar)
    if len(tri) == 0:
        return 0.0
    p = cloud.points.reshape(-1, 3)
    cross = np.cross(p[tri[:, 1]] - p[tri[:, 0]], p[tri[:, 2]] - p[tri[:, 0]])
    return float(0.5 * np.linalg.norm(cross, axis=1).sum())


def expected_patch_count(s_area: float, r: float, nu: float) -> float:
    """Patches needed to cover fraction nu of area S with r-ball fits."""
    if s_area <= 0.0 or r <= 0.0 or nu <= 0.0:
        raise ValueError("S, r, and nu must be positive")
    return nu * s_area / (math.pi * r * r)


# ---------------------------------------------------------------------------
# Local volumetric workspace
# ---------------------------------------------------------------------------


class MovePolicy(Enum):
    FV = "fv"  # volume fixed in the world
    FC = "fc"  # camera pose held fixed in the volume
    FD = "fd"  # align y to down, then z toward forward
    FF = "ff"  # align z to forward, then y toward down


# Default initial camera pose in the volume: centered in x, mid-height,
# just behind the front face.
DEFAULT_CAMERA_IN_VOLUME = Pose6(np.zeros(3), np.array([2.0, 2.0, -0.4]))


@dataclass
class MapPatch:
    """A resident patch: volume-frame pose plus its admission context."""

    id: int
    patch: Patch
    cell: Tuple[int, int]
    seed_pixel: Tuple[int, int]  # (row, col) in the full-resolution frame
    seed_point: np.ndarray  # volume frame
    frame_index: int
    validation: "ValidationRecord"


@dataclass(frozen=True)
class ValidationRecord:
    residual: float
    bad_cells: int
    curvature_ok: bool
    residual_ok: bool
    coverage_ok: bool

    @property
    def passed(self) -> bool:
        return self.curvature_ok and self.residual_ok and self.coverage_ok


@dataclass
class VolumeState:
    """Cubic workspace: size, camera pose, moving policy, resident patches.

    c_t maps camera to volume frame; pose_world maps volume to world.
    c_fixed is the camera pose the fc policy restores (and whose position
    fd/ff pin). The volume y-axis is the designated down direction.
    """

    v_s: float = 4.0
    c_t: Pose6 = DEFAULT_CAMERA_IN_VOLUME
    policy: MovePolicy = MovePolicy.FD
    c_d: float = 0.3
    c_a: float = 0.05
    grid: SeedGrid = field(default_factory=SeedGrid)
    patches: List[MapPatch] = field(default_factory=list)
    pose_world: Pose6 = Pose6(np.zeros(3), np.zeros(3))
    c_fixed: Pose6 = DEFAULT_CAMERA_IN_VOLUME
    frame_index: int = 0
    next_id: int = 0

    def cell_counts(self) -> Dict[Tuple[int, int], int]:
        counts: Dict[Tuple[int, int], int] = {}
        for mp in self.patches:
            counts[mp.cell] = counts.get(mp.cell, 0) + 1
        return counts

    def camera_world(self) -> Pose6:
        return _pose.compose_chain(
            [ChainLink(self.c_t, 1), ChainLink(self.pose_world, 1)]
        )


def init_volume(
    camera_world: Optional[Pose6] = None,
    v_s: float = 4.0,
    c_0: Pose6 = DEFAULT_CAMERA_IN_VOLUME,
    policy: MovePolicy = MovePolicy.FD,
    c_d: float = 0.3,
    c_a: float = 0.05,
    v_g: int = 8,
    n_g: int = 1,
) -> VolumeState:
    """Volume placed so the camera starts at pose c_0 in its frame.

    policy is a MovePolicy or its value ("fv", "fc", "fd", "ff").
    """
    if camera_world is None:
        camera_world = Pose6(np.zeros(3), np.zeros(3))
    pose_world = _pose.compose_chain(
        [ChainLink(_pose.pose_inverse(c_0), 1), ChainLink(camera_world, 1)]
    )
    return VolumeState(
        v_s=v_s,
        c_t=c_0,
        policy=MovePolicy(policy),
        c_d=c_d,
        c_a=c_a,
        grid=SeedGrid(v_g=v_g, n_g=n_g),
        pose_world=pose_world,
        c_fixed=c_0,
    )


def _rotation_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    rel, _ = _pose.log_map(_pose.exp_map(ra) @ _pose.exp_map(rb).T, jacobian=False)
    return float(np.linalg.norm(rel))


def _frame_down_forward(g: np.ndarray, fwd: np.ndarray, down_first: bool) -> np.ndarray:
    """Volume world rotation with y down (g) and z ahead (fwd).

    down_first pins y = g exactly and swings z as close to fwd as the
    orthogonality allows; otherwise z = fwd exactly and y leans toward g.
    """
    g = g / np.linalg.norm(g)
    fwd = fwd / np.linalg.norm(fwd)
    if down_first:
        y = g
        z = fwd - (fwd @ y) * y
        nz = np.linalg.norm(z)
        if nz < 1e-8:
            raise ValueError("forward is parallel to down; volume yaw undefined")
        z = z / nz
    else:
        z = fwd
        y = g - (g @ z) * z
        ny = np.linalg.norm(y)
        if ny < 1e-8:
            raise ValueError("down is parallel to forward; volume roll undefined")
        y = y / ny
    x = np.cross(y, z)
    return np.column_stack([x, y, z])


def volume_update(
    state: VolumeState,
    camera_world: Pose6,
    g=None,
    forward=None,
) -> Tuple[VolumeState, Optional[Pose6]]:
    """Advance the camera pose and remap the volume per its policy.

    Returns (state, T) where T carries old volume-frame coordinates to
    new ones (None when no remap fired). fv never remaps. fc remaps when
    the camera drifts past c_d meters or c_a radians from c_fixed,
    restoring c_fixed exactly. fd and ff remap on the same thresholds
    (position drift, or volume attitude vs the down/forward target),
    rebuild the orientation from the world-frame g and forward vectors,
    and keep the camera at the c_fixed position in volume frame.
    """
    drifted = _pose.compose_chain(
        [ChainLink(camera_world, 1), ChainLink(state.pose_world, -1)]
    )

    if state.policy == MovePolicy.FV:
        state.c_t = drifted
        return state, None

    if state.policy == MovePolicy.FC:
        moved = float(np.linalg.norm(drifted.t - state.c_fixed.t)) > state.c_d
        turned = _rotation_angle(drifted.r, state.c_fixed.r) > state.c_a
        if not (moved or turned):
            state.c_t = drifted
            return state, None
        new_world = _pose.compose_chain(
            [ChainLink(_pose.pose_inverse(state.c_fixed), 1), ChainLink(camera_world, 1)]
        )
        T = _pose.compose_chain(
            [ChainLink(state.pose_world, 1), ChainLink(new_world, -1)]
        )
        state.pose_world = new_world
        state.c_t = state.c_fixed
        return state, T

    if g is None or forward is None:
        raise ValueError(f"policy {state.policy.value} needs g and forward vectors")
    gv = np.asarray(g, dtype=float).reshape(3)
    fv = np.asarray(forward, dtype=float).reshape(3)
    R_target = _frame_down_forward(gv, fv, down_first=state.policy == MovePolicy.FD)
    r_target, _ = _pose.log_map(R_target, jacobian=False)

    moved = float(np.linalg.norm(drifted.t - state.c_fixed.t)) > state.c_d
    turned = _rotation_angle(state.pose_world.r, r_target) > state.c_a
    if not (moved or turned):
        state.c_t = drifted
        return state, None

    t_new = camera_world.t - R_target @ state.c_fixed.t
    new_world = Pose6(r_target, t_new)
    T = _pose.compose_chain([ChainLink(state.pose_world, 1), ChainLink(new_world, -1)])
    state.pose_world = new_world
    state.c_t = _pose.compose_chain(
        [ChainLink(camera_world, 1), ChainLink(new_world, -1)]
    )
    return state, T


def remap_patches(
    state: VolumeState,
    T: Pose6,
    d_cp: Optional[float] = None,
    cull_excess: bool = False,
) -> VolumeState:
    """Carry resident patches through a volume remap transform T.

    Volume-frame poses compose with T (covariances ride the transform
    Jacobian), so world poses are unchanged. Patches whose origin leaves
    the cube are removed; with d_cp set, so are patches more than d_cp
    behind the camera's optical axis. Cells are reassigned from the
    transformed seed points; with cull_excess, cells keep only their n_g
    oldest patches.
    """
    kept: List[MapPatch] = []
    for mp in state.patches:
        new_patch, _ = transform_patch(mp.patch, T)
        seed_v = _pose.xform_fwd(mp.seed_point, T.r, T.t)
        origin = new_patch.pose.t
        if np.any(origin < 0.0) or np.any(origin > state.v_s):
            continue
        if d_cp is not None:
            origin_cam = _pose.xform_rev(origin, state.c_t.r, state.c_t.t)
            if origin_cam[2] < -d_cp:
                continue
        cell = _cell_of(seed_v, state.v_s, state.grid.v_g)
        if cell is None:
            continue
        kept.append(replace(mp, patch=new_patch, seed_point=seed_v, cell=cell))

    if cull_excess:
        # oldest patches (lowest ids) keep their cells
        by_cell: Dict[Tuple[int, int], int] = {}
        survivors = set()
        for mp in sorted(kept, key=lambda m: m.id):
            c = by_cell.get(mp.cell, 0)
            if c < state.grid.n_g:
                by_cell[mp.cell] = c + 1
                survivors.add(mp.id)
        kept = [mp for mp in kept if mp.id in survivors]
    state.patches = kept
    return state


# ---------------------------------------------------------------------------
# Map step: fit/validate orchestration with budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapConfig:
    """Per-frame pipeline options feeding map_step.

    The coverage cell size must be at least the projected sample pitch
    of the cloud, or regular grids of perfectly good data read as holes.
    """

    saliency: SaliencyConfig = SaliencyConfig()
    neighborhood: NeighborhoodIndex = NeighborhoodIndex()
    n_f: int = 50
    surface: str = "paraboloid"
    gamma: float = 0.95
    d_max: float = 0.01
    coverage: CoverageConfig = CoverageConfig()
    check_coverage: bool = True
    decimate: int = 0  # block size for the saliency cloud; 0 disables


@dataclass(frozen=True)
class MapBudgets:
    """Stopping rules for one map_step call.

    n_s caps the total resident patch count. work_units caps the number
    of fit attempts this call, the deterministic stand-in for a per-frame
    time slice; wall_clock_s enforces a real time limit instead (used by
    the command line driver, inherently nondeterministic). area_target
    stops admissions once the summed projected patch areas reach it.
    Once any cap is reached, the seeds not yet tried count as "budget"
    drops.
    """

    n_s: Optional[int] = None
    work_units: Optional[int] = None
    wall_clock_s: Optional[float] = None
    area_target: Optional[float] = None


@dataclass
class MapStepResult:
    admitted: List[MapPatch]
    n_seeds: int
    n_attempts: int
    drops: Dict[str, int]
    timings: Dict[str, float] = field(default_factory=dict)


_DROP_REASONS = (
    "cell_full",
    "too_few_points",
    "fit_failed",
    "curvature",
    "residual",
    "coverage",
    "budget",
)


def gate_patch(
    patch: Patch, fit_pts: np.ndarray, nb_pts: np.ndarray, config: MapConfig
) -> ValidationRecord:
    """Every gate of a camera-frame patch fitted at one seed, even after a failure.

    Curvature is bounded by config.saliency.gate; the exact residual of
    the fit points must not exceed config.d_max; coverage judges data
    support, so it sees the whole neighborhood nb_pts, and passes with no
    bad cells when config.check_coverage is off.
    """
    R_l, t_l = patch_frame(patch)
    fit_local = (fit_pts - t_l) @ R_l
    res = float(residual(patch, fit_local, ResidualMethod.EXACT))
    cov_ok, n_bad = True, 0
    if config.check_coverage:
        nb_local = fit_local if nb_pts is fit_pts else (nb_pts - t_l) @ R_l
        report = coverage_eval(patch, nb_local, config.coverage)
        cov_ok, n_bad = bool(report.passed), len(report.bad_cells)
    return ValidationRecord(
        residual=res,
        bad_cells=n_bad,
        curvature_ok=curvature_gate(patch, config.saliency.gate),
        residual_ok=res <= config.d_max,
        coverage_ok=cov_ok,
    )


def map_step(
    state: VolumeState,
    cloud: OrganizedCloud,
    g,
    viewpoint=(0.0, 0.0, 0.0),
    budgets: MapBudgets = MapBudgets(),
    config: MapConfig = MapConfig(),
    rng_seed=None,
) -> MapStepResult:
    """Run saliency, seeding, fitting, and gating over one frame.

    Each seed runs one procedure: neighborhood() around its pixel in the
    full-resolution cloud, fit_sample() of at most n_f points, fit_patch(),
    then gate_patch(). A seed failing a gate is dropped under the first
    failing one, in the order curvature, residual, coverage; an admitted
    patch carries its ValidationRecord. Admissions respect the per-cell
    n_g bound and all budget caps. The cloud and the gravity vector g are
    camera frame. Mutates state; deterministic for a fixed rng_seed.
    """
    t_start = time.monotonic()
    state.frame_index += 1
    result = MapStepResult(
        admitted=[], n_seeds=0, n_attempts=0, drops={k: 0 for k in _DROP_REASONS}
    )

    cfg = config.saliency
    sal_cloud = median_decimate(cloud, config.decimate) if config.decimate > 1 else cloud
    n_grid, ns_grid = integral_normals(sal_cloud, cfg.r)
    mask = saliency_filter(sal_cloud, (n_grid, ns_grid), g, cfg)
    result.timings["saliency"] = time.monotonic() - t_start
    seeds = select_seeds(sal_cloud, mask, state, rng_seed=rng_seed)
    result.timings["seeds"] = time.monotonic() - t_start - result.timings["saliency"]
    result.n_seeds = len(seeds)

    rng = np.random.default_rng(rng_seed)
    area_sum = sum(projected_area(mp.patch) for mp in state.patches)
    counts = state.cell_counts()

    for pos, seed in enumerate(seeds):
        if (
            (budgets.n_s is not None and len(state.patches) >= budgets.n_s)
            or (budgets.work_units is not None and result.n_attempts >= budgets.work_units)
            or (
                budgets.wall_clock_s is not None
                and time.monotonic() - t_start > budgets.wall_clock_s
            )
            or (budgets.area_target is not None and area_sum >= budgets.area_target)
        ):
            result.drops["budget"] += len(seeds) - pos
            break
        if counts.get(seed.cell, 0) >= state.grid.n_g:
            result.drops["cell_full"] += 1
            continue

        # seeds come from the (possibly decimated) saliency cloud; the
        # search runs on the full cloud around the seed's own pixel there
        seed_pixel = seed.pixel
        if sal_cloud is not cloud:
            seed_pixel = _decimated_source(cloud, seed.pixel, config.decimate, seed.point)
        nb = neighborhood(config.neighborhood, cloud, seed_pixel, cfg.r)
        if len(nb.points) < 13:
            result.drops["too_few_points"] += 1
            continue
        fit_pts, fit_cvs = fit_sample(nb, config.n_f, rng)

        result.n_attempts += 1
        try:
            fit: FitResult = fit_patch(
                fit_pts,
                fit_cvs,
                surface=config.surface,
                gamma=config.gamma,
                viewpoint=viewpoint,
                side_wall=True,
            )
        except (ValueError, np.linalg.LinAlgError):
            result.drops["fit_failed"] += 1
            continue
        patch_cam = fit.patch
        record = gate_patch(patch_cam, fit_pts, nb.points, config)
        if not record.passed:
            # charged to the first failing gate
            if not record.curvature_ok:
                result.drops["curvature"] += 1
            elif not record.residual_ok:
                result.drops["residual"] += 1
            else:
                result.drops["coverage"] += 1
            continue

        patch_vol, _ = transform_patch(patch_cam, state.c_t)
        seed_vol = _pose.xform_fwd(seed.point, state.c_t.r, state.c_t.t)
        mp = MapPatch(
            id=state.next_id,
            patch=patch_vol,
            cell=seed.cell,
            seed_pixel=seed_pixel,
            seed_point=seed_vol,
            frame_index=state.frame_index,
            validation=record,
        )
        state.next_id += 1
        state.patches.append(mp)
        counts[seed.cell] = counts.get(seed.cell, 0) + 1
        area_sum += projected_area(patch_cam)
        result.admitted.append(mp)
    total = time.monotonic() - t_start
    result.timings["fit_validate"] = (
        total - result.timings["saliency"] - result.timings["seeds"]
    )
    result.timings["total"] = total
    return result
