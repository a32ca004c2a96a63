"""Sparse patch mapping over organized clouds and the moving local volume.

The mapping pipeline runs in stages on each organized range frame:
optional median decimation of the saliency cloud, grid-based seed
selection in the volume frame among the pixels that pass the hiking
saliency filter, per-seed neighborhood search over the seed's
backprojected window (the Euclidean ball, or its part that a triangle
mesh built over that window alone joins to the seed), and patch
fit/validate with curvature, residual, and coverage gates. The seeds of
a frame run in three phases: try (neighborhoods and fit draws in seed
order), fit and gate (one batched pass each) and admit (in seed order).

Saliency is solved seed first. Once per frame, map_step builds one
integral image of the point moments and keeps the DtFP pixels. The image
is stored column-major, each pixel's ten running sums side by side, so a
window corner is one contiguous row; it is built in blocks of image rows
with no full-frame buffer besides itself. One product keys every pixel
to its volume grid cell. Each seed cell then walks its DtFP pixels in a
random order, in growing chunks, until the cell has its seeds, or until
960 tested pixels have shown no pass. The walks run in rounds: one round
tests the next chunk of every unfinished cell at once, DoNG on the
coarse normal and then DoN on the fine one, each scale solved only at
the pixels that passed every test before it. Normals are thus solved
only at the pixels the seed draw visits, never over the whole frame.

The map lives in a cubic local volumetric workspace whose frame sits at a
top corner with y pointing down. The volume follows the camera under one
of four policies (fv, fc, fd, ff). fv never remaps; fc restores the
camera's fixed pose c_fixed whole, while fd and ff restore its position
under the attitude that gravity and forward give. Resident patches ride
each remap's rigid transform, so their world poses are unchanged, and are
then culled against the cube.

Clouds are camera frame (x right, y down, z forward). Gravity and
forward vectors handed to the volume policies are world frame.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from patchscape import pose as _pose
from patchscape.fit import MIN_FIT_POINTS, SURFACES, coverage_scale, fit_patches
from patchscape.patch import Patch, patch_frame, projected_area, transform_patch
from patchscape.pose import ChainLink, Pose6
from patchscape.sensor import COV_UPPER, OrganizedCloud, project, unpack_cov
from patchscape.validate import CoverageConfig, coverage_evals, curvature_gate, residuals

# not called here; perfbench/layers.py still traces these names in this module
from patchscape.fit import fit_patch  # noqa: F401
from patchscape.validate import coverage_eval, residual  # noqa: F401

__all__ = [
    "median_decimate",
    "integral_normals",
    "SaliencyConfig",
    "fixation_point",
    "saliency_filter",
    "Seed",
    "select_seeds",
    "NeighborhoodVariant",
    "NeighborhoodIndex",
    "Neighborhood",
    "neighborhood",
    "fit_sample",
    "mesh_triangles",
    "MovePolicy",
    "VolumeState",
    "init_volume",
    "volume_update",
    "remap_patches",
    "MapPatch",
    "ValidationRecord",
    "MapConfig",
    "gate_patches",
    "gate_patch",
    "MapBudgets",
    "MapStepResult",
    "map_step",
]


# ---------------------------------------------------------------------------
# Preprocessing: median decimation
# ---------------------------------------------------------------------------


# Widest block median_decimate takes: the rank count holds ranks and valid
# counts in uint8, so a block has at most 255 members, and 15 x 15 = 225 is
# the widest square block that fits.
_MAX_DECIMATE = 15


def _median_members(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Median member and valid-member count of each block of depths.

    z is (h2, f, w2, f): block (i, j) holds z[i, :, j, :], whose member
    a f + b is z[i, a, j, b]. Returns (pick, n), both (h2, w2): n counts
    the block's finite depths, and pick is the member at position
    (n - 1) // 2 (0 when n = 0) of the stable order by key, the depth with
    every non-finite depth set to +inf.
    """
    h2, f, w2, _ = z.shape
    m = f * f
    # member-major planes: key[i] holds member i of every block
    key = np.empty((f, f, h2, w2))
    np.copyto(key, z.transpose(1, 3, 0, 2))
    key = key.reshape(m, h2, w2)
    finite = np.isfinite(key)
    np.copyto(key, np.inf, where=~finite)
    n = finite.sum(axis=0, dtype=np.uint8)
    # stable rank of member i: the members with a smaller key plus the
    # earlier members with an equal one; it starts at i, each later member
    # below i adds one to i's rank, and takes one from its own
    rank = np.empty((m, h2, w2), dtype=np.uint8)
    rank[:] = np.arange(m, dtype=np.uint8)[:, None, None]
    for i in range(m - 1):
        below = key[i + 1 :] < key[i]
        rank[i] += below.sum(axis=0, dtype=np.uint8)
        rank[i + 1 :] -= below
    # the ranks of a block are 0 .. m - 1, so exactly one member matches
    target = (np.maximum(n, 1) - 1) // 2
    pick = np.zeros((h2, w2), dtype=np.intp)
    for i in range(1, m):
        np.copyto(pick, i, where=rank[i] == target)
    return pick, n


def median_decimate(cloud: OrganizedCloud, factor: int = 2) -> Tuple[OrganizedCloud, np.ndarray]:
    """Downsample by picking the median-depth member of each block.

    Each factor x factor block contributes the member point whose z is
    the (lower) median of the block's valid depths, so its measured
    covariance row rides along. With n valid members, it is the member at
    position (n - 1) // 2 when the block's members, in row-major block
    order, are stably sorted by depth (non-finite depths last). Among
    members tied at that depth this is not always the earliest: a block
    whose four depths all tie gives member (0, 1). Blocks with no valid
    member become NaN. Every block finds that member by counting each
    member's rank with comparisons between member planes. ValueError
    unless 1 <= factor <= _MAX_DECIMATE.
    Intrinsics are rescaled to the decimated grid. Returns (cloud,
    source): source is (h, w, 2), the full-resolution (row, col) pixel of
    the member each decimated pixel holds.
    """
    if not 1 <= factor <= _MAX_DECIMATE:
        raise ValueError(f"factor must lie in [1, {_MAX_DECIMATE}]")
    h, w = cloud.points.shape[:2]
    h2, w2 = h // factor, w // factor
    z = cloud.points[: h2 * factor, : w2 * factor, 2]
    pick, n = _median_members(z.reshape(h2, factor, w2, factor))

    # block-member index back to full-resolution pixel coordinates
    bi, bj = np.divmod(pick, factor)
    rows = np.arange(h2)[:, None] * factor + bi
    cols = np.arange(w2)[None, :] * factor + bj
    src, empty = rows * w + cols, n == 0
    out = np.take(cloud.points.reshape(-1, 3), src, axis=0)
    out[empty] = np.nan
    cv = None
    if cloud.cov is not None:
        cv = np.take(cloud.cov.reshape(-1, 6), src, axis=0)
        cv[empty] = np.nan
    decimated = OrganizedCloud(points=out, cov=cv, intrinsics=cloud.intrinsics.scaled(factor))
    return decimated, np.stack([rows, cols], axis=-1)


# ---------------------------------------------------------------------------
# Two-scale normals from one integral image
# ---------------------------------------------------------------------------


# (row, col) of the six distinct entries of the symmetric p p^T, in the
# order the moment image stores them after the count and the coordinates:
# the packed covariance order
_UPPER = COV_UPPER

# Closed-form eigenvectors are trusted down to this relative eigen-gap
# (lam_mid - lam_min) / |lam|_max; see _smallest_eigvec for the bound.
_GAP_MIN = np.finfo(float).eps ** (1.0 / 3.0)

# Windows solved per vectorized block: small enough that the solver's few
# dozen temporaries stay in a core's L2 cache, large enough to amortize
# NumPy's per-call overhead.
_BLOCK = 4096

# Fewest valid points a window needs for its normal to be solved.
_MIN_SUPPORT = 6

# Pixels in the first chunk a seed cell's walk tests; later chunks double
# up to _BLOCK, so a cell that finds its seeds early solves few normals
# and a long walk pays NumPy's per-call overhead few times.
_FIRST_CHUNK = 64

# Pixels a seed cell's walk tests before it stops with no pass: the end of
# the walk's fourth chunk (64 + 128 + 256 + 512), so no chunk is split. A
# cell with a pass walks on until it has its seeds.
_BARREN_WALK = 960

# Image rows _moment_integral fills per block: the block's (_ROWS, 10, W)
# moment planes, under 1 MB at 640 wide, stay in a core's L2 cache from the
# fill through the running sums to the transposed copy.
_ROWS = 16


def _moment_integral(points: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(W + 1, (H + 1) * 10) zero-padded running sums of [1, p, upper(p p^T)].

    Image column j is row j, and the ten sums over the window [0, i) x
    [0, j) sit side by side at [j, 10 i : 10 i + 10], so any window's point
    count, coordinate sums and second moments are four contiguous 80-byte
    reads. The image is built _ROWS image rows at a time in a small
    buffer: fill the ten moment planes, add the running column sums one
    image row at a time, and copy the block transposed into its columns of
    the image. Once every block is in, each row of the image adds the one
    before it. Every sum is formed by the same adds, in the same order, as
    np.cumsum down the rows and then along them of the (10, H + 1, W + 1)
    image would form it; the box sums, and so every normal and saliency
    verdict, rely on that order for their last bits. The image is the only
    full-frame buffer.
    """
    h, w = valid.shape
    ii = np.empty((w + 1, (h + 1) * 10))
    # zero the padding: the frame's zero column (image row 0) and zero row
    # (each image row's first ten sums); the blocks and row adds write the rest
    ii[0] = 0.0
    ii[:, :10] = 0.0
    cols = ii.reshape(w + 1, h + 1, 10)[1:]  # pixel (i, j) sums at cols[j, i + 1]
    buf = np.zeros((_ROWS + 1, 10, w))  # buf[0] carries the column sums of the rows above
    for i0 in range(0, h, _ROWS):
        n = min(_ROWS, h - i0)
        m, ok = buf[1 : n + 1], valid[i0 : i0 + n]
        m[:, 0] = ok
        m[:, 1:4] = 0.0
        for c in range(3):
            np.copyto(m[:, 1 + c], points[i0 : i0 + n, :, c], where=ok)
        for c, (i, j) in enumerate(_UPPER):
            np.multiply(m[:, 1 + i], m[:, 1 + j], out=m[:, 4 + c])
        for r in range(1, n + 1):
            np.add(buf[r - 1], buf[r], out=buf[r])
        np.copyto(cols[:, i0 + 1 : i0 + n + 1], m.transpose(2, 0, 1))
        buf[0] = buf[n]
    # one contiguous row addition per image column: np.cumsum runs each
    # pixel's sums as one serial chain of adds, which costs more
    for j in range(1, w + 1):
        np.add(ii[j - 1], ii[j], out=ii[j])
    return ii


def _box_sums(ii: np.ndarray, v: np.ndarray, u: np.ndarray, half: np.ndarray) -> np.ndarray:
    """(10, n) moment sums over frame-clipped windows centered at pixels (v, u).

    Each window spans half[i] pixels on every side of its center. ii is a
    _moment_integral image; each window corner is one row of ten sums of
    ii viewed as ((W + 1) (H + 1), 10), so the four corners are four
    gathers of (n, 10) rows, and the result is the transposed view of
    their sum.
    """
    w1, h1 = len(ii), ii.shape[1] // 10
    flat = ii.reshape(-1, 10)
    lo_v = np.clip(v - half, 0, h1 - 1)
    hi_v = np.clip(v + half + 1, 0, h1 - 1)
    lo_u = np.clip(u - half, 0, w1 - 1) * h1
    hi_u = np.clip(u + half + 1, 0, w1 - 1) * h1
    s = np.take(flat, hi_u + hi_v, axis=0)
    s -= np.take(flat, hi_u + lo_v, axis=0)
    s -= np.take(flat, lo_u + hi_v, axis=0)
    s += np.take(flat, lo_u + lo_v, axis=0)
    return s.T


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


def _window_normals(s: np.ndarray) -> np.ndarray:
    """(n, 3) camera-facing unit normals from (10, n) window moment sums.

    NaN where the window holds fewer than _MIN_SUPPORT valid points.
    """
    cnt = s[0]
    good = cnt >= _MIN_SUPPORT
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
    cloud: OrganizedCloud,
    ii: np.ndarray,
    r: float,
    v: np.ndarray,
    u: np.ndarray,
    keep: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-scale normals at the pixels (v, u) from the frame's moment image.

    ii is _moment_integral of the cloud's points and valid mask; ValueError
    unless 0 < r < inf. Returns (N, N_s), two (m, 3) arrays for the m
    pixels: N uses window size 2 r f / Z(i) pixels at each pixel, with
    f = cloud.intrinsics.fx, and N_s half that, so both windows see roughly
    a metric r-ball (respectively r/2) on the surface. Normals are unit and
    oriented toward the camera. N is solved at the valid pixels; keep maps
    N to an (m,) boolean mask of the pixels that also need N_s (default:
    all of them). Rows are NaN where their scale was not solved, and where
    the window holds fewer than _MIN_SUPPORT valid points.

    The one moment image holds the count, coordinate sums and the six
    distinct second moments, so any window costs four lookups and a pixel
    is solved in O(1) whenever it is asked for (Holzer et al., IROS 2012).
    The image is column-major with each pixel's ten sums side by side, so
    each lookup is one contiguous row of ten sums, and a block of pixels
    costs four (n, 10) gathers. A window wider than the frame is clipped
    to the whole frame, however small Z(i) is.
    Each normal is the smallest-eigenvalue eigenvector of its window
    covariance, in closed form (trigonometric eigenvalues, a cross-product
    null vector and one Rayleigh-quotient refinement). Windows whose
    relative eigen-gap (lam_mid - lam_min) / |lam|_max falls below
    eps^(1/3), where the closed form's error bound no longer holds, or
    whose result is not finite, are solved by np.linalg.eigh instead. A
    pixel's normal depends only on ii and its own point, not on which other
    pixels are solved.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    z = cloud.points[v, u, 2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        wpx = np.where(z > 0.0, 2.0 * r * cloud.intrinsics.fx / z, 0.0)
    # a half-width of max(H, W) already clips to the whole frame; capped
    # before the cast, an inf or huge one cannot wrap around to a negative
    cap = max(cloud.points.shape[:2])

    def solve(at: np.ndarray, div: float) -> np.ndarray:
        half = np.maximum(np.minimum(wpx[at] / div, cap).astype(int), 1)
        n = np.full((len(z), 3), np.nan)
        for b in range(0, len(at), _BLOCK):
            blk = at[b : b + _BLOCK]
            n[blk] = _window_normals(_box_sums(ii, v[blk], u[blk], half[b : b + _BLOCK]))
        return n

    # row-major pixel order keeps each block's lookups close in the image;
    # pixels met more than once may come in any order, as each row depends
    # on its own pixel alone
    at = np.argsort(v * cloud.points.shape[1] + u)
    at = at[np.isfinite(z[at])]
    n = solve(at, 2.0)
    if keep is not None:
        at = at[keep(n[at])]
    return n, solve(at, 4.0)


# ---------------------------------------------------------------------------
# Hiking saliency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaliencyConfig:
    """Thresholds for the three hiking saliency tests.

    r is the patch neighborhood radius, and the normals' window radius, so
    it must be finite; l_d and l_f locate the fixation
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
        if not (0.0 < self.r < math.inf and self.R > 0.0):
            raise ValueError("r must be positive and finite, and R positive")
        if not (math.isfinite(self.l_d) and math.isfinite(self.l_f)):
            raise ValueError("l_d and l_f must be finite")
        for name in ("phi_d", "phi_g"):
            v = getattr(self, name)
            if not 0.0 < v < 90.0:
                raise ValueError(f"{name} must lie in (0, 90) degrees")
        if not self.kappa_min <= self.kappa_max:
            raise ValueError("kappa_min must not exceed kappa_max")


def _unit_vector(v, name: str) -> np.ndarray:
    """v as a unit 3-vector; ValueError, naming v, unless it is a finite, nonzero 3-vector."""
    vv = np.asarray(v, dtype=float)
    if vv.size != 3:
        raise ValueError(f"{name} must have 3 components, got {vv.size}")
    with np.errstate(over="ignore"):  # an overflowing norm is not finite
        norm = np.linalg.norm(vv)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"{name} must be finite and nonzero, got {vv.ravel().tolist()}")
    return vv.reshape(3) / norm


def fixation_point(g, l_d: float, l_f: float) -> np.ndarray:
    """Estimated gaze point: l_d down plus l_f ahead of the camera.

    g is the unit gravity direction in camera frame (y points down, so a
    level camera has g ~ +y); [1 0 0] x g points forward for that pose.
    """
    gv = np.asarray(g, dtype=float).reshape(3)
    return l_d * gv + l_f * np.cross(np.array([1.0, 0.0, 0.0]), gv)


def _dist(points: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Euclidean distances of the (..., 3) points from the 3-vector c.

    sqrt((dx dx + dy dy) + dz dz) over per-coordinate arrays: the operations
    np.linalg.norm(points - c, axis=-1) does, in its order, so it matches
    that norm bit for bit without the (..., 3) difference array and its
    strided reduction. The sum is built in place in one buffer, with one
    more for each coordinate's square. NaN where a point has a NaN
    coordinate.
    """
    d = points[..., 0] - c[0]
    d *= d
    t = points[..., 1] - c[1]
    t *= t
    d += t
    np.subtract(points[..., 2], c[2], out=t)
    t *= t
    d += t
    return np.sqrt(d, out=d)


def _near_fixation(points: np.ndarray, gv: np.ndarray, cfg: SaliencyConfig) -> np.ndarray:
    """DtFP: whether each (..., 3) point lies within cfg.R of the fixation point.

    gv is the unit camera-frame gravity direction; NaN points fail.
    """
    with np.errstate(invalid="ignore"):
        return _dist(points, fixation_point(gv, cfg.l_d, cfg.l_f)) <= cfg.R


def saliency_filter(
    cloud: OrganizedCloud, ii: np.ndarray, g, cfg: SaliencyConfig, v: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """(m,) boolean verdicts of DtFP, DoNG and DoN at the pixels (v, u).

    DtFP keeps points within R of the fixation point; DoNG drops slopes
    whose coarse normal N strays more than phi_g from the antigravity
    direction; DoN drops pixels whose fine normal N_s and N disagree by
    more than phi_d. ii is the frame's moment image (_moment_integral).
    The tests run cheapest first, and each normal scale is solved only
    where every test before it passed: DtFP from the points alone, N at
    the DtFP pixels, DoNG on N, N_s at the DoNG survivors, then DoN. A
    pixel's verdict depends only on ii and its own point, so it equals
    the verdict of all three tests run on normals solved at every valid
    pixel, whichever other pixels are tested with it. g is the
    camera-frame gravity direction; ValueError unless it is a finite,
    nonzero 3-vector.
    """
    gv = _unit_vector(g, "gravity")
    ok = _near_fixation(cloud.points[v, u], gv, cfg)
    at = np.flatnonzero(ok)
    cos_g = math.cos(math.radians(cfg.phi_g))

    def dong(n: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return -(n @ gv) >= cos_g

    n, n_s = integral_normals(cloud, ii, cfg.r, v[at], u[at], keep=dong)
    # N_s is finite only at valid DoNG pixels with N finite, and a NaN dot
    # product fails DoN, so DoN alone decides the DtFP pixels
    with np.errstate(invalid="ignore"):
        ok[at] = np.einsum("ij,ij->i", n, n_s) >= math.cos(math.radians(cfg.phi_d))
    return ok


# ---------------------------------------------------------------------------
# Seed selection on the volume-frame xz grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    pixel: Tuple[int, int]  # (row, col) in the cloud it was selected from
    point: np.ndarray  # camera frame
    cell: Tuple[int, int]  # (ix, iz) on the volume xz grid


def _cells(
    volume: "VolumeState", x: np.ndarray, z: np.ndarray, keep: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the volume-frame points (x, z) inside the xz grid, among
    those keep marks when it is given, and the keys ix * v_g + iz of their
    (ix, iz) cells; floors the rows x and z to cell units in place."""
    v_g = volume.v_g
    for c in (x, z):
        c /= volume.v_s / v_g
        np.floor(c, out=c)
    ok = (np.minimum(x, z) >= 0) & (np.maximum(x, z) < v_g)
    if keep is not None:
        ok &= keep
    inside = np.flatnonzero(ok)
    return inside, (x[inside] * v_g + z[inside]).astype(int)


def select_seeds(
    cloud: OrganizedCloud,
    candidates: np.ndarray,
    salient: Callable[[np.ndarray, np.ndarray], np.ndarray],
    volume: "VolumeState",
    rng_seed=None,
) -> List[Seed]:
    """Pick up to n_g random salient seeds per occupied volume grid cell.

    candidates is the boolean pixel mask of the pixels that may be salient;
    salient(v, u) returns the (m,) boolean verdicts at pixel arrays v, u.
    Candidates project onto the volume-frame xz plane of the volume's
    v_g x v_g cells; cells are visited in increasing distance of their
    center from the projected camera, and a cell holding m resident
    patches gets at most n_g - m seeds. Such a cell walks its candidates
    in the order of one uniform random permutation, drawn for every cell
    up front in cell order, in chunks that double from _FIRST_CHUNK up to
    _BLOCK pixels, and stops at its n_g - m-th pass or its last pixel. A
    barren walk stops sooner: a cell none of whose first _BARREN_WALK =
    960 tested pixels passed gets no seed, so a cell whose salient share
    is s is left without one with probability (1 - s)^960 (0.8% at s =
    0.5%, 6.5e-5 at s = 1%); a cell with a pass walks on. The walks run in
    rounds: round r tests chunk r of every live cell in one salient call
    over the concatenated chunks, so only the pixels the walks reach are
    tested, and a frame makes as many calls as its longest walk has
    chunks. The first k passes of a uniform permutation form a uniform
    random k-subset of the cell's salient pixels. A cell's seeds come in
    scan order. Deterministic for a fixed rng_seed.
    """
    v_g, n_g = volume.v_g, volume.n_g
    rng = np.random.default_rng(rng_seed)
    width = candidates.shape[1]

    # only the volume-frame x and z decide the cells, in the rounding of
    # the rows R[[0, 2]] of the camera-to-volume transform. Every pixel is
    # keyed in one product, with no gather; a NaN, infinite or overflowing
    # coordinate keys its pixel outside the grid.
    with np.errstate(invalid="ignore", over="ignore"):
        xz = _pose.exp_map(volume.c_t.r)[[0, 2]] @ cloud.points.reshape(-1, 3).T
        xz += volume.c_t.t[[0, 2], None]
        ingrid, key = _cells(volume, *xz, keep=candidates.ravel())

    # group flat pixel ids by cell; each group keeps its pixels in scan order
    occupied = np.flatnonzero(np.bincount(key)).tolist()
    by_cell = {divmod(c, v_g): ingrid[key == c] for c in occupied}

    cam_xz = volume.c_t.t[[0, 2]]
    occupancy = Counter(mp.cell for mp in volume.patches)
    w = volume.v_s / v_g

    def cell_rank(cell):
        center = (np.array(cell, dtype=float) + 0.5) * w
        return (float(np.linalg.norm(center - cam_xz)), cell)

    # every walk is drawn up front, in cell order, as one cell at a time
    # would draw it; round r then tests chunk r of every live walk at once
    room = {c: n_g - occupancy.get(c, 0) for c in sorted(by_cell, key=cell_rank)}
    walk = {c: rng.permutation(by_cell[c]) for c in room if room[c] > 0}
    chosen: Dict[Tuple[int, int], List[int]] = {c: [] for c in walk}
    live, b, size = list(walk), 0, _FIRST_CHUNK
    while live:
        chunks = [walk[c][b : b + size] for c in live]
        ok = salient(*np.divmod(np.concatenate(chunks), width))
        at = 0
        for c, chunk in zip(live, chunks):
            passed = chunk[ok[at : at + len(chunk)]]
            at += len(chunk)
            chosen[c].extend(passed[: room[c] - len(chosen[c])].tolist())
        b, size = b + size, min(2 * size, _BLOCK)
        # a cell walks on while it has room and untested pixels, and, past
        # _BARREN_WALK tested pixels, only if one of them passed
        live = [c for c in live if len(chosen[c]) < room[c] and b < len(walk[c])
                and (chosen[c] or b < _BARREN_WALK)]

    seeds: List[Seed] = []
    for c in walk:
        for idx in sorted(chosen[c]):
            pixel = divmod(idx, width)
            seeds.append(Seed(pixel=pixel, point=cloud.points[pixel].copy(), cell=c))
    return seeds


# ---------------------------------------------------------------------------
# Neighborhood search
# ---------------------------------------------------------------------------


class NeighborhoodVariant(Enum):
    BACKPROJECTION = "backprojection"
    TRIANGLE_MESH = "triangle_mesh"


# Pixels added on every side of the backprojected search window: measured
# points can sit slightly off their pixel ray (stereo noise perturbs all
# three coordinates), so the exact window for on-ray points is padded
# before the per-pixel Euclidean check.
_PIXEL_MARGIN = 6


@dataclass(frozen=True)
class NeighborhoodIndex:
    """Search method plus the triangle-mesh build thresholds.

    variant is a NeighborhoodVariant or its value: BACKPROJECTION (the
    Euclidean r-ball) or TRIANGLE_MESH (the part of that ball the mesh
    joins to the seed). Both search the seed's backprojected window only.
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
    covs: Optional[np.ndarray]  # (n, 6) packed rows (sensor.COV_UPPER), or None
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
    cloud: OrganizedCloud, s: np.ndarray, r: float, margin: int = _PIXEL_MARGIN
) -> Tuple[slice, slice]:
    """Candidate pixel window: the sphere's image plus margin pixels a side.

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
    j0 = max(0, int(math.floor(uv[0] - du)) - margin)
    j1 = min(w, int(math.ceil(uv[0] + du)) + margin + 1)
    i0 = max(0, int(math.floor(uv[1] - dv)) - margin)
    i1 = min(h, int(math.ceil(uv[1] + dv)) + margin + 1)
    return slice(i0, i1), slice(j0, j1)


def mesh_triangles(points: np.ndarray, index: NeighborhoodIndex) -> np.ndarray:
    """Grid triangles surviving the jump, edge-length, and aspect prunes.

    Valid pixels connect along rows, columns, and one diagonal per 2x2
    block. Edges spanning a depth jump |dz| > index.t_jump are dropped
    before triangles form; surviving triangles are then pruned when their
    longest 3D side exceeds index.t_es or the longest-to-shortest ratio
    exceeds index.t_ar. points is an (H, W, 3) organized grid, NaN where
    there is no return. Returns (M, 3) flat pixel ids (row * W + col): the
    upper triangles (tl, tr, bl), then the lower (tr, bl, br), each in
    row-major block order.
    """
    tl, tr, bl, br = np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, :-1], np.s_[1:, 1:]
    z = points[..., 2]
    valid = np.isfinite(z)

    def edge(a, b):
        """Per edge a-b of every block: both ends valid and no jump, and its 3D length."""
        return (valid[a] & valid[b] & (np.abs(z[a] - z[b]) <= index.t_jump),
                np.linalg.norm(points[a] - points[b], axis=-1))

    def kept(*edges):
        """Per block, whether the triangle of these three edges passes every prune."""
        (ok_a, a), (ok_b, b), (ok_c, c) = edges
        longest, shortest = np.maximum(np.maximum(a, b), c), np.minimum(np.minimum(a, b), c)
        return (ok_a & ok_b & ok_c & (longest <= index.t_es) & (shortest > 0.0)
                & (longest <= index.t_ar * shortest))

    # +-inf depths meet in inf - inf, and an inf t_ar in inf * 0: both are masked out
    with np.errstate(invalid="ignore", over="ignore"):
        diag = edge(tr, bl)
        upper = kept(edge(tl, tr), edge(tl, bl), diag)
        lower = kept(diag, edge(bl, br), edge(tr, br))
    ids = np.arange(z.size).reshape(z.shape)
    return np.concatenate([np.stack([ids[tl][upper], ids[tr][upper], ids[bl][upper]], axis=1),
                           np.stack([ids[tr][lower], ids[bl][lower], ids[br][lower]], axis=1)])


def neighborhood(
    index: NeighborhoodIndex, cloud: OrganizedCloud, seed, r: float
) -> Neighborhood:
    """All points within r of the seed, in row-major pixel order.

    Both variants take the Euclidean r-ball over the valid points of the
    seed's backprojected window. Backprojection returns it whole; the
    triangle mesh keeps the in-ball pixels that mesh_triangles joins to
    the seed through edges between in-ball pixels, so its neighborhoods
    never cross depth jumps. The seed is a (row, col) pixel holding a valid
    point; the ball is centered on that point. ValueError unless r > 0; a
    ball that reaches the camera plane (r >= the seed's depth, r = inf
    included) searches the whole frame. fit_sample draws the points a fit
    runs on.
    """
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")
    (si, sj), s = _resolve_seed(cloud, seed)

    # One more pixel on every side keeps whole each triangle that holds an
    # edge between two in-ball pixels, so the window's mesh has every such
    # edge of the whole frame's mesh.
    mesh = index.variant == NeighborhoodVariant.TRIANGLE_MESH
    margin = _PIXEL_MARGIN + 1 if mesh else _PIXEL_MARGIN
    rows, cols = _ball_pixels_backprojection(cloud, s, r, margin)
    win = cloud.points[rows, cols]
    with np.errstate(invalid="ignore"):
        sel = np.argwhere(_dist(win, s) <= r)
    if mesh:
        # keep the in-ball pixels joined to the seed through in-ball edges
        shape = win.shape[:2]
        inball = np.zeros(shape, dtype=bool)
        inball[sel[:, 0], sel[:, 1]] = True
        edges = mesh_triangles(win, index)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        edges = edges[inball.ravel()[edges].all(axis=1)]
        n = inball.size
        graph = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
        label = connected_components(graph, directed=False)[1].reshape(shape)
        sel = sel[label[sel[:, 0], sel[:, 1]] == label[si - rows.start, sj - cols.start]]
    sel = sel + (rows.start, cols.start)

    flat = sel[:, 0] * cloud.points.shape[1] + sel[:, 1]
    pts = np.take(cloud.points.reshape(-1, 3), flat, axis=0)
    cvs = np.take(cloud.cov.reshape(-1, 6), flat, axis=0) if cloud.cov is not None else None
    return Neighborhood(points=pts, covs=cvs, pixels=sel)


def fit_sample(
    nb: Neighborhood, n_f: int, rng: np.random.Generator
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Points and (n, 3, 3) covariances a fit runs on: at most n_f of the
    neighborhood.

    A uniform draw without replacement, kept in the neighborhood's order;
    a neighborhood of at most n_f points is taken whole and draws nothing
    from rng. Only the drawn rows are unpacked to 3x3.
    """
    pts, cvs = nb.points, nb.covs
    if len(pts) > n_f:
        pick = np.sort(rng.choice(len(pts), size=n_f, replace=False))
        pts, cvs = pts[pick], (cvs[pick] if cvs is not None else None)
    return pts, (unpack_cov(cvs) if cvs is not None else None)


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
_MAX_GRID = 1024  # most seed cells along a side; select_seeds bincounts v_g**2 cells


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


# the gates an admitted patch passes, in order: a patch that fails some is
# dropped under the first; each is the ValidationRecord field "<gate>_ok"
_GATES = ("curvature", "residual", "coverage")


@dataclass(frozen=True)
class ValidationRecord:
    residual: float
    bad_cells: int
    curvature_ok: bool
    residual_ok: bool
    coverage_ok: bool

    @property
    def failed(self) -> Optional[str]:
        """The first gate, in _GATES order, that the patch fails; None if it passes all."""
        return next((g for g in _GATES if not getattr(self, f"{g}_ok")), None)

    @property
    def passed(self) -> bool:
        return self.failed is None


@dataclass
class VolumeState:
    """Cubic workspace: size, camera pose, moving policy, resident patches.

    c_t maps camera to volume frame; pose_world maps volume to world.
    c_fixed is the camera pose a remap restores: fc restores it whole, fd
    and ff its position under the attitude that gravity and forward give.
    The volume y-axis is the designated down direction. The xz plane holds
    v_g x v_g seed cells of at most n_g patches each.
    """

    v_s: float
    c_t: Pose6
    policy: MovePolicy
    c_d: float
    c_a: float
    v_g: int
    n_g: int
    pose_world: Pose6
    c_fixed: Pose6
    patches: List[MapPatch] = field(default_factory=list)
    frame_index: int = 0
    next_id: int = 0


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
    ValueError unless v_s is positive and finite, the remap thresholds c_d
    and c_a are >= 0 (NaN is not; +inf never remaps), v_g lies in [1,
    _MAX_GRID] and n_g is positive.
    """
    if not (math.isfinite(v_s) and v_s > 0.0):
        raise ValueError("v_s must be positive and finite")
    if not (c_d >= 0.0 and c_a >= 0.0):
        raise ValueError(f"c_d and c_a must be >= 0, got {c_d} and {c_a}")
    if not 1 <= v_g <= _MAX_GRID or n_g < 1:
        raise ValueError(f"v_g must lie in [1, {_MAX_GRID}] and n_g be positive")
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
        v_g=v_g,
        n_g=n_g,
        pose_world=pose_world,
        c_fixed=c_0,
    )


def _frame_down_forward(g, fwd, down_first: bool) -> np.ndarray:
    """Volume world rotation with y down (g) and z ahead (fwd).

    down_first pins y = g exactly and swings z as close to fwd as the
    orthogonality allows; otherwise z = fwd exactly and y leans toward g.
    ValueError unless g and fwd are finite, nonzero and not parallel.
    """
    g = _unit_vector(g, "gravity")
    fwd = _unit_vector(fwd, "forward")
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
    new ones (None when no remap fired). fv never remaps. fc, fd and ff
    differ only in the volume's target attitude R_target in the world:
    R(camera) R(c_fixed)^T for fc, which puts the camera back at c_fixed,
    and the frame of the world-frame g and forward vectors for fd and ff.
    A remap fires when the camera drifts past c_d meters from the c_fixed
    position or the volume attitude past c_a radians from R_target; it
    sets the attitude to R_target and pins the camera at the c_fixed
    position, t = camera.t - R_target c_fixed.t. ValueError if fd or ff
    lacks g or forward, or they fail _frame_down_forward's checks.
    """
    drifted = _pose.compose_chain(
        [ChainLink(camera_world, 1), ChainLink(state.pose_world, -1)]
    )

    if state.policy == MovePolicy.FV:
        state.c_t = drifted
        return state, None
    if state.policy == MovePolicy.FC:
        R_target = _pose.exp_map(camera_world.r) @ _pose.exp_map(state.c_fixed.r).T
    elif g is None or forward is None:
        raise ValueError(f"policy {state.policy.value} needs g and forward vectors")
    else:
        R_target = _frame_down_forward(g, forward, down_first=state.policy == MovePolicy.FD)

    moved = float(np.linalg.norm(drifted.t - state.c_fixed.t)) > state.c_d
    off = _pose.log_map(_pose.exp_map(state.pose_world.r) @ R_target.T)
    turned = float(np.linalg.norm(off)) > state.c_a
    if not (moved or turned):
        state.c_t = drifted
        return state, None

    new_world = Pose6(_pose.log_map(R_target), camera_world.t - R_target @ state.c_fixed.t)
    T = _pose.compose_chain([ChainLink(state.pose_world, 1), ChainLink(new_world, -1)])
    state.pose_world = new_world
    state.c_t = _pose.compose_chain(
        [ChainLink(camera_world, 1), ChainLink(new_world, -1)]
    )
    return state, T


def remap_patches(
    state: VolumeState,
    T: Pose6,
    cull_excess: bool = False,
) -> VolumeState:
    """Carry resident patches through a volume remap transform T.

    Volume-frame poses compose with T (covariances ride the transform
    Jacobian), so world poses are unchanged. Patches whose origin leaves
    the cube are removed. Cells are reassigned from the transformed seed
    points; with cull_excess, cells keep only their n_g oldest patches.
    """
    kept: List[MapPatch] = []
    for mp in state.patches:
        new_patch, _ = transform_patch(mp.patch, T)
        seed_v = _pose.xform_fwd(mp.seed_point, T.r, T.t)
        origin = new_patch.pose.t
        if np.any(origin < 0.0) or np.any(origin > state.v_s):
            continue
        inside, key = _cells(state, *seed_v[[0, 2], None])
        if not len(inside):
            continue
        cell = divmod(int(key[0]), state.v_g)
        kept.append(replace(mp, patch=new_patch, seed_point=seed_v, cell=cell))

    if cull_excess:
        # oldest patches (lowest ids) keep their cells
        by_cell: Counter = Counter()
        survivors = set()
        for mp in sorted(kept, key=lambda m: m.id):
            by_cell[mp.cell] += 1
            if by_cell[mp.cell] <= state.n_g:
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
    ValueError unless n_f is at least the fit minimum, surface is one of
    fit.SURFACES, 0 < gamma < 1, d_max is finite and non-negative, and
    decimate lies in [0, _MAX_DECIMATE]: median_decimate counts ranks in
    uint8, which holds the 225 members of a 15 x 15 block but not 256.
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

    def __post_init__(self):
        if not self.n_f >= MIN_FIT_POINTS:
            raise ValueError(f"n_f must be at least {MIN_FIT_POINTS}, the fit minimum")
        if self.surface not in SURFACES:
            raise ValueError(f"surface must be one of {SURFACES}")
        coverage_scale(self.gamma)  # the fit's own check: 0 < gamma < 1
        if not (math.isfinite(self.d_max) and self.d_max >= 0.0):
            raise ValueError("d_max must be finite and non-negative")
        if not 0 <= self.decimate <= _MAX_DECIMATE:
            raise ValueError(f"decimate must lie in [0, {_MAX_DECIMATE}]")


@dataclass(frozen=True)
class MapBudgets:
    """Stopping rules for one map_step call.

    n_s caps the total resident patch count, and area_target the summed
    projected patch area. work_units caps the number of fit attempts this
    call, the deterministic stand-in for a per-frame time slice;
    wall_clock_s is a real time limit instead (set only from a map config
    file's budgets, no command line flag; inherently nondeterministic),
    checked once, after seed selection and before the batched fits. One
    rule follows: a seed is tried unless the wall clock ran out before the
    batch or work_units seeds already have fit samples, and every seed not
    tried, or after an n_s or area_target stop, is a "budget" drop. None
    leaves a cap off; ValueError for a negative or NaN cap.
    """

    n_s: Optional[int] = None
    work_units: Optional[int] = None
    wall_clock_s: Optional[float] = None
    area_target: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not v >= 0:
                raise ValueError(f"{f.name} must be non-negative")


@dataclass
class MapStepResult:
    """One frame's admissions, seed accounting and stage times.

    Each seed not admitted counts once in drops: too_few_points,
    fit_failed, its first failing gate, or budget. A seed is tried unless
    the wall clock ran out before the batch or work_units seeds already
    had fit samples, and every seed not tried, or after an n_s or
    area_target stop, is a budget drop. timings holds seconds per stage:
    "saliency" (decimation, the moment image and DtFP over the frame),
    "seeds" (select_seeds, including the normals and the DoNG and DoN
    tests it solves at the pixels its walk visits), "neighborhood" (every
    seed's neighborhood and fit draw), "fit" (the batched fits), "gates"
    (the batched gates and the admissions), "fit_validate" (the sum of the
    last three) and "total".
    """

    admitted: List[MapPatch]
    n_seeds: int
    n_attempts: int
    drops: Dict[str, int]
    timings: Dict[str, float] = field(default_factory=dict)


_DROP_REASONS = ("too_few_points", "fit_failed", *_GATES, "budget")


def _minus(pts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(n, 3) points less t, one column at a time: the same bits as the
    (n, 3) - (3,) broadcast, whose inner loop runs three elements at a time."""
    d = np.empty_like(pts)
    for c in range(3):
        np.subtract(pts[:, c], t[c], out=d[:, c])
    return d


def gate_patches(
    patches: List[Patch], fit_pts: List[np.ndarray], nb_pts: List[np.ndarray], config: MapConfig
) -> List[ValidationRecord]:
    """Every gate of camera-frame patches, each fitted at one seed, even after a failure.

    patches[i] was fitted to the points fit_pts[i] of the neighborhood
    nb_pts[i]. Both principal curvatures must lie in [kappa_min,
    kappa_max] of config.saliency; the exact residual of the fit points
    must not exceed config.d_max; coverage judges data support, so it sees
    the whole neighborhood, and passes with no bad cells when
    config.check_coverage is off. The residuals of all patches take one
    validate.residuals pass, and their coverage one validate.coverage_evals
    pass.
    """
    frames = [patch_frame(p) for p in patches]
    fit_local = [_minus(f, t_l) @ R_l for f, (R_l, t_l) in zip(fit_pts, frames)]
    res = residuals(patches, fit_local).tolist()
    cover = [(True, 0)] * len(patches)
    if config.check_coverage:
        # coverage reads the local x and y alone
        nb_local = [
            fl if nb is f else _minus(nb, t_l) @ R_l[:, :2]
            for f, nb, fl, (R_l, t_l) in zip(fit_pts, nb_pts, fit_local, frames)
        ]
        reports = coverage_evals(patches, nb_local, config.coverage)
        cover = [(bool(r.passed), len(r.bad_cells)) for r in reports]
    sal = config.saliency
    return [
        ValidationRecord(
            residual=r,
            bad_cells=n_bad,
            curvature_ok=curvature_gate(p, sal.kappa_min, sal.kappa_max),
            residual_ok=r <= config.d_max,
            coverage_ok=cov_ok,
        )
        for p, r, (cov_ok, n_bad) in zip(patches, res, cover)
    ]


def gate_patch(
    patch: Patch, fit_pts: np.ndarray, nb_pts: np.ndarray, config: MapConfig
) -> ValidationRecord:
    """Every gate of a camera-frame patch fitted at one seed: the batch of
    one of gate_patches."""
    return gate_patches([patch], [fit_pts], [nb_pts], config)[0]


def map_step(
    state: VolumeState,
    cloud: OrganizedCloud,
    g,
    budgets: MapBudgets = MapBudgets(),
    config: MapConfig = MapConfig(),
    rng_seed=None,
) -> MapStepResult:
    """Run saliency, seeding, fitting, and gating over one frame.

    Saliency is tested only at the pixels select_seeds' walk visits, from
    one moment image of the (possibly decimated) saliency cloud. The seeds
    then run in three phases. Try: in seed order, each seed takes
    neighborhood() around its pixel in the full-resolution cloud (when
    decimating, the source pixel median_decimate gives for it) and
    fit_sample() of at most n_f points, none below MIN_FIT_POINTS. Fit and
    gate: one fit_patches() and one gate_patches() call make each tried
    seed a drop reason (too_few_points, fit_failed, or its record's failed:
    curvature, residual, then coverage) or a fit and its ValidationRecord.
    Admit: in seed order, until n_s or area_target stops the frame. A seed
    is tried unless the wall clock ran out before the batch or work_units
    seeds already have samples, and every seed not tried, or after an n_s
    or area_target stop, is a budget drop. Each outcome is the one a
    seed-at-a-time loop of neighborhood, fit_sample, fit_patch and
    gate_patch gives. A cell gets no more seeds than it has room for under
    n_g. The cloud and the gravity vector g are camera frame, so each
    patch's local z axis faces the camera at the origin. Mutates state;
    deterministic for a fixed rng_seed.
    """
    stamps = [time.monotonic()]  # the start, then the end of each stage
    state.frame_index += 1
    result = MapStepResult(
        admitted=[], n_seeds=0, n_attempts=0, drops={k: 0 for k in _DROP_REASONS}
    )

    cfg = config.saliency
    gv = _unit_vector(g, "gravity")
    # nothing on the map path reads the saliency cloud's covariances, so
    # the decimation gathers none
    sal_cloud, source = (
        median_decimate(replace(cloud, cov=None), config.decimate)
        if config.decimate > 1 else (cloud, None)
    )
    ii = _moment_integral(sal_cloud.points, sal_cloud.valid_mask)
    near = _near_fixation(sal_cloud.points, gv, cfg)
    stamps.append(time.monotonic())

    def salient(v: np.ndarray, u: np.ndarray) -> np.ndarray:
        return saliency_filter(sal_cloud, ii, gv, cfg, v, u)

    seeds = select_seeds(sal_cloud, near, salient, state, rng_seed=rng_seed)
    stamps.append(time.monotonic())
    result.n_seeds = len(seeds)

    # try: (pixel, neighborhood, fit sample or None) per tried seed, drawn
    # from rng in seed order as a seed-at-a-time loop draws them
    late = budgets.wall_clock_s is not None and stamps[-1] - stamps[0] > budgets.wall_clock_s
    rng = np.random.default_rng(rng_seed)
    tried, n_samples = [], 0
    for seed in [] if late else seeds:
        if budgets.work_units is not None and n_samples >= budgets.work_units:
            break
        # seeds come from the (possibly decimated) saliency cloud; the
        # search runs on the full cloud around the pixel the seed came from
        pixel = seed.pixel if source is None else tuple(source[seed.pixel].tolist())
        nb = neighborhood(config.neighborhood, cloud, pixel, cfg.r)
        sample = fit_sample(nb, config.n_f, rng) if len(nb.points) >= MIN_FIT_POINTS else None
        n_samples += sample is not None
        tried.append((pixel, nb, sample))
    stamps.append(time.monotonic())

    # fit and gate: each tried seed's outcome, a drop reason or (fit, record)
    fits = iter(fit_patches([s for *_, s in tried if s is not None],
                            surface=config.surface, gamma=config.gamma))
    stamps.append(time.monotonic())
    outcomes = ["too_few_points" if s is None else next(fits) for *_, s in tried]
    outcomes = ["fit_failed" if isinstance(o, Exception) else o for o in outcomes]
    fitted = [i for i, o in enumerate(outcomes) if not isinstance(o, str)]
    records = gate_patches([outcomes[i].patch for i in fitted], [tried[i][2][0] for i in fitted],
                           [tried[i][1].points for i in fitted], config)
    for i, record in zip(fitted, records):
        outcomes[i] = record.failed or (outcomes[i], record)

    # admit the tried seeds in seed order, until the n_s or area_target cap
    area_sum = sum(projected_area(mp.patch) for mp in state.patches)
    for seed, (pixel, _, sample), outcome in zip(seeds, tried, outcomes):
        if (budgets.n_s is not None and len(state.patches) >= budgets.n_s) or (
            budgets.area_target is not None and area_sum >= budgets.area_target
        ):
            break
        result.n_attempts += sample is not None
        if isinstance(outcome, str):
            result.drops[outcome] += 1
            continue

        fit, record = outcome
        patch_vol, _ = transform_patch(fit.patch, state.c_t)
        mp = MapPatch(
            id=state.next_id,
            patch=patch_vol,
            cell=seed.cell,
            seed_pixel=pixel,
            seed_point=_pose.xform_fwd(seed.point, state.c_t.r, state.c_t.t),
            frame_index=state.frame_index,
            validation=record,
        )
        state.next_id += 1
        state.patches.append(mp)
        area_sum += projected_area(fit.patch)
        result.admitted.append(mp)
    # the seeds the admissions did not reach: not tried, or after a cap
    result.drops["budget"] = len(seeds) - len(result.admitted) - sum(result.drops.values())
    stamps.append(time.monotonic())
    stages = ("saliency", "seeds", "neighborhood", "fit", "gates")
    t = result.timings = {k: b - a for k, a, b in zip(stages, stamps, stamps[1:])}
    t.update(fit_validate=t["neighborhood"] + t["fit"] + t["gates"], total=stamps[-1] - stamps[0])
    return result
