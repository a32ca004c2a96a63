"""Post-fit patch validation.

Three independent tests: the RMS exact Euclidean distance of local-frame
points to the unbounded surface, boundary coverage on a local-frame grid,
and a curvature gate. Each is a pure function of a fitted patch and (for
the first two) its local-frame sample points; mapping.gate_patch runs all
three for the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    curvature_k3,
    projected_area,
    quad_vertices,
)

__all__ = [
    "closest_point_exact",
    "residual",
    "CoverageConfig",
    "CoverageReport",
    "coverage_eval",
    "intersection_area",
    "curvature_gate",
    "principal_curvatures",
]


# ---------------------------------------------------------------------------
# Exact closest point
# ---------------------------------------------------------------------------
#
# One kernel solves every point of a patch at once; closest_point_exact is
# its one-row case and residual calls it once per patch. Spheres and
# circular cylinders reduce to center and axis geometry. Paraboloid family
# members run Newton on the Lagrange multiplier of all rows together, from
# the z-axis projection; each certification test is a mask over the rows.
# Rows on a symmetry plane and rows left uncertified are solved one at a
# time by the companion-matrix path, which also serves as the oracle
# (solver="companion").

# route to the companion path when a coordinate sits on a symmetry plane,
# where backsubstitution denominators can vanish
_SYM_TOL = 1e-8
_DEN_TOL = 1e-8
_NEWTON_MAX = 50


def _quintic_coeffs(k1: float, k2: float, q: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the closest-point polynomial in lambda, per row.

    Substituting p(lam) = (I + lam K)^-1 (q + lam z) into the implicit
    form and clearing (1 + lam k1)^2 (1 + lam k2)^2 = (1 + s lam + p lam^2)^2,
    with s = k1 + k2 and p = k1 k2, gives a polynomial of degree up to
    five. q has shape (n, 3); the result has shape (n, 6).
    """
    a, b, c = q[:, 0] * q[:, 0], q[:, 1] * q[:, 1], q[:, 2]
    s, p = k1 + k2, k1 * k2
    e1, e2, e3, e4 = 2.0 * s, s * s + 2.0 * p, 2.0 * s * p, p * p
    out = np.empty((len(q), 6))
    out[:, 0] = k1 * a + k2 * b - 2.0 * c
    out[:, 1] = 2.0 * p * (a + b) - 2.0 * (c * e1 + 1.0)
    out[:, 2] = p * (k2 * a + k1 * b) - 2.0 * (c * e2 + e1)
    out[:, 3] = -2.0 * (c * e3 + e2)
    out[:, 4] = -2.0 * (c * e4 + e3)
    out[:, 5] = -2.0 * e4
    return out


def _polyval(coeffs: np.ndarray, x: float) -> float:
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def _polish_root(coeffs: np.ndarray, dcoeffs: np.ndarray, lam: float) -> float:
    for _ in range(3):
        fp = _polyval(dcoeffs, lam)
        if fp == 0.0:
            break
        step = _polyval(coeffs, lam) / fp
        lam -= step
        if abs(step) <= 1e-14 * (1.0 + abs(lam)):
            break
    return lam


def _backsub(k1: float, k2: float, q: np.ndarray, lam: float) -> List[np.ndarray]:
    """Candidate surface points for one multiplier value.

    A vanishing denominator with a nonzero numerator marks a spurious root
    introduced by clearing; with a (near) zero numerator the component is
    unconstrained and the surface equation fixes its magnitude instead.
    """
    k = (k1, k2)
    den = (1.0 + lam * k1, 1.0 + lam * k2)
    p = np.array([0.0, 0.0, q[2] + lam])
    free = []
    for m in (0, 1):
        if abs(den[m]) > _DEN_TOL:
            p[m] = q[m] / den[m]
        elif abs(q[m]) <= _SYM_TOL:
            free.append(m)
        else:
            return []
    if not free:
        return [p]
    if len(free) == 2 and k1 != k2:
        return []
    km = k[free[0]]
    if km == 0.0:
        return []
    ss = (2.0 * p[2] - sum(k[m] * p[m] * p[m] for m in (0, 1) if m not in free)) / km
    if ss < -1e-12:
        return []
    p[free[0]] = math.sqrt(max(ss, 0.0))
    return [p]


# both take one point (3,) or rows (n, 3)
def _surface_gap(k1: float, k2: float, p: np.ndarray):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return abs(k1 * x * x + k2 * y * y - 2.0 * z)


def _gap_scale(k1: float, k2: float, q: np.ndarray):
    x, y, z = q[..., 0], q[..., 1], q[..., 2]
    return 1.0 + abs(k1) * x * x + abs(k2) * y * y + 2.0 * abs(z)


def _companion_closest(k1, k2, q, coeffs) -> np.ndarray:
    """Closest point to one row q from every real root of its polynomial."""
    desc = np.trim_zeros(coeffs[::-1], "f")
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    cands: List[np.ndarray] = []
    if len(desc) >= 2:
        roots = np.roots(desc)
        keep = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))
        for lam in roots[keep].real:
            cands.extend(_backsub(k1, k2, q, _polish_root(coeffs, dcoeffs, lam)))
    # exact pole branches when q lies on a symmetry plane; the companion
    # eigenvalues smear such multiple roots and miss these candidates
    for m, km in ((0, k1), (1, k2)):
        if km != 0.0 and abs(q[m]) <= _SYM_TOL:
            cands.extend(_backsub(k1, k2, q, -1.0 / km))
    scale = _gap_scale(k1, k2, q)
    for tol in (1e-10 * scale, 1e-7 * scale):
        onsurf = [p for p in cands if _surface_gap(k1, k2, p) <= tol]
        if onsurf:
            return onsurf[int(np.argmin([np.dot(q - p, q - p) for p in onsurf]))]
    # unreachable in practice; the z-axis projection is always feasible
    return np.array([q[0], q[1], 0.5 * (k1 * q[0] ** 2 + k2 * q[1] ** 2)])


def _newton_rows(k1, k2, q, coeffs, live):
    """Newton from the z-axis projection on the rows flagged in live.

    Returns the surface points and the mask of certified rows. A row is
    certified when Newton converges within _NEWTON_MAX steps through
    finite multipliers with |lam| <= 1e8, when I + lam K stays positive
    definite, which makes the stationary point the global minimum (the
    Lagrangian is then convex in p), and when the point lies on the surface.
    Points of the other rows are meaningless.
    """
    polyval = np.polynomial.polynomial.polyval
    dcoeffs = coeffs[:, 1:] * np.arange(1.0, 6.0)
    lam = 0.5 * (k1 * q[:, 0] ** 2 + k2 * q[:, 1] ** 2) - q[:, 2]
    converged = np.zeros(len(q), dtype=bool)
    rows = np.flatnonzero(live)
    for _ in range(_NEWTON_MAX):
        if not rows.size:
            break
        lr = lam[rows]
        fp = polyval(lr, dcoeffs[rows].T, tensor=False)
        ok = (fp != 0.0) & np.isfinite(lr) & (np.abs(lr) <= 1e8)
        rows, lr = rows[ok], lr[ok]
        step = polyval(lr, coeffs[rows].T, tensor=False) / fp[ok]
        lr = lr - step
        lam[rows] = lr
        done = np.abs(step) <= 1e-12 * (1.0 + np.abs(lr))
        converged[rows[done]] = True
        rows = rows[~done]
    den1, den2 = 1.0 + lam * k1, 1.0 + lam * k2
    cert = converged & (den1 > 1e-12) & (den2 > 1e-12)
    p = np.column_stack([q[:, 0] / den1, q[:, 1] / den2, q[:, 2] + lam])
    return p, cert & (_surface_gap(k1, k2, p) <= 1e-9 * _gap_scale(k1, k2, q))


def _closest_points(patch: Patch, q: np.ndarray, solver: str = "auto"):
    """Closest points on the unbounded surface to the (n, 3) local-frame rows q.

    Returns (points, distances) with shapes (n, 3) and (n,).
    """
    if solver not in ("auto", "companion"):
        raise ValueError("solver must be 'auto' or 'companion'")
    s = patch.s
    if s in (SurfaceType.SPHERE, SurfaceType.CIRCULAR_CYLINDER) and patch.k[0] != 0.0:
        kap = patch.k[0]
        radius = 1.0 / abs(kap)
        # nearest center point: the sphere center, or the foot on the axis
        c = np.zeros_like(q)
        c[:, 2] = 1.0 / kap
        if s == SurfaceType.CIRCULAR_CYLINDER:
            c[:, 0] = q[:, 0]
        w = q - c
        rho = np.sqrt(np.sum(w * w, axis=1))
        u = np.zeros_like(q)
        u[:, 2] = -math.copysign(1.0, kap)
        off = rho > 0.0
        u[off] = w[off] / rho[off, None]
        return c + radius * u, np.abs(rho - radius)
    k1, k2 = curvature_k3(patch)[:2]
    if k1 == 0.0 and k2 == 0.0:
        p = q.copy()
        p[:, 2] = 0.0
        return p, np.abs(q[:, 2])
    coeffs = _quintic_coeffs(k1, k2, q)
    if solver == "auto":
        sym = ((k1 != 0.0) & (np.abs(q[:, 0]) <= _SYM_TOL)) | (
            (k2 != 0.0) & (np.abs(q[:, 1]) <= _SYM_TOL)
        )
        with np.errstate(all="ignore"):  # failed rows are masked, not used
            p, cert = _newton_rows(k1, k2, q, coeffs, ~sym)
    else:
        p, cert = np.empty_like(q), np.zeros(len(q), dtype=bool)
    for i in np.flatnonzero(~cert):
        p[i] = _companion_closest(k1, k2, q[i], coeffs[i])
    w = q - p
    return p, np.sqrt(np.sum(w * w, axis=1))


def closest_point_exact(patch: Patch, q, solver: str = "auto"):
    """Closest point on the unbounded surface to one local-frame point.

    The one-row case of the batch kernel that residual uses: batched Newton
    on the Lagrange multiplier for paraboloid family members, certification
    applied as a mask, and a per-point companion-matrix fallback for rows on
    a symmetry plane or left uncertified (solver="companion" sends every
    row there). Spheres and circular cylinders use center and axis
    geometry. Returns (point, distance).
    """
    p, d = _closest_points(patch, np.asarray(q, dtype=float).reshape(1, 3), solver)
    return p[0], float(d[0])


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def residual(patch: Patch, points) -> float:
    """RMS Euclidean distance from local-frame points to the unbounded surface.

    Every point is solved in one call of the closest-point kernel: batched
    Newton with its certification applied as a mask, and a per-point
    companion-matrix fallback for the rows it leaves (see
    closest_point_exact). Points must be finite. Taubin's first- and
    second-order distances (Taubin 1991) approximate this distance
    without bounding it, so the gate does not use them.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("residual needs at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("residual needs finite points")
    d = _closest_points(patch, pts)[1]
    return float(math.sqrt(float(np.mean(d * d))))


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageConfig:
    """Grid pitch and thresholds for the coverage test."""

    w_c: float = 0.01
    zeta_i: float = 0.8
    zeta_o: float = 0.2
    t_p_factor: float = 0.3

    def __post_init__(self):
        if not self.w_c > 0.0:
            raise ValueError("w_c must be positive")
        if not 0.0 <= self.zeta_o <= self.zeta_i <= 1.0:
            raise ValueError("need 0 <= zeta_o <= zeta_i <= 1")


@dataclass(frozen=True)
class CoverageReport:
    passed: bool
    bad_cells: Tuple[Tuple[int, int], ...]
    origin: Tuple[float, float]  # grid anchor: boundary bbox min corner
    shape: Tuple[int, int]  # cells along x, y
    w_c: float
    n_expected: float  # N_e, samples per cell if evenly spread
    t_i: float
    t_o: float
    t_p: float


def _boundary_bbox(patch: Patch):
    b, d = patch.b, patch.d
    if b in (BoundaryType.ELLIPSE, BoundaryType.AARECT):
        lo = np.array([-d[0], -d[1]])
        return lo, -lo
    if b == BoundaryType.CIRCLE:
        lo = np.array([-d[0], -d[0]])
        return lo, -lo
    v = quad_vertices(d)
    return v.min(axis=0), v.max(axis=0)


def coverage_eval(
    patch: Patch, points, config: CoverageConfig = CoverageConfig()
) -> CoverageReport:
    """Grid test of how well local-frame points populate the boundary.

    A cell is bad when it holds too few in-bounds points for its share of
    the boundary area or too many out-of-bounds points; the patch fails
    when bad cells outnumber the allowed fraction of the patch area.
    Points projecting outside the grid are ignored. One array pass does
    the whole grid: one bincount of the points and one _cell_areas call.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    w = config.w_c
    lo, hi = _boundary_bbox(patch)
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / w - 1e-12)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / w - 1e-12)))
    xy = pts[:, :2]
    ij = np.floor((xy - lo) / w).astype(int)
    ongrid = (ij[:, 0] >= 0) & (ij[:, 0] < nx) & (ij[:, 1] >= 0) & (ij[:, 1] < ny)
    # one bincount: in-bounds points count in the first grid, the rest in the second
    flat = ij[:, 0] * ny + ij[:, 1] + np.where(boundary_contains(patch, xy), 0, nx * ny)
    counts_in, counts_out = np.bincount(flat[ongrid], minlength=2 * nx * ny).reshape(2, nx, ny)

    n_p = projected_area(patch) / (w * w)
    n_e = len(pts) / n_p
    t_i = config.zeta_i * n_e
    t_o = config.zeta_o * n_e
    t_p = config.t_p_factor * n_p
    frac = _cell_areas(patch.b, patch.d, lo, nx, ny, w) / (w * w)
    bad = (counts_in < frac * t_i) | (counts_out > (1.0 - frac) * t_o)
    bad_cells = tuple(map(tuple, np.argwhere(bad).tolist()))  # ix-major
    return CoverageReport(
        passed=len(bad_cells) <= t_p,
        bad_cells=bad_cells,
        origin=(float(lo[0]), float(lo[1])),
        shape=(nx, ny),
        w_c=w,
        n_expected=n_e,
        t_i=t_i,
        t_o=t_o,
        t_p=t_p,
    )


# ---------------------------------------------------------------------------
# Cell-boundary intersection areas
# ---------------------------------------------------------------------------
#
# One kernel computes the overlap of every cell of a grid with the boundary;
# intersection_area is its one-cell case. Ellipse and circle cells split at
# the axes into per-quadrant pieces reflected into the first quadrant, where
# each corner test and arc abscissa depends on one coordinate only, so it is
# taken once per grid line. (x / a) ** 2 on a numpy scalar calls libm pow,
# while array ** 2 computes x * x, which differs by an ulp on some inputs;
# np.float_power keeps the pow result.


def _half_axis(g0: np.ndarray, g1: np.ndarray, own, other):
    """The pieces of the intervals [g0, g1] on the positive and the negative
    half-axis, each reflected to >= 0, stacked along a leading axis of 2.

    Returns (start, end, width, live, (start / own)^2, (end / own)^2,
    other * sqrt(1 - (start / own)^2), other * sqrt(1 - (end / own)^2)),
    where end = start + width, the radicands are clamped at 0 and live marks
    nonempty pieces.
    """
    s = np.stack([np.maximum(g0, 0.0), np.maximum(-g1, 0.0)])
    wid = np.stack([g1, -g0]) - s
    live = np.stack([g1 > 0.0, g0 < 0.0]) & (wid > 0.0)
    c = s + wid
    qs, qc = np.float_power(s / own, 2.0), np.float_power(c / own, 2.0)
    fs = other * np.sqrt(np.maximum(1.0 - qs, 0.0))
    fc = other * np.sqrt(np.maximum(1.0 - qc, 0.0))
    return s, c, wid, live, qs, qc, fs, fc


def _quadrant_areas(px, py) -> np.ndarray:
    """Secant areas of the first-quadrant pieces px (along x) times py (along
    y), of shape (2, nx, 2, ny): x half, x cell, y half, y cell.

    The arc crosses a piece through at most two of its edges; each branch
    takes the straight chord between the crossings.
    """
    x0, xc, wx, livex, qx0, qxc, fy0, fyc = (v[:, :, None, None] for v in px)
    y0, yc, wy, livey, qy0, qyc, fx0, fxc = (v[None, None] for v in py)
    p1, p3 = qxc + qy0 <= 1.0, qx0 + qyc <= 1.0
    # the arc cuts the left and bottom edges (a triangle), the bottom and top
    # (p3), the left and right (p1), or the top and right (a full strip plus
    # a trapezoid); a later assignment takes precedence over an earlier one
    area = (fx0 - x0) * (fy0 - y0) / 2.0
    area = np.where(p3, (yc - y0) * ((fx0 - x0) + (fxc - x0)) / 2.0, area)
    area = np.where(p1, (xc - x0) * ((fy0 - y0) + (fyc - y0)) / 2.0, area)
    both = (fxc - x0) * wy + (xc - fxc) * ((fyc - y0) + (yc - fyc) / 2.0)
    area = np.where(p1 & p3, both, area)
    area = np.where(qx0 + qy0 > 1.0, 0.0, area)
    area = np.where(qxc + qyc <= 1.0, wx * wy, area)
    return np.where(livex & livey, area, 0.0)


def _clipped_cell_areas(x0: np.ndarray, y0: np.ndarray, w: float, clip: np.ndarray):
    """(nx, ny) areas of the cells clipped to the CCW convex polygon clip.

    Sutherland-Hodgman over all cells at once: each cell is a row of
    vertices, the first n of them live, compacted after every clip edge.
    """
    gx, gy = np.meshgrid(x0, y0, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    poly = np.stack(
        [np.column_stack(c) for c in ((gx, gy), (gx + w, gy), (gx + w, gy + w), (gx, gy + w))],
        axis=1,
    )
    n = np.full(len(gx), 4)

    def successor(arr, n):
        nxt = (np.arange(arr.shape[1]) + 1) % np.maximum(n, 1)[:, None]
        return np.take_along_axis(arr, nxt if arr.ndim == 2 else nxt[..., None], axis=1)

    for i in range(len(clip)):
        a, b = clip[i], clip[(i + 1) % len(clip)]
        ex, ey = b[0] - a[0], b[1] - a[1]
        side = ex * (poly[..., 1] - a[1]) - ey * (poly[..., 0] - a[0])
        s_next = successor(side, n)
        live = np.arange(poly.shape[1]) < n[:, None]
        keep = live & (side >= 0.0)
        cross = live & ((side >= 0.0) != (s_next >= 0.0))
        t = side / np.where(cross, side - s_next, 1.0)
        cut = poly + t[..., None] * (successor(poly, n) - poly)
        ok = np.stack([keep, cross], axis=2).reshape(len(n), -1)
        cand = np.stack([poly, cut], axis=2).reshape(len(n), -1, 2)
        order = np.argsort(~ok, axis=1, kind="stable")
        n = ok.sum(axis=1)
        poly = np.take_along_axis(cand, order[..., None], axis=1)[:, : max(int(n.max()), 1)]
    # shoelace about each cell's corner, where the terms are O(w^2) and do
    # not cancel as absolute coordinates would
    live = np.arange(poly.shape[1]) < n[:, None]
    x, y = poly[..., 0] - gx[:, None], poly[..., 1] - gy[:, None]
    terms = np.where(live, x * successor(y, n) - successor(x, n) * y, 0.0)
    area = np.where(n >= 3, 0.5 * np.abs(terms.sum(axis=1)), 0.0)
    return area.reshape(len(x0), len(y0))


def _cell_areas(boundary: BoundaryType, d, lo, nx: int, ny: int, w: float) -> np.ndarray:
    """(nx, ny) overlap areas of the grid cells lo + (ix, iy) w, of side w,
    with the projected boundary."""
    d = np.asarray(d, dtype=float)
    x0 = lo[0] + np.arange(nx) * w
    y0 = lo[1] + np.arange(ny) * w
    if boundary == BoundaryType.AARECT:
        ox = np.maximum(0.0, np.minimum(x0 + w, d[0]) - np.maximum(x0, -d[0]))
        oy = np.maximum(0.0, np.minimum(y0 + w, d[1]) - np.maximum(y0, -d[1]))
        total = ox[:, None] * oy
    elif boundary == BoundaryType.CQUAD:
        total = _clipped_cell_areas(x0, y0, w, quad_vertices(d))
    else:
        a, b = (d[0], d[0]) if boundary == BoundaryType.CIRCLE else (d[0], d[1])
        q = _quadrant_areas(_half_axis(x0, x0 + w, a, b), _half_axis(y0, y0 + w, b, a))
        # summed in the scalar rule's order: x half outer, y half inner
        total = q[0, :, 0] + q[0, :, 1] + q[1, :, 0] + q[1, :, 1]
    # clamp roundoff in both directions: exact corner tangency can leave a
    # ~1e-30 sliver the strict bad-cell rule would demand points in, and a
    # full cell summed from quadrant parts can exceed w_c^2 by an ulp
    return np.where(total < 1e-12 * w * w, 0.0, np.minimum(total, w * w))


def intersection_area(boundary: BoundaryType, d, cell_origin, w_c: float) -> float:
    """Overlap area between one grid cell and the projected boundary.

    The one-cell case of the grid kernel that coverage_eval runs. Exact for
    rectangles and convex quads; ellipses and circles use a secant
    approximation of the arc inside each cell, a one-sided underestimate of
    at most the circular segment at the boundary's largest curvature over
    the cell diagonal.
    """
    origin = (float(cell_origin[0]), float(cell_origin[1]))
    return float(_cell_areas(boundary, d, origin, 1, 1, w_c)[0, 0])


# ---------------------------------------------------------------------------
# Curvature gate
# ---------------------------------------------------------------------------


def principal_curvatures(patch: Patch) -> np.ndarray:
    """Principal curvatures at the patch origin, as a pair."""
    return curvature_k3(patch)[:2]


def curvature_gate(patch: Patch, kappa_min: float, kappa_max: float) -> bool:
    """Pass iff both principal curvatures lie in [kappa_min, kappa_max]."""
    k = principal_curvatures(patch)
    return bool(kappa_min <= k.min() and k.max() <= kappa_max)
