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
from typing import Tuple

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
    "curvature_gate",
    "principal_curvatures",
]


# ---------------------------------------------------------------------------
# Exact closest point
# ---------------------------------------------------------------------------
#
# One kernel solves every point of a patch at once; closest_point_exact is
# its one-row case and residual calls it once per patch. Spheres and
# circular cylinders reduce to center and axis geometry. On the paraboloid
# family z = (k1 x^2 + k2 y^2) / 2 the stationary points of the distance to
# q are p(lam) = (q_x / (1 + lam k1), q_y / (1 + lam k2), q_z + lam), where
# lam is a root of the secular equation
#
#     phi(lam) = sum_i k_i q_i^2 / (2 (1 + lam k_i)^2) - q_z - lam.
#
# On the interval I where every 1 + lam k_i > 0 the Lagrangian is convex in
# p, so a root there is the global closest point, and phi' < 0, so there is
# at most one (the trust-region analysis of More and Sorensen, 1983; Eberly,
# "Distance from a Point to an Ellipse, an Ellipsoid, or a Hyperellipsoid").
# The sign of phi(0) picks the half of I that holds the root, and phi at
# half the pole bounding that half tells whether the root lies past it.
# Past it, the unknown is t = lam - pole, so that the pole axis's
# 1 + lam k_b = k_b t keeps its digits; short of it, lam itself. Either way
# each row solves for u = |t| or |lam| in a bracket [0, m] by Newton steps,
# bisecting when a step leaves the bracket or fails to halve the last move.
# Hard case: the pole's axes hold q_i = 0 and phi has no root inside I.
# Then lam is the pole, and the surface equation gives the free coordinate;
# when k1 = k2 the solutions form a ring about the axis.

# Newton steps per row; after them the bracket is only bisected, which on
# float bit patterns ends within 64 more
_NEWTON_MAX = 50


def _bit_mid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Midpoint of non-negative floats in bit order: geometric across orders
    of magnitude, arithmetic within one, and each bisection halves the count
    of doubles in [lo, hi]."""
    a = lo.view(np.int64)
    return (a + ((hi.view(np.int64) - a) >> 1)).view(np.float64)


def _secular(k1, k2, x, y, z, lam, dx, dy):
    """phi(lam) and phi'(lam) of the rows (x, y, z), given the denominators
    dx = 1 + lam k1 and dy = 1 + lam k2."""
    px, py = x / dx, y / dy
    px, py = px * px, py * py
    phi = 0.5 * (k1 * px + k2 * py) - z - lam
    return phi, -1.0 - (k1 * k1 * px / dx + k2 * k2 * py / dy)


def _paraboloid_closest(k1: float, k2: float, q: np.ndarray) -> np.ndarray:
    """Closest points on z = (k1 x^2 + k2 y^2) / 2 to the (n, 3) rows q."""
    x, y, z = np.array(q.T)
    phi0, dphi0 = _secular(k1, k2, x, y, z, 0.0, 1.0, 1.0)
    lower = phi0 < 0.0  # the root lies below lam = 0, else at or above it
    # half the pole that bounds that side of I, infinite on a side without one
    half_lo = -0.5 / max(k1, k2) if max(k1, k2) > 0.0 else -np.inf
    half_hi = -0.5 / min(k1, k2) if min(k1, k2) < 0.0 else np.inf
    half = np.where(lower, half_lo, half_hi)
    h = np.where(np.isfinite(half), half, 0.0)
    phih = _secular(k1, k2, x, y, z, h, 1.0 + h * k1, 1.0 + h * k2)[0]
    near = np.flatnonzero((h != 0.0) & (phih * phi0 > 0.0))  # the root lies past half
    # each row solves for u in a bracket [0, m], where lam = a + sig u and the
    # denominators are c_i + sig u k_i. Short of half the pole: a = 0, c_i = 1,
    # u starts at the Newton step from lam = 0, and m is the nearer of half
    # the pole and where phi's bound by the curvature terms of one sign is 0
    sig = np.where(lower, -1.0, 1.0)
    a, cx, cy, tol = np.zeros_like(x), np.ones_like(x), np.ones_like(x), np.ones_like(x)
    reach = np.where(
        lower,
        z - 0.5 * (min(k1, 0.0) * x * x + min(k2, 0.0) * y * y),
        0.5 * (max(k1, 0.0) * x * x + max(k2, 0.0) * y * y) - z,
    )
    m = np.minimum(np.abs(half), reach) + 0.0  # no -0.0 for the bit views
    u = np.abs(phi0 / dphi0)
    # past half the pole: a is the pole, c_i = 1 - k_i / k_b is exactly 0 on
    # the pole's own axes, m is half the pole and Newton's tolerance is
    # relative in t
    kb = np.where(lower[near], max(k1, k2), min(k1, k2))
    a[near], sig[near], m[near], tol[near] = 2.0 * half[near], -sig[near], np.abs(half[near]), 0.0
    cx[near], cy[near] = 1.0 - k1 / kb, 1.0 - k2 / kb
    on_x, on_y = cx[near] == 0.0, cy[near] == 0.0
    xn, yn = x[near], y[near]
    # phi at the pole without the pole's own axes gives the squared free
    # coordinate there. The hard case: it is >= 0 and the first-order root
    # t = q_b / (k_b p_b) is 0, or too small for a normal double
    with np.errstate(divide="ignore", invalid="ignore"):
        free2 = -2.0 / kb * _secular(
            k1, k2, np.where(on_x, 0.0, xn), np.where(on_y, 0.0, yn), z[near], a[near],
            np.where(on_x, 1.0, cx[near]), np.where(on_y, 1.0, cy[near]),
        )[0]
        q_pole = np.hypot(np.where(on_x, xn, 0.0), np.where(on_y, yn, 0.0))
        u[near] = q_pole / (np.abs(kb) * np.sqrt(free2))
    hard_n = (free2 >= 0.0) & ~(u[near] >= np.finfo(float).tiny)
    hard = near[hard_n]
    u = np.where(u <= m, u, 0.5 * m)
    u[hard] = 0.0
    rows, gone = np.delete(np.arange(len(x)), hard), True
    ur, lo, hi, move = u[rows], np.zeros(len(rows)), m[rows], m[rows]
    for it in range(_NEWTON_MAX + 64):
        if not rows.size:
            break
        if gone:  # the constants of the rows still open
            xr, yr, zr, ar, cxr, cyr, sr, tr = (w[rows] for w in (x, y, z, a, cx, cy, sig, tol))
        v = sr * ur
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi, dphi = _secular(k1, k2, xr, yr, zr, ar + v, cxr + v * k1, cyr + v * k2)
            g = sr * phi  # decreasing in u, as phi is in lam
            step = g / dphi
        lo = np.where(g > 0.0, ur, lo)
        hi = np.where(g < 0.0, ur, hi)
        un, size = ur - step, np.abs(step)
        conv = (size <= 1e-12 * (ur + tr)) & np.isfinite(dphi)
        newton = conv | ((un > lo) & (un < hi) & (size <= 0.5 * move) & (it < _NEWTON_MAX))
        collapsed = hi.view(np.int64) - lo.view(np.int64) <= 1
        un = np.where(newton, un, np.where(collapsed, hi, _bit_mid(lo, hi)))
        move, ur = np.abs(un - ur), un
        done = conv | collapsed
        gone = done.any()
        if gone:
            u[rows[done]] = ur[done]
            keep = ~done
            rows, ur, lo, hi, move = rows[keep], ur[keep], lo[keep], hi[keep], move[keep]
    v = sig * u
    with np.errstate(divide="ignore", invalid="ignore"):  # the pole's axes of hard rows
        p = np.stack([x / (cx + v * k1), y / (cy + v * k2), z + (a + v)], axis=1)
    # hard rows: the free coordinate on the pole's first axis, signed as q
    # there; when k1 = k2 this is the ring's point on the x axis
    hx, hy, r = on_x[hard_n], on_y[hard_n], np.sqrt(free2[hard_n])
    p[hard, 0] = np.where(hx, np.copysign(r, x[hard]), p[hard, 0])
    p[hard, 1] = np.where(hy, np.where(hx, 0.0, np.copysign(r, y[hard])), p[hard, 1])
    return p


def _closest_points(patch: Patch, q: np.ndarray):
    """Closest points on the unbounded surface to the (n, 3) local-frame rows q.

    Returns (points, distances) with shapes (n, 3) and (n,).
    """
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
    p = _paraboloid_closest(float(k1), float(k2), q)
    w = q - p
    return p, np.sqrt(np.sum(w * w, axis=1))


def closest_point_exact(patch: Patch, q):
    """Closest point on the unbounded surface to one local-frame point.

    The one-row case of the batch kernel that residual uses. On paraboloid
    family members it solves the secular equation of the Lagrange
    multiplier by bracketed Newton steps on the interval where the
    Lagrangian is convex, so its one root there is the global closest
    point; when that root would sit on a pole whose axes hold q_i = 0 (the
    hard case) the multiplier is the pole and the surface equation fixes the
    free coordinate. Spheres and circular cylinders use center and axis
    geometry. Returns (point, distance).
    """
    p, d = _closest_points(patch, np.asarray(q, dtype=float).reshape(1, 3))
    return p[0], float(d[0])


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def residual(patch: Patch, points) -> float:
    """RMS Euclidean distance from local-frame points to the unbounded surface.

    Every point is solved in one call of the closest-point kernel, one
    bracketed root of the secular equation per point, with the hard case
    taken explicitly (see closest_point_exact). Points must be finite.
    Taubin's first- and second-order distances (Taubin 1991) approximate
    this distance without bounding it, so the gate does not use them.
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
        if not self.t_p_factor >= 0.0:
            raise ValueError("t_p_factor must be non-negative")


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
# One kernel computes the overlap of every cell of a grid with the
# boundary. Ellipse and circle cells split at
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
    with the projected boundary.

    Exact for rectangles and convex quads; ellipses and circles use a
    secant approximation of the arc inside each cell, a one-sided
    underestimate of at most the circular segment at the boundary's
    largest curvature over the cell diagonal.
    """
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
