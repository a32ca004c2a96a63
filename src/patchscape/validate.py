"""Post-fit patch validation.

Three independent tests: the RMS exact Euclidean distance of local-frame
points to the unbounded surface, boundary coverage on a local-frame grid,
and a curvature gate. Each is a pure function of a fitted patch and (for
the first two) its local-frame sample points. The first two take a batch
of patches, each with its own points, in one array pass (residuals,
coverage_evals); residual and coverage_eval are their one-patch cases.
mapping.gate_patches runs all three for every seed of a frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    "residuals",
    "CoverageConfig",
    "CoverageReport",
    "coverage_evals",
    "curvature_gate",
    "principal_curvatures",
]


# ---------------------------------------------------------------------------
# Exact closest point
# ---------------------------------------------------------------------------
#
# One kernel solves every point of a batch of patches at once, each row with
# its own patch's curvatures; residuals calls it once for every patch of a
# frame, and residual and closest_point_exact are its one-patch cases.
# Spheres and circular cylinders reduce to center and axis geometry. On the
# paraboloid family z = (k1 x^2 + k2 y^2) / 2 the stationary points of the
# distance to q are p(lam) = (q_x / (1 + lam k1), q_y / (1 + lam k2),
# q_z + lam), where lam is a root of the secular equation
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


def _paraboloid_closest(k1: np.ndarray, k2: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Closest points on z = (k1 x^2 + k2 y^2) / 2 to the (n, 3) rows q, where
    k1 and k2 are (n,) arrays holding each row's own curvatures."""
    x, y, z = np.array(q.T)
    phi0, dphi0 = _secular(k1, k2, x, y, z, 0.0, 1.0, 1.0)
    lower = phi0 < 0.0  # the root lies below lam = 0, else at or above it
    # half the pole that bounds that side of I, infinite on a side without one
    k_hi, k_lo = np.maximum(k1, k2), np.minimum(k1, k2)
    with np.errstate(divide="ignore"):
        half_lo = np.where(k_hi > 0.0, -0.5 / k_hi, -np.inf)
        half_hi = np.where(k_lo < 0.0, -0.5 / k_lo, np.inf)
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
        z - 0.5 * (np.minimum(k1, 0.0) * x * x + np.minimum(k2, 0.0) * y * y),
        0.5 * (np.maximum(k1, 0.0) * x * x + np.maximum(k2, 0.0) * y * y) - z,
    )
    m = np.minimum(np.abs(half), reach) + 0.0  # no -0.0 for the bit views
    u = np.abs(phi0 / dphi0)
    # past half the pole: a is the pole, c_i = 1 - k_i / k_b is exactly 0 on
    # the pole's own axes, m is half the pole and Newton's tolerance is
    # relative in t
    k1n, k2n = k1[near], k2[near]
    kb = np.where(lower[near], k_hi[near], k_lo[near])
    a[near], sig[near], m[near], tol[near] = 2.0 * half[near], -sig[near], np.abs(half[near]), 0.0
    cx[near], cy[near] = 1.0 - k1n / kb, 1.0 - k2n / kb
    on_x, on_y = cx[near] == 0.0, cy[near] == 0.0
    xn, yn = x[near], y[near]
    # phi at the pole without the pole's own axes gives the squared free
    # coordinate there. The hard case: it is >= 0 and the first-order root
    # t = q_b / (k_b p_b) is 0, or too small for a normal double
    with np.errstate(divide="ignore", invalid="ignore"):
        free2 = -2.0 / kb * _secular(
            k1n, k2n, np.where(on_x, 0.0, xn), np.where(on_y, 0.0, yn), z[near], a[near],
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
            xr, yr, zr, ar, cxr, cyr, sr, tr, k1r, k2r = (
                w[rows] for w in (x, y, z, a, cx, cy, sig, tol, k1, k2)
            )
        v = sr * ur
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi, dphi = _secular(k1r, k2r, xr, yr, zr, ar + v, cxr + v * k1r, cyr + v * k2r)
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


# the closest-point geometry of a patch's rows: a sphere or circular
# cylinder's center and axis, the plane z = 0, or the paraboloid kernel
_ROUND, _FLAT, _PARABOLOID = range(3)


def _closest_rows(patches: Sequence[Patch], counts: Sequence[int], q: np.ndarray):
    """Closest points on the unbounded surfaces to the (n, 3) local-frame rows
    q: the first counts[0] rows belong to patches[0], the next counts[1] to
    patches[1], and so on.

    Every row of each geometry is solved in one pass, the paraboloid rows in
    one _paraboloid_closest call. Returns (points, distances) with shapes
    (n, 3) and (n,).
    """
    kind, kap, k1, k2 = [], [], [], []
    for patch in patches:
        c1, c2 = curvature_k3(patch)[:2]
        round_ = patch.s in (SurfaceType.SPHERE, SurfaceType.CIRCULAR_CYLINDER)
        if round_ and patch.k[0] != 0.0:
            kind.append(_ROUND)
        else:
            kind.append(_FLAT if c1 == 0.0 and c2 == 0.0 else _PARABOLOID)
        kap.append(patch.k[0] if round_ else 0.0)
        k1.append(c1)
        k2.append(c2)
    kind, kap, k1, k2 = (np.repeat(np.array(v), counts) for v in (kind, kap, k1, k2))
    cyl = np.repeat([p.s == SurfaceType.CIRCULAR_CYLINDER for p in patches], counts)
    p, dist = np.empty_like(q), np.empty(len(q))

    at = np.flatnonzero(kind == _ROUND)
    if at.size:
        qr, kr = q[at], kap[at]
        radius = 1.0 / np.abs(kr)
        # nearest center point: the sphere center, or the foot on the axis
        c = np.zeros_like(qr)
        c[:, 2] = 1.0 / kr
        c[:, 0] = np.where(cyl[at], qr[:, 0], 0.0)
        w = qr - c
        rho = np.sqrt(np.sum(w * w, axis=1))
        u = np.zeros_like(qr)
        u[:, 2] = -np.copysign(1.0, kr)
        off = rho > 0.0
        u[off] = w[off] / rho[off, None]
        p[at], dist[at] = c + radius[:, None] * u, np.abs(rho - radius)

    at = np.flatnonzero(kind == _FLAT)
    p[at, :2], p[at, 2], dist[at] = q[at, :2], 0.0, np.abs(q[at, 2])

    at = np.flatnonzero(kind == _PARABOLOID)
    if at.size:
        qp = q[at]
        p[at] = pp = _paraboloid_closest(k1[at], k2[at], qp)
        w = qp - pp
        dist[at] = np.sqrt(np.sum(w * w, axis=1))
    return p, dist


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
    p, d = _closest_rows([patch], [1], np.asarray(q, dtype=float).reshape(1, 3))
    return p[0], float(d[0])


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def residuals(patches: Sequence[Patch], points: Sequence) -> np.ndarray:
    """RMS Euclidean distance of each patch's local-frame points to its unbounded surface.

    points[i] holds the points of patches[i]. Every point of every patch
    is solved in one call of the closest-point kernel, one bracketed root
    of the secular equation per point, with the hard case taken explicitly
    (see closest_point_exact). Each patch needs at least one point, and
    every point must be finite. Taubin's first- and second-order
    distances (Taubin 1991) approximate this distance without bounding it,
    so the gate does not use them.
    """
    pts = [np.asarray(p, dtype=float).reshape(-1, 3) for p in points]
    counts = [len(p) for p in pts]
    if not all(counts):
        raise ValueError("residual needs at least one point")
    q = np.concatenate(pts) if pts else np.empty((0, 3))
    if not np.isfinite(q).all():
        raise ValueError("residual needs finite points")
    d = _closest_rows(patches, counts, q)[1]
    ends = np.cumsum(counts).tolist()
    return np.array([
        math.sqrt(float(np.mean(d[e - c : e] * d[e - c : e]))) for c, e in zip(counts, ends)
    ])


def residual(patch: Patch, points) -> float:
    """RMS Euclidean distance from local-frame points to the unbounded surface.

    The one-patch case of residuals.
    """
    return float(residuals([patch], [points])[0])


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


def _grid(patch: Patch, w: float):
    """Anchor and (nx, ny) cell counts of the coverage grid of side w over
    the patch's boundary bounding box."""
    lo, hi = _boundary_bbox(patch)
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / w - 1e-12)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / w - 1e-12)))
    return lo, nx, ny


def coverage_evals(
    patches: Sequence[Patch], points: Sequence, config: CoverageConfig = CoverageConfig()
) -> List[CoverageReport]:
    """Grid test of how well local-frame points populate each boundary.

    points[i] holds the points of patches[i], one row each, of which only
    the local x and y columns are read. A cell is bad when it holds
    too few in-bounds points for its share of the boundary area or too many
    out-of-bounds points; a patch fails when bad cells outnumber the
    allowed fraction of its area. Points projecting outside their grid are
    ignored. Every grid of the batch sits at its own offset in one count
    array, so one bincount counts the points of all of them; each grid's
    cell areas take one _cell_areas call.
    """
    w = config.w_c
    pts = [np.asarray(p, dtype=float) for p in points]
    grids = [_grid(patch, w) for patch in patches]
    # patch i counts its in-bounds points in cells base_i + [0, nx ny) and
    # its other points in the nx ny cells after those
    base = np.cumsum([0] + [2 * nx * ny for _, nx, ny in grids]).tolist()
    flat = [np.zeros(0, dtype=int)]
    for patch, p, (lo, nx, ny), b in zip(patches, pts, grids, base):
        # cell coordinates as floats, a column at a time; each is an
        # integer, or not finite off the grid
        ix, iy = ((p[:, k] - lo[k]) / w for k in (0, 1))
        np.floor(ix, out=ix)
        np.floor(iy, out=iy)
        ongrid = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        ix *= ny
        ix += iy
        ix += np.where(boundary_contains(patch, p[:, :2]), b, b + nx * ny)
        flat.append(ix[ongrid].astype(int))
    cells = np.bincount(np.concatenate(flat), minlength=base[-1])

    reports = []
    for patch, p, (lo, nx, ny), b in zip(patches, pts, grids, base):
        counts_in, counts_out = cells[b : b + 2 * nx * ny].reshape(2, nx, ny)
        n_p = projected_area(patch) / (w * w)
        n_e = len(p) / n_p
        t_i = config.zeta_i * n_e
        t_o = config.zeta_o * n_e
        t_p = config.t_p_factor * n_p
        frac = _cell_areas(patch.b, patch.d, lo, nx, ny, w) / (w * w)
        bad = (counts_in < frac * t_i) | (counts_out > (1.0 - frac) * t_o)
        bad_cells = tuple(map(tuple, np.argwhere(bad).tolist()))  # ix-major
        reports.append(CoverageReport(
            passed=len(bad_cells) <= t_p,
            bad_cells=bad_cells,
            origin=(float(lo[0]), float(lo[1])),
            shape=(nx, ny),
            w_c=w,
            n_expected=n_e,
            t_i=t_i,
            t_o=t_o,
            t_p=t_p,
        ))
    return reports


def coverage_eval(
    patch: Patch, points, config: CoverageConfig = CoverageConfig()
) -> CoverageReport:
    """Grid test of how well local-frame points populate the boundary.

    The one-patch case of coverage_evals.
    """
    return coverage_evals([patch], [points], config)[0]


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
