"""Post-fit patch validation.

Three independent tests: Euclidean residual against the unbounded surface,
boundary coverage on a local-frame grid, and a curvature gate. Each is a
pure function of a fitted patch and (for the first two) its local-frame
sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from .patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    curvature_k3,
    explicit_eval,
    polygon_area,
    projected_area,
    quad_vertices,
)

__all__ = [
    "ResidualMethod",
    "closest_point_exact",
    "residual",
    "CoverageConfig",
    "CoverageReport",
    "coverage_eval",
    "intersection_area",
    "secant_area_bound",
    "CurvatureGate",
    "curvature_gate",
    "principal_curvatures",
]


class ResidualMethod(Enum):
    EXACT = "exact"
    TAUBIN1 = "taubin1"
    TAUBIN2 = "taubin2"
    VERTICAL = "vertical"


# ---------------------------------------------------------------------------
# Exact closest point
# ---------------------------------------------------------------------------

# route to the companion path when a coordinate sits on a symmetry plane,
# where backsubstitution denominators can vanish
_SYM_TOL = 1e-8
_DEN_TOL = 1e-8
_NEWTON_MAX = 50


def _quintic_coeffs(k1: float, k2: float, q: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the closest-point polynomial in lambda.

    Substituting p(lam) = (I + lam K)^-1 (q + lam z) into the implicit
    form and clearing (1 + lam k1)^2 (1 + lam k2)^2 gives a polynomial of
    degree up to five.
    """
    a, b, c = q[0] * q[0], q[1] * q[1], q[2]
    d1 = np.array([1.0, k1])
    d2 = np.array([1.0, k2])
    d1sq = np.convolve(d1, d1)
    d2sq = np.convolve(d2, d2)
    poly = np.zeros(6)
    poly[: len(d2sq)] += k1 * a * d2sq
    poly[: len(d1sq)] += k2 * b * d1sq
    prod = np.convolve(np.array([c, 1.0]), np.convolve(d1sq, d2sq))
    poly[: len(prod)] -= 2.0 * prod
    return poly


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


def _surface_gap(k1: float, k2: float, p: np.ndarray) -> float:
    return abs(k1 * p[0] * p[0] + k2 * p[1] * p[1] - 2.0 * p[2])


def _companion_closest(k1, k2, q) -> Tuple[np.ndarray, float]:
    coeffs = _quintic_coeffs(k1, k2, q)
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
    scale = 1.0 + abs(k1) * q[0] * q[0] + abs(k2) * q[1] * q[1] + 2.0 * abs(q[2])
    for tol in (1e-10 * scale, 1e-7 * scale):
        onsurf = [p for p in cands if _surface_gap(k1, k2, p) <= tol]
        if onsurf:
            d2 = [float(np.dot(q - p, q - p)) for p in onsurf]
            i = int(np.argmin(d2))
            return onsurf[i], math.sqrt(d2[i])
    # unreachable in practice; the z-axis projection is always feasible
    p = np.array([q[0], q[1], 0.5 * (k1 * q[0] ** 2 + k2 * q[1] ** 2)])
    return p, float(np.linalg.norm(q - p))


def _newton_closest(k1, k2, q):
    """Fast path: Newton from the z-axis projection of q.

    The result is accepted only when I + lam K stays positive definite,
    which certifies the stationary point as the global minimum (the
    Lagrangian is then convex in p). Returns None when uncertified.
    """
    if (k1 != 0.0 and abs(q[0]) <= _SYM_TOL) or (k2 != 0.0 and abs(q[1]) <= _SYM_TOL):
        return None
    coeffs = _quintic_coeffs(k1, k2, q)
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    lam = 0.5 * (k1 * q[0] ** 2 + k2 * q[1] ** 2) - q[2]
    for _ in range(_NEWTON_MAX):
        fp = _polyval(dcoeffs, lam)
        if fp == 0.0 or not math.isfinite(lam) or abs(lam) > 1e8:
            return None
        step = _polyval(coeffs, lam) / fp
        lam -= step
        if abs(step) <= 1e-12 * (1.0 + abs(lam)):
            break
    else:
        return None
    den = (1.0 + lam * k1, 1.0 + lam * k2)
    if den[0] <= 1e-12 or den[1] <= 1e-12:
        return None
    p = np.array([q[0] / den[0], q[1] / den[1], q[2] + lam])
    scale = 1.0 + abs(k1) * q[0] * q[0] + abs(k2) * q[1] * q[1] + 2.0 * abs(q[2])
    if _surface_gap(k1, k2, p) > 1e-9 * scale:
        return None
    return p, float(np.linalg.norm(q - p))


def _closest_paraboloid(k1, k2, q, solver):
    if k1 == 0.0 and k2 == 0.0:
        p = np.array([q[0], q[1], 0.0])
        return p, abs(q[2])
    if solver == "auto":
        hit = _newton_closest(k1, k2, q)
        if hit is not None:
            return hit
    return _companion_closest(k1, k2, q)


def closest_point_exact(patch: Patch, q, solver: str = "auto"):
    """Closest point on the unbounded surface to a local-frame point.

    Paraboloid family members solve the Lagrange stationarity polynomial
    (degree up to five in the multiplier); spheres and circular cylinders
    reduce to center and axis geometry. Returns (point, distance).
    """
    if solver not in ("auto", "companion"):
        raise ValueError("solver must be 'auto' or 'companion'")
    q = np.asarray(q, dtype=float).reshape(3)
    s = patch.s
    if s == SurfaceType.SPHERE and patch.k[0] != 0.0:
        kap = patch.k[0]
        c = np.array([0.0, 0.0, 1.0 / kap])
        radius = 1.0 / abs(kap)
        w = q - c
        rho = float(np.linalg.norm(w))
        u = w / rho if rho > 0.0 else np.array([0.0, 0.0, -math.copysign(1.0, kap)])
        return c + radius * u, abs(rho - radius)
    if s == SurfaceType.CIRCULAR_CYLINDER and patch.k[0] != 0.0:
        kap = patch.k[0]
        w = np.array([0.0, q[1], q[2] - 1.0 / kap])
        radius = 1.0 / abs(kap)
        rho = float(np.linalg.norm(w))
        u = w / rho if rho > 0.0 else np.array([0.0, 0.0, -math.copysign(1.0, kap)])
        p = np.array([q[0], 0.0, 1.0 / kap]) + radius * u
        return p, abs(rho - radius)
    k3 = curvature_k3(patch)
    return _closest_paraboloid(k3[0], k3[1], q, solver)


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def _taubin_terms(patch: Patch, pts: np.ndarray):
    k3 = curvature_k3(patch)
    f = np.abs(pts * pts @ k3 - 2.0 * pts[:, 2])
    gx = k3[0] * pts[:, 0]
    gy = k3[1] * pts[:, 1]
    gz = k3[2] * pts[:, 2] - 1.0
    gnorm = 2.0 * np.sqrt(gx * gx + gy * gy + gz * gz)
    return k3, f, gnorm


def residual(
    patch: Patch,
    points,
    method: ResidualMethod = ResidualMethod.EXACT,
    aggregate: str = "rmse",
    solver: str = "auto",
) -> float:
    """Euclidean deviation between local-frame points and the surface.

    Aggregated as RMSE by default; "max" reports the single worst point
    instead, useful for bounding bumps rather than average misfit.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("residual needs at least one point")
    if aggregate not in ("rmse", "max"):
        raise ValueError("aggregate must be 'rmse' or 'max'")
    if method == ResidualMethod.EXACT:
        d = np.array([closest_point_exact(patch, q, solver=solver)[1] for q in pts])
    elif method == ResidualMethod.TAUBIN1:
        _, f, gnorm = _taubin_terms(patch, pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(f == 0.0, 0.0, f / gnorm)
    elif method == ResidualMethod.TAUBIN2:
        k3, f, gnorm = _taubin_terms(patch, pts)
        f2 = -float(np.linalg.norm(k3))
        if f2 == 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(f == 0.0, 0.0, f / gnorm)
        else:
            # min positive root of F2 d^2 + F1 d + F0 = 0 with F1 = -gnorm;
            # F2 < 0 and F0 >= 0 keep the discriminant nonnegative
            disc = np.sqrt(gnorm * gnorm - 4.0 * f2 * f)
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(f == 0.0, 0.0, 2.0 * f / (gnorm + disc))
    elif method == ResidualMethod.VERTICAL:
        zs = explicit_eval(patch, pts[:, :2], frame="local")[:, 2]
        d = np.abs(pts[:, 2] - zs)
    else:
        raise ValueError(f"unknown residual method: {method}")
    if aggregate == "max":
        return float(np.max(d))
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
    Points projecting outside the grid are ignored.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    w = config.w_c
    lo, hi = _boundary_bbox(patch)
    nx = max(1, int(math.ceil((hi[0] - lo[0]) / w - 1e-12)))
    ny = max(1, int(math.ceil((hi[1] - lo[1]) / w - 1e-12)))
    xy = pts[:, :2]
    ij = np.floor((xy - lo) / w).astype(int)
    ongrid = (ij[:, 0] >= 0) & (ij[:, 0] < nx) & (ij[:, 1] >= 0) & (ij[:, 1] < ny)
    inside = boundary_contains(patch, xy)
    counts_in = np.zeros((nx, ny))
    counts_out = np.zeros((nx, ny))
    sel = ongrid & inside
    np.add.at(counts_in, (ij[sel, 0], ij[sel, 1]), 1.0)
    sel = ongrid & ~inside
    np.add.at(counts_out, (ij[sel, 0], ij[sel, 1]), 1.0)

    n_p = projected_area(patch) / (w * w)
    n_e = len(pts) / n_p
    t_i = config.zeta_i * n_e
    t_o = config.zeta_o * n_e
    t_p = config.t_p_factor * n_p
    w2 = w * w
    bad: List[Tuple[int, int]] = []
    for ix in range(nx):
        for iy in range(ny):
            a_i = intersection_area(
                patch.b, patch.d, (lo[0] + ix * w, lo[1] + iy * w), w
            )
            frac = a_i / w2
            if counts_in[ix, iy] < frac * t_i or counts_out[ix, iy] > (1.0 - frac) * t_o:
                bad.append((ix, iy))
    return CoverageReport(
        passed=len(bad) <= t_p,
        bad_cells=tuple(bad),
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


def _ellipse_quadrant_cell(a, b, x0, y0, wx, wy) -> float:
    """Secant approximation on a cell in the first quadrant (x0, y0 >= 0)."""

    def inside(x, y):
        return (x / a) ** 2 + (y / b) ** 2 <= 1.0

    def fx(y):
        return a * math.sqrt(max(0.0, 1.0 - (y / b) ** 2))

    def fy(x):
        return b * math.sqrt(max(0.0, 1.0 - (x / a) ** 2))

    xc, yc = x0 + wx, y0 + wy
    if inside(xc, yc):
        return wx * wy
    if not inside(x0, y0):
        return 0.0
    p1, p3 = inside(xc, y0), inside(x0, yc)
    if p1 and p3:
        # arc leaves via the top and right edges; full strip plus trapezoid
        xb = fx(yc)
        return (xb - x0) * wy + (xc - xb) * ((fy(xc) - y0) + (yc - fy(xc)) / 2.0)
    if p1:
        return (xc - x0) * ((fy(x0) - y0) + (fy(xc) - y0)) / 2.0
    if p3:
        return (yc - y0) * ((fx(y0) - x0) + (fx(yc) - x0)) / 2.0
    return (fx(y0) - x0) * (fy(x0) - y0) / 2.0


def _split_at_zero(lo: float, hi: float):
    """Intervals of [lo, hi] per sign half-axis, reflected to >= 0."""
    out = []
    if hi > 0.0:
        out.append((max(lo, 0.0), hi))
    if lo < 0.0:
        out.append((max(-hi, 0.0), -lo))
    return out


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a CCW convex polygon."""
    out = [tuple(p) for p in subject]
    for i in range(len(clip)):
        if not out:
            break
        a, bpt = clip[i], clip[(i + 1) % len(clip)]
        ex, ey = bpt[0] - a[0], bpt[1] - a[1]

        def side(p):
            return ex * (p[1] - a[1]) - ey * (p[0] - a[0])

        inp, out = out, []
        for j in range(len(inp)):
            s, e = inp[j], inp[(j + 1) % len(inp)]
            ss, se = side(s), side(e)
            if ss >= 0.0:
                out.append(s)
            if (ss >= 0.0) != (se >= 0.0):
                t = ss / (ss - se)
                out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
    return np.asarray(out, dtype=float).reshape(-1, 2)


def intersection_area(boundary: BoundaryType, d, cell_origin, w_c: float) -> float:
    """Overlap area between one grid cell and the projected boundary.

    Exact for rectangles and convex quads; ellipses and circles use a
    secant approximation of the arc inside each cell (a one-sided
    underestimate bounded by secant_area_bound).
    """
    d = np.asarray(d, dtype=float)
    x0, y0 = float(cell_origin[0]), float(cell_origin[1])
    if boundary == BoundaryType.AARECT:
        ox = max(0.0, min(x0 + w_c, d[0]) - max(x0, -d[0]))
        oy = max(0.0, min(y0 + w_c, d[1]) - max(y0, -d[1]))
        total = ox * oy
    elif boundary == BoundaryType.CQUAD:
        cell = np.array(
            [[x0, y0], [x0 + w_c, y0], [x0 + w_c, y0 + w_c], [x0, y0 + w_c]]
        )
        total = polygon_area(_clip_convex(cell, quad_vertices(d)))
    else:
        a, b = (d[0], d[0]) if boundary == BoundaryType.CIRCLE else (d[0], d[1])
        total = 0.0
        for xa, xb in _split_at_zero(x0, x0 + w_c):
            for ya, yb in _split_at_zero(y0, y0 + w_c):
                if xb - xa > 0.0 and yb - ya > 0.0:
                    total += _ellipse_quadrant_cell(a, b, xa, ya, xb - xa, yb - ya)
    # clamp roundoff in both directions: exact corner tangency can leave a
    # ~1e-30 sliver the strict bad-cell rule would demand points in, and a
    # full cell summed from quadrant parts can exceed w_c^2 by an ulp
    if total < 1e-12 * w_c * w_c:
        return 0.0
    return min(total, w_c * w_c)


def secant_area_bound(d, w_c: float) -> float:
    """Worst-case per-cell underestimate of the ellipse secant areas.

    The area between a convex arc and its chord is at most the circular
    segment at the boundary's maximum curvature over the cell diagonal.
    """
    d = np.asarray(d, dtype=float)
    a, b = (d[0], d[0]) if len(d) == 1 else (d[0], d[1])
    radius = 1.0 / max(a / (b * b), b / (a * a))
    chord = math.sqrt(2.0) * w_c
    if chord >= 2.0 * radius:
        seg = 0.5 * math.pi * radius * radius
    else:
        th = 2.0 * math.asin(chord / (2.0 * radius))
        seg = 0.5 * radius * radius * (th - math.sin(th))
    return min(seg, w_c * w_c)


# ---------------------------------------------------------------------------
# Curvature gate
# ---------------------------------------------------------------------------


def principal_curvatures(patch: Patch) -> np.ndarray:
    """Principal curvatures at the patch origin, as a pair."""
    return curvature_k3(patch)[:2]


@dataclass(frozen=True)
class CurvatureGate:
    kappa_min: float = -30.0
    kappa_max: float = 30.0

    def __post_init__(self):
        if not self.kappa_min <= self.kappa_max:
            raise ValueError("kappa_min must not exceed kappa_max")


def curvature_gate(patch: Patch, gate: CurvatureGate = CurvatureGate()) -> bool:
    """Pass iff both principal curvatures lie in the closed gate interval."""
    k = principal_curvatures(patch)
    return bool(gate.kappa_min <= k.min() and k.max() <= gate.kappa_max)
