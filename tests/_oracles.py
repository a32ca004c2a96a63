"""Shared finite-difference and Monte-Carlo oracle helpers for the tests.

Every closed-form Jacobian in the package is checked against one of these
independent references before its value is trusted anywhere else. The
surface evaluators (implicit_eval, explicit_eval) and secant_area_bound
make test points and error bounds; the pipeline itself needs neither.
tensor_model and tensor_normalized_residual are the fit's residual in its
direct form, with the per-point second-derivative tensor, and
tensor_moment_joint_sigma is its moment covariance with the per-point
(5, 3) moment Jacobian; all three take row-major (n, 3) points and
(n, 3, 3) covariances, where the fit works on (3, n) and (3, 3, n).
loop_median_decimate picks each block's median member with a stable
Python sort, one block at a time, where the pipeline ranks the members of
every block by comparing member planes.
kdtree_neighborhood and connected_ball_neighborhood search the whole frame
for the neighborhoods the pipeline finds in the seed's window, and
loop_mesh_triangles tests one grid triangle at a time in Python floats,
where the pipeline takes each family of grid edges in one array pass.
eigh_integral_normals and dense_saliency solve normals and saliency at
every pixel, where the pipeline tests only the pixels its seed walk
visits. cumsum_moment_integral builds the (10, H + 1, W + 1) moment
image with two np.cumsum calls, where the pipeline builds it column-major,
each pixel's ten sums side by side, in blocks of image rows. cell_intersection_area and loop_coverage_eval compute coverage
one cell at a time in scalar Python, where the pipeline takes the whole
grid in one array pass. companion_closest_paraboloid finds a closest point
from every real root of the closest-point quintic, one point at a time,
where the pipeline brackets the one root of the secular equation that is
the global minimum for all points at once. loop_map_step runs a frame's
seeds one at a time (neighborhood, fit_sample, fit_patch, gate_patch,
admit) under budgets checked before every seed, where the pipeline fits
and gates all seeds of a frame in one batched pass each.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.spatial import cKDTree

from patchscape import mapping as pm
from patchscape import pose as ps
from patchscape.fit import MIN_FIT_POINTS, fit_patch
from patchscape.mapping import MapBudgets, MapConfig, MapPatch, MapStepResult, Neighborhood, mesh_triangles
from patchscape.patch import (
    BoundaryType,
    SurfaceType,
    boundary_contains,
    curvature_k3,
    patch_frame,
    polygon_area,
    projected_area,
    quad_vertices,
)
from patchscape.sensor import COV_UPPER
from patchscape.validate import CoverageReport, _boundary_bbox


def central_diff_jac(f, x, h=1e-6):
    """Central-difference Jacobian of f: R^n -> R^m, shape (m, n).

    f must accept a 1-D ndarray and return an ndarray (any shape; the
    output is flattened).
    """
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(f(x), dtype=float).ravel()
    J = np.empty((y0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        yp = np.asarray(f(x + dx), dtype=float).ravel()
        ym = np.asarray(f(x - dx), dtype=float).ravel()
        J[:, i] = (yp - ym) / (2.0 * h)
    return J


def rel_err(approx, exact, floor=1e-8):
    """Max elementwise error of approx vs exact, relative to exact's scale."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(float(np.max(np.abs(exact))), floor)
    return float(np.max(np.abs(approx - exact))) / scale


def random_rotvec(rng, lo=1e-3, hi=np.pi - 1e-3):
    """Random canonical rotation vector with angle in [lo, hi]."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(lo, hi)


def brute_closest_paraboloid(k1, k2, q, n=600):
    """Dense-grid + simplex-refined distance from q to z = (k1 x^2 + k2 y^2)/2.

    Any surface point beating the z-axis projection lies within that
    projection's distance of q, which bounds the search box.
    """
    from scipy.optimize import minimize

    q = np.asarray(q, dtype=float)
    d0 = abs(0.5 * (k1 * q[0] ** 2 + k2 * q[1] ** 2) - q[2])
    d0 = max(d0, 1e-6)
    xs = np.linspace(q[0] - d0, q[0] + d0, n)
    ys = np.linspace(q[1] - d0, q[1] + d0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = 0.5 * (k1 * X * X + k2 * Y * Y)
    D2 = (X - q[0]) ** 2 + (Y - q[1]) ** 2 + (Z - q[2]) ** 2
    i, j = np.unravel_index(np.argmin(D2), D2.shape)

    def obj(u):
        z = 0.5 * (k1 * u[0] ** 2 + k2 * u[1] ** 2)
        return (u[0] - q[0]) ** 2 + (u[1] - q[1]) ** 2 + (z - q[2]) ** 2

    res = minimize(
        obj,
        np.array([X[i, j], Y[i, j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-18, "maxiter": 4000},
    )
    return float(np.sqrt(min(res.fun, D2[i, j])))


# a coordinate this close to a symmetry plane also tries the pole branch,
# and a denominator this small marks a multiplier at a pole
_SYM_TOL = 1e-8
_DEN_TOL = 1e-8


def _quintic_coeffs(k1, k2, q):
    """Ascending coefficients of the closest-point polynomial in lam.

    Substituting p(lam) = (I + lam K)^-1 (q + lam z) into the implicit form
    and clearing (1 + lam k1)^2 (1 + lam k2)^2 = (1 + s lam + p lam^2)^2,
    with s = k1 + k2 and p = k1 k2, gives a polynomial of degree up to five.
    """
    a, b, c = q[0] * q[0], q[1] * q[1], q[2]
    s, p = k1 + k2, k1 * k2
    e1, e2, e3, e4 = 2.0 * s, s * s + 2.0 * p, 2.0 * s * p, p * p
    return np.array([
        k1 * a + k2 * b - 2.0 * c,
        2.0 * p * (a + b) - 2.0 * (c * e1 + 1.0),
        p * (k2 * a + k1 * b) - 2.0 * (c * e2 + e1),
        -2.0 * (c * e3 + e2),
        -2.0 * (c * e4 + e3),
        -2.0 * e4,
    ])


def _polish_secular(k1, k2, q, lam):
    """Newton steps on phi(lam) = sum_i k_i q_i^2 / (2 (1 + lam k_i)^2) - q_z - lam.

    The secular equation keeps its digits where the cleared quintic loses
    them to a nearby cluster of roots at a pole.
    """
    for _ in range(8):
        d1, d2 = 1.0 + lam * k1, 1.0 + lam * k2
        with np.errstate(all="ignore"):
            phi = 0.5 * (k1 * q[0] ** 2 / d1**2 + k2 * q[1] ** 2 / d2**2) - q[2] - lam
            step = phi / (-1.0 - (k1 * k1 * q[0] ** 2 / d1**3 + k2 * k2 * q[1] ** 2 / d2**3))
        if not np.isfinite(step):
            break
        lam -= step
        if abs(step) <= 1e-15 * (1.0 + abs(lam)):
            break
    return lam


def _backsub(k1, k2, q, lam):
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


def companion_closest_paraboloid(k1, k2, q):
    """Closest point on z = (k1 x^2 + k2 y^2) / 2 to q and its distance, one
    point at a time from every real root of the closest-point quintic.

    The companion-matrix roots of the quintic are polished on the secular
    equation and back-substituted; a point on a symmetry plane also tries
    the exact pole branch, which the companion eigenvalues smear. The
    nearest candidate on the surface wins.

    Limit: next to a pole it is no 1e-12 reference. It polishes and
    back-substitutes in lambda, where 1 + lambda k_b loses digits, so a
    point a small |q_b| off a curved axis's symmetry plane comes out up to
    ~4e-11 relative off (seen at |q_b| = 1e-6; below _SYM_TOL the exact
    pole branch takes over). Near-pole rows are checked against
    brute_closest_paraboloid instead.
    """
    q = np.asarray(q, dtype=float)
    coeffs = _quintic_coeffs(k1, k2, q)
    desc = np.trim_zeros(coeffs[::-1], "f")
    cands = []
    if len(desc) >= 2:
        roots = np.roots(desc)
        keep = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))
        for lam in roots[keep].real:
            cands.extend(_backsub(k1, k2, q, _polish_secular(k1, k2, q, lam)))
    for m, km in ((0, k1), (1, k2)):
        if km != 0.0 and abs(q[m]) <= _SYM_TOL:
            cands.extend(_backsub(k1, k2, q, -1.0 / km))
    scale = 1.0 + abs(k1) * q[0] ** 2 + abs(k2) * q[1] ** 2 + 2.0 * abs(q[2])
    for tol in (1e-10 * scale, 1e-7 * scale):
        onsurf = [p for p in cands if abs(k1 * p[0] ** 2 + k2 * p[1] ** 2 - 2.0 * p[2]) <= tol]
        if onsurf:
            p = onsurf[int(np.argmin([np.dot(q - p, q - p) for p in onsurf]))]
            return p, float(np.linalg.norm(q - p))
    raise AssertionError(f"no candidate on the surface for q = {q.tolist()}")


def mc_region_area(contains, lo, hi, n, rng):
    """Monte-Carlo area of {contains} inside the box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    u = lo + (hi - lo) * rng.random((n, 2))
    frac = float(np.count_nonzero(contains(u))) / n
    return frac * float(np.prod(hi - lo))


def cumsum_moment_integral(points, valid):
    """(10, H + 1, W + 1) zero-padded running sums of [1, p, upper(p p^T)].

    The direct form of patchscape.mapping._moment_integral: the same
    moment planes, summed by np.cumsum over the rows and then the columns.
    """
    h, w = valid.shape
    ii = np.zeros((10, h + 1, w + 1))
    m = ii[:, 1:, 1:]
    m[0] = valid
    for c in range(3):
        np.copyto(m[1 + c], points[..., c], where=valid)
    for c, (i, j) in enumerate(COV_UPPER):
        np.multiply(m[1 + i], m[1 + j], out=m[4 + c])
    np.cumsum(ii, axis=1, out=ii)
    np.cumsum(ii, axis=2, out=ii)
    return ii


def eigh_integral_normals(cloud, r, f=None, min_support=6):
    """Two-scale integral-image normals by batched LAPACK eigh at every pixel.

    The dense form of patchscape.mapping.integral_normals: one set of
    integral images per scale, a full-frame window covariance, and the
    smallest-eigenvalue eigenvector from np.linalg.eigh. Same window
    sizes, support rule and camera-facing orientation.
    """
    points = cloud.points
    valid = cloud.valid_mask
    h, w = valid.shape
    fpx = float(f) if f is not None else cloud.intrinsics.fx
    z = points[..., 2]
    # a window of 4 max(H, W) px already clips to the whole frame at either
    # scale; an uncapped inf would wrap around in the int cast
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        wpx = np.minimum(np.where(valid & (z > 0.0), 2.0 * r * fpx / z, 0.0), 4 * max(h, w))

    def integral(img):
        out = np.zeros((h + 1, w + 1) + img.shape[2:])
        out[1:, 1:] = np.cumsum(np.cumsum(img, axis=0), axis=1)
        return out

    p0 = np.where(valid[..., None], points, 0.0)
    i_cnt = integral(valid.astype(float))
    i_s1 = integral(p0)
    i_s2 = integral(np.einsum("hwi,hwj->hwij", p0, p0).reshape(h, w, 9))
    vi = np.arange(h)[:, None]
    ui = np.arange(w)[None, :]
    out = []
    for half in (np.maximum((wpx / 2.0).astype(int), 1), np.maximum((wpx / 4.0).astype(int), 1)):
        lo_v, hi_v = np.clip(vi - half, 0, h), np.clip(vi + half + 1, 0, h)
        lo_u, hi_u = np.clip(ui - half, 0, w), np.clip(ui + half + 1, 0, w)

        def box(ii):
            return ii[hi_v, hi_u] - ii[lo_v, hi_u] - ii[hi_v, lo_u] + ii[lo_v, lo_u]

        cnt = box(i_cnt)
        good = cnt >= min_support
        cnt_safe = np.where(good, cnt, 1.0)
        mu = box(i_s1) / cnt_safe[..., None]
        cov = box(i_s2).reshape(h, w, 3, 3) / cnt_safe[..., None, None]
        cov = cov - np.einsum("hwi,hwj->hwij", mu, mu)
        n = np.linalg.eigh(cov)[1][..., 0]
        n = np.where((np.einsum("hwi,hwi->hw", n, mu) > 0.0)[..., None], -n, n)
        n[~(good & valid)] = np.nan
        out.append(n)
    return out[0], out[1]


def dense_saliency(cloud, normals, g, cfg):
    """Boolean mask of DtFP, DoN and DoNG over normals solved at every pixel.

    The dense form of patchscape.mapping.saliency_filter: all three tests
    run over the whole frame on full (N, N_s) images, such as those of
    eigh_integral_normals or of integral_normals asked at every pixel.
    """
    import math

    from patchscape.mapping import fixation_point

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


def loop_median_decimate(cloud, factor):
    """median_decimate one block at a time: (points, cov, source).

    Each block's members, in row-major block order, are stably sorted by
    depth with every non-finite depth as +inf, and the member at position
    (n - 1) // 2 of the n finite ones is picked; a block with none picks
    its first member and keeps NaN. cov is None when the cloud has none.
    """
    h2, w2 = (s // factor for s in cloud.points.shape[:2])
    pts = np.full((h2, w2, 3), np.nan)
    cov = None if cloud.cov is None else np.full((h2, w2, 6), np.nan)
    source = np.zeros((h2, w2, 2), dtype=int)
    for i in range(h2):
        for j in range(w2):
            members = [(i * factor + a, j * factor + b) for a in range(factor) for b in range(factor)]
            z = [float(cloud.points[px][2]) for px in members]
            key = [d if math.isfinite(d) else math.inf for d in z]
            n = sum(math.isfinite(d) for d in z)
            pick = members[sorted(range(len(members)), key=key.__getitem__)[max(n - 1, 0) // 2]]
            source[i, j] = pick
            if n:
                pts[i, j] = cloud.points[pick]
                if cov is not None:
                    cov[i, j] = cloud.cov[pick]
    return pts, cov, source


def _at_pixels(cloud, sel):
    cvs = cloud.cov[sel[:, 0], sel[:, 1]] if cloud.cov is not None else None
    return Neighborhood(points=cloud.points[sel[:, 0], sel[:, 1]], covs=cvs, pixels=sel)


def kdtree_neighborhood(cloud, seed, r):
    """Every valid point within Euclidean distance r of the seed pixel's point.

    The direct form of the BACKPROJECTION neighborhood: one k-d tree over
    all valid points of the frame, hits in row-major pixel order.
    """
    h, w = cloud.valid_mask.shape
    flat_idx = np.flatnonzero(cloud.valid_mask.ravel())
    tree = cKDTree(cloud.points.reshape(-1, 3)[flat_idx])
    hits = np.asarray(tree.query_ball_point(cloud.points[tuple(seed)], r), dtype=int)
    return _at_pixels(cloud, np.stack(np.unravel_index(flat_idx[np.sort(hits)], (h, w)), axis=1))


def whole_frame_mesh_edges(cloud, index):
    """(E, 2) flat pixel ids of the mesh_triangles edges over the whole frame.

    Each undirected edge is stored once, as (lower id, higher id).
    """
    tri = mesh_triangles(cloud.points, index)
    return np.unique(np.sort(tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)


def loop_mesh_triangles(points, index):
    """mesh_triangles as one Python loop over triangles, in Python floats.

    Per 2x2 block in row-major order, the upper (tl, tr, bl) and the lower
    (tr, bl, br) triangle; all uppers come first. A triangle is kept when
    each of its edges joins two finite depths at most index.t_jump apart,
    and every side is at most index.t_es, positive, and at most index.t_ar
    times every other side. A NaN side fails every comparison.
    """
    h, w = points.shape[:2]
    p = points.reshape(-1, 3).tolist()

    def side(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(p[a], p[b])))

    def kept(tri):
        edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
        if not all(math.isfinite(p[a][2]) and math.isfinite(p[b][2])
                   and abs(p[a][2] - p[b][2]) <= index.t_jump for a, b in edges):
            return False
        sides = [side(a, b) for a, b in edges]
        return all(s <= index.t_es and s > 0.0 for s in sides) and all(
            s <= index.t_ar * o for s in sides for o in sides)

    blocks = [(i * w + j, i * w + j + 1, (i + 1) * w + j, (i + 1) * w + j + 1)
              for i in range(h - 1) for j in range(w - 1)]
    upper = [(tl, tr, bl) for tl, tr, bl, _ in blocks]
    lower = [(tr, bl, br) for _, tr, bl, br in blocks]
    return np.array([tri for tri in upper + lower if kept(tri)], dtype=int).reshape(-1, 3)


def connected_ball_neighborhood(cloud, edges, seed, r):
    """The seed's connected part of the Euclidean r-ball on a whole-frame mesh.

    The direct form of the TRIANGLE_MESH neighborhood: every valid point
    within r of the seed pixel's point, kept when a breadth-first search
    from the seed over the whole_frame_mesh_edges between two such points
    reaches it, hits in row-major order.
    """
    h, w = cloud.valid_mask.shape
    with np.errstate(invalid="ignore"):
        inball = (np.linalg.norm(cloud.points - cloud.points[tuple(seed)], axis=-1) <= r).ravel()
    a, b = edges[inball[edges].all(axis=1)].T
    graph = sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(h * w, h * w)).tocsr()
    reached = breadth_first_order(graph, seed[0] * w + seed[1], directed=False, return_predecessors=False)
    return _at_pixels(cloud, np.stack(np.unravel_index(np.sort(reached), (h, w)), axis=1))


def loop_write_cloud(path, cloud, noise=None):
    """OPC1 text writer, one Python format call per value and one line per record.

    OPC1 is the text cloud format that OPC2 replaced: the same header
    under magic "OPC1", then one "%.17g" record per row, or "nan" under
    the rules by which patchscape.cli.write_cloud writes an all-NaN row.
    With loop_read_body it is the text round trip that the binary one
    must match bit for bit. patchscape.cli.read_cloud rejects its files.
    """
    from patchscape.cli import _g17, _noise_tag

    intr = cloud.intrinsics
    lines = [
        f"OPC1 {intr.width} {intr.height}",
        "intrinsics "
        + " ".join(_g17(v) for v in (intr.fx, intr.fy, intr.cx, intr.cy, intr.baseline)),
        "noise " + _noise_tag(noise),
        f"cov {int(cloud.cov is not None)}",
    ]
    pts = cloud.points.reshape(-1, 3)
    ok = np.isfinite(pts).all(axis=1)
    for p, good in zip(pts, ok):
        lines.append(" ".join(_g17(v) for v in p) if good else "nan")
    if cloud.cov is not None:
        cvs = cloud.cov.reshape(-1, 6)
        for c, good in zip(cvs, ok):
            if good and np.isfinite(c).all():
                lines.append(" ".join(_g17(v) for v in c))
            else:
                lines.append("nan")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def loop_read_body(path):
    """(points, packed cov or None) of a well-formed OPC1 file, parsed record by record.

    Each value goes through float(), and a "nan" record leaves its row NaN.
    """
    with open(path) as f:
        lines = [ln.strip() for ln in f]
    w, h = (int(v) for v in lines[0].split()[1:3])
    has_cov = bool(int(lines[3].split()[1]))
    n = w * h
    body = [ln for ln in lines[4:] if ln]
    pts = np.full((n, 3), np.nan)
    for i, ln in enumerate(body[:n]):
        if ln != "nan":
            pts[i] = [float(t) for t in ln.split()]
    cov = None
    if has_cov:
        cov = np.full((n, 6), np.nan)
        for i, ln in enumerate(body[n:]):
            if ln != "nan":
                cov[i] = [float(t) for t in ln.split()]
        cov = cov.reshape(h, w, 6)
    return pts.reshape(h, w, 3), cov


class DomainError(ValueError):
    """Evaluation outside a sphere's or cylinder's reachable extent."""


def implicit_eval(patch, q, frame="world"):
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


def explicit_eval(patch, u, frame="world"):
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


def secant_area_bound(d, w_c):
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


def tensor_model(k3_map, rot_dof, t_line=None):
    """The fit's implicit model, building H = d2f/dq dp per point.

    f(q; p) = ql^T K ql - 2 ql_z with ql = R^T (q - t), p packing
    [k, r, t] (or [k, r, a] on the side-wall line t_line = (t0, n)).
    Returns model(points, p) -> (f, df/dp, df/dq, H), H of shape
    (n, 3, npar).
    """
    nk = k3_map.shape[1]
    if t_line is not None:
        t_base = np.asarray(t_line[0], dtype=float).reshape(3)
        t_dir = np.asarray(t_line[1], dtype=float).reshape(3)
        t_dir = t_dir / np.linalg.norm(t_dir)
        nt = 1
    else:
        nt = 3
    npar = nk + rot_dof + nt

    def model(points, p):
        k3 = k3_map @ p[:nk] if nk else np.zeros(3)
        r3 = np.zeros(3)
        r3[:rot_dof] = p[nk : nk + rot_dof]
        t = t_base + p[-1] * t_dir if nt == 1 else p[nk + rot_dof :]
        R = ps.exp_map(r3)
        dR = ps.jac_exp(r3)
        d = points - t
        ql = d @ R
        kql = ql * k3
        f = np.einsum("ni,ni->n", ql, kql) - 2.0 * ql[:, 2]
        dfdql = 2.0 * kql
        dfdql[:, 2] -= 2.0
        g = dfdql @ R.T

        n = len(points)
        Jp = np.empty((n, npar))
        H = np.empty((n, 3, npar))
        for b in range(nk):
            kb = k3_map[:, b]
            Jp[:, b] = (ql * ql) @ kb
            H[:, :, b] = 2.0 * (ql * kb) @ R.T
        for m in range(rot_dof):
            dql = d @ dR[m]
            Jp[:, nk + m] = np.einsum("ni,ni->n", dfdql, dql)
            H[:, :, nk + m] = dfdql @ dR[m].T + 2.0 * (dql * k3) @ R.T
        dgdt = -2.0 * (R * k3) @ R.T
        if nt == 1:
            Jp[:, -1] = -(g @ t_dir)
            H[:, :, -1] = (dgdt @ t_dir)[None, :]
        else:
            Jp[:, nk + rot_dof :] = -g
            H[:, :, nk + rot_dof :] = np.broadcast_to(dgdt, (n, 3, 3))
        return f, Jp, g, H

    return model


def tensor_normalized_residual(model, points, covs, p, v_min):
    """(F, dF/dp) of F = f / sqrt(max(g^T Sigma g, v_min)) from a tensor_model."""
    f, Jp, g, H = model(points, p)
    cg = np.einsum("nij,nj->ni", covs, g)
    v = np.maximum(np.einsum("ni,ni->n", g, cg), v_min)
    s = np.sqrt(v)
    F = f / s
    gSH = np.einsum("ni,nip->np", cg, H)
    J = Jp / s[:, None] - (f / (s * v))[:, None] * gSH
    return F, J


def tensor_moment_joint_sigma(points, covs, R, t, dR_cols, sigma_state, nk):
    """The fit's joint covariance of (moments, state), building the (n, 5, 3)
    derivative of each point's moment terms in the local frame.

    points (n, 3), covs (n, 3, 3); the moments are the means of x, y, x^2,
    y^2 and xy of the points in the frame (R, t), and the state is (k, r,
    t) with covariance sigma_state, dR_cols the derivatives of R in r.
    """
    n = len(points)
    d = points - t
    ql = d @ R
    x, y = ql[:, 0], ql[:, 1]
    M = np.zeros((n, 5, 3))
    M[:, 0, 0] = 1.0
    M[:, 1, 1] = 1.0
    M[:, 2, 0] = 2.0 * x
    M[:, 3, 1] = 2.0 * y
    M[:, 4, 0] = y
    M[:, 4, 1] = x
    B = M @ R.T  # d m_i / d q_i, up to 1/n
    sigma_m = np.tensordot(B @ covs, B, axes=([0, 2], [0, 2])) / n**2

    # d m / d(k, r, t): r moves ql by d @ dR_j, t by -R^T
    A_r = np.column_stack([np.einsum("nab,nb->a", M, d @ dRj) for dRj in dR_cols]) / n
    A = np.hstack([np.zeros((5, nk)), A_r, -B.mean(axis=0)])

    cross = A @ sigma_state
    top = sigma_m + cross @ A.T
    return np.block([[top, cross], [cross.T, sigma_state]])


def ellipse_quadrant_cell(a, b, x0, y0, wx, wy) -> float:
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


def split_at_zero(lo: float, hi: float):
    """Intervals of [lo, hi] per sign half-axis, reflected to >= 0."""
    out = []
    if hi > 0.0:
        out.append((max(lo, 0.0), hi))
    if lo < 0.0:
        out.append((max(-hi, 0.0), -lo))
    return out


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
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


def cell_intersection_area(boundary, d, cell_origin, w_c: float) -> float:
    """Overlap area between one grid cell and the projected boundary, in
    scalar Python: quadrant pieces of the secant rule for ellipses and
    circles, a polygon clip for convex quads."""
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
        # shoelace about the cell corner: in absolute coordinates its two
        # sums cancel, and their summation order moves the area by ~1e-14 w_c^2
        total = polygon_area(clip_convex(cell, quad_vertices(d)) - (x0, y0))
    else:
        a, b = (d[0], d[0]) if boundary == BoundaryType.CIRCLE else (d[0], d[1])
        total = 0.0
        for xa, xb in split_at_zero(x0, x0 + w_c):
            for ya, yb in split_at_zero(y0, y0 + w_c):
                if xb - xa > 0.0 and yb - ya > 0.0:
                    total += ellipse_quadrant_cell(a, b, xa, ya, xb - xa, yb - ya)
    if total < 1e-12 * w_c * w_c:
        return 0.0
    return min(total, w_c * w_c)


def loop_coverage_eval(patch, points, config) -> CoverageReport:
    """coverage_eval with np.add.at counts and one cell_intersection_area
    call per cell, bad cells collected in ix-major order."""
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
    bad = []
    for ix in range(nx):
        for iy in range(ny):
            a_i = cell_intersection_area(patch.b, patch.d, (lo[0] + ix * w, lo[1] + iy * w), w)
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


def loop_map_step(state, cloud, g, budgets=MapBudgets(), config=MapConfig(), rng_seed=None):
    """map_step with its seeds run one at a time, without timings.

    Saliency and seeding are map_step's own. Then, before each seed, every
    budget cap is checked, the wall clock included; the seed takes its
    neighborhood, its fit sample, fit_patch and gate_patch, and is dropped
    or admitted before the next seed starts.
    """
    t_start = time.monotonic()
    state.frame_index += 1
    result = MapStepResult(
        admitted=[], n_seeds=0, n_attempts=0, drops={k: 0 for k in pm._DROP_REASONS}
    )
    cfg = config.saliency
    gv = pm._unit_vector(g, "gravity")
    sal_cloud, source = (
        pm.median_decimate(cloud, config.decimate) if config.decimate > 1 else (cloud, None)
    )
    ii = pm._moment_integral(sal_cloud.points, sal_cloud.valid_mask)
    near = pm._near_fixation(sal_cloud.points, gv, cfg)
    seeds = pm.select_seeds(
        sal_cloud, near, lambda v, u: pm.saliency_filter(sal_cloud, ii, gv, cfg, v, u), state,
        rng_seed=rng_seed,
    )
    result.n_seeds = len(seeds)
    rng = np.random.default_rng(rng_seed)
    area_sum = sum(projected_area(mp.patch) for mp in state.patches)
    for pos, seed in enumerate(seeds):
        if (
            (budgets.n_s is not None and len(state.patches) >= budgets.n_s)
            or (budgets.work_units is not None and result.n_attempts >= budgets.work_units)
            or (budgets.wall_clock_s is not None
                and time.monotonic() - t_start > budgets.wall_clock_s)
            or (budgets.area_target is not None and area_sum >= budgets.area_target)
        ):
            result.drops["budget"] += len(seeds) - pos
            break
        seed_pixel = seed.pixel if source is None else tuple(source[seed.pixel].tolist())
        nb = pm.neighborhood(config.neighborhood, cloud, seed_pixel, cfg.r)
        if len(nb.points) < MIN_FIT_POINTS:
            result.drops["too_few_points"] += 1
            continue
        fit_pts, fit_cvs = pm.fit_sample(nb, config.n_f, rng)
        result.n_attempts += 1
        try:
            fit = fit_patch(fit_pts, fit_cvs, surface=config.surface, gamma=config.gamma)
        except (ValueError, np.linalg.LinAlgError):
            result.drops["fit_failed"] += 1
            continue
        record = pm.gate_patch(fit.patch, fit_pts, nb.points, config)
        if record.failed is not None:
            result.drops[record.failed] += 1
            continue
        patch_vol, _ = pm.transform_patch(fit.patch, state.c_t)
        mp = MapPatch(
            id=state.next_id,
            patch=patch_vol,
            cell=seed.cell,
            seed_pixel=seed_pixel,
            seed_point=ps.xform_fwd(seed.point, state.c_t.r, state.c_t.t),
            frame_index=state.frame_index,
            validation=record,
        )
        state.next_id += 1
        state.patches.append(mp)
        area_sum += projected_area(fit.patch)
        result.admitted.append(mp)
    return result
