"""Validation tests.

Closest points are checked against a dense-grid brute force and the
companion-matrix oracle, intersection areas against Monte-Carlo point
sampling, and the coverage rules against directly constructed cell
populations. The grid kernels are checked against their scalar per-cell
oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    boundary_contains,
    curvature_k3,
    quad_vertices,
)
from patchscape.mapping import SaliencyConfig
from patchscape.pose import Pose5, Pose6
from patchscape.validate import (
    CoverageConfig,
    _boundary_bbox,
    _cell_areas,
    _closest_points,
    _closest_rows,
    _half_axis,
    closest_point_exact,
    coverage_eval,
    coverage_evals,
    curvature_gate,
    principal_curvatures,
    residual,
    residuals,
)

from _oracles import (
    brute_closest_paraboloid,
    cell_intersection_area,
    companion_closest_paraboloid,
    explicit_eval,
    loop_coverage_eval,
    mc_region_area,
    secant_area_bound,
)


def _one_cell_area(boundary, d, cell_origin, w_c):
    """Overlap area of one grid cell with the boundary: the one-cell grid kernel."""
    return _cell_areas(boundary, d, cell_origin, 1, 1, w_c)[0, 0]


S, B = SurfaceType, BoundaryType
_ID5 = Pose5((0.0, 0.0), (0.0, 0.0, 0.0))
_ID6 = Pose6((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _parab(kx, ky):
    if kx == ky:
        return Patch(S.CIRCULAR_PARABOLOID, B.CIRCLE, [kx], [0.3], _ID5)
    if kx == 0.0:
        return Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, [ky], [0.3, 0.3], _ID6)
    s = S.ELLIPTIC_PARABOLOID if kx * ky > 0 else S.HYPERBOLIC_PARABOLOID
    return Patch(s, B.ELLIPSE, [kx, ky], [0.3, 0.2], _ID6)


_PLANE_CIRCLE = Patch(S.PLANE, B.CIRCLE, [], [0.1], _ID5)


# ---------------------------------------------------------------------------
# Exact closest point
# ---------------------------------------------------------------------------


def test_closest_point_identity_on_surface():
    rng = np.random.default_rng(0)
    for kx, ky in [(3.0, 1.5), (2.0, -1.0), (0.0, 2.5), (2.0, 2.0)]:
        patch = _parab(kx, ky)
        u = rng.uniform(-0.25, 0.25, (20, 2))
        pts = explicit_eval(patch, u, frame="local")
        for q in pts:
            p, dist = closest_point_exact(patch, q)
            assert dist < 1e-8
            assert np.allclose(p, q, atol=1e-7)


def test_closest_point_plane_projection():
    p, dist = closest_point_exact(_PLANE_CIRCLE, (1.0, 2.0, 3.0))
    assert np.allclose(p, [1.0, 2.0, 0.0])
    assert dist == pytest.approx(3.0)


def test_closest_point_on_axis_vertex_case():
    # q on the axis of a circular paraboloid at the vertex center of
    # curvature: every off-axis backsubstitution denominator vanishes and
    # the closest point is the vertex itself
    patch = _parab(1.0, 1.0)
    p, dist = closest_point_exact(patch, (0.0, 0.0, 1.0))
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p, [0.0, 0.0, 0.0], atol=1e-9)


def test_closest_point_on_axis_ring_case():
    # higher on the axis the nearest points form a ring; the returned
    # representative must beat the vertex
    patch = _parab(1.0, 1.0)
    p, dist = closest_point_exact(patch, (0.0, 0.0, 3.0))
    assert dist == pytest.approx(math.sqrt(5.0), abs=1e-9)
    assert math.hypot(p[0], p[1]) == pytest.approx(2.0, abs=1e-8)


def test_closest_point_symmetry_plane_pair():
    # q on the x = 0 symmetry plane of an elliptic paraboloid whose true
    # closest point lies off that plane; found only via the pole branch
    patch = _parab(2.0, 1.0)
    q = np.array([0.0, 0.5, 2.0])
    p, dist = closest_point_exact(patch, q)
    oracle = brute_closest_paraboloid(2.0, 1.0, q)
    assert dist == pytest.approx(oracle, abs=1e-6)
    assert dist == pytest.approx(math.sqrt(1.5), abs=1e-9)
    assert abs(p[0]) > 0.9  # off the symmetry plane


def test_closest_point_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(12):
        kx = rng.uniform(-6.0, 6.0)
        ky = rng.uniform(-6.0, 6.0)
        patch = _parab(kx, ky) if kx != ky else _parab(kx, ky + 0.1)
        k = (patch.k[0], patch.k[1])
        q = rng.uniform(-0.6, 0.6, 3)
        _, dist = closest_point_exact(patch, q)
        assert dist == pytest.approx(brute_closest_paraboloid(*k, q), abs=2e-6)


def test_newton_agrees_with_companion():
    rng = np.random.default_rng(2)
    for _ in range(50):
        kx, ky = rng.uniform(-8.0, 8.0, 2)
        patch = _parab(kx, ky) if kx != ky else _parab(kx, ky + 0.1)
        q = rng.uniform(0.05, 0.7, 3) * rng.choice([-1.0, 1.0], 3)
        _, d_auto = closest_point_exact(patch, q)
        _, d_ref = companion_closest_paraboloid(*curvature_k3(patch)[:2], q)
        assert d_auto == pytest.approx(d_ref, abs=1e-9)


def test_closest_point_global_minimum_property():
    rng = np.random.default_rng(3)
    patch = _parab(4.0, -2.0)
    q = np.array([0.3, -0.2, 0.5])
    _, dist = closest_point_exact(patch, q)
    u = rng.uniform(-2.0, 2.0, (1000, 2))
    pts = explicit_eval(patch, u, frame="local")
    assert dist <= float(np.min(np.linalg.norm(pts - q, axis=1))) + 1e-12


def test_closest_point_sphere_and_cylinder_geometric():
    sph = Patch(S.SPHERE, B.CIRCLE, [2.0], [0.3], _ID5)
    # radially offset from the vertex by 0.004 toward the viewpoint
    p, dist = closest_point_exact(sph, (0.0, 0.0, -0.004))
    assert dist == pytest.approx(0.004, abs=1e-12)
    assert np.allclose(p, [0.0, 0.0, 0.0], atol=1e-12)
    cyl = Patch(S.CIRCULAR_CYLINDER, B.AARECT, [2.0], [0.3, 0.2], _ID6)
    q = np.array([0.1, 0.0, -0.004])
    p, dist = closest_point_exact(cyl, q)
    assert dist == pytest.approx(0.004, abs=1e-12)
    assert np.allclose(p, [0.1, 0.0, 0.0], atol=1e-12)


# elliptic, hyperbolic, one zero curvature and k1 = k2, each with both signs
_K_MATRIX = [
    (3.0, 1.5), (-4.0, -2.0), (2.0, -1.0), (-5.0, 3.0),
    (0.0, 2.5), (0.0, -3.0), (2.0, 2.0), (-3.0, -3.0),
]


def _mixed_batch(patch, rng):
    """Random rows plus the rows that need special handling."""
    q = rng.uniform(-0.4, 0.4, (60, 3))
    q[:8, 0] = 0.0  # on the x = 0 symmetry plane
    q[8:16, 1] = 0.0  # on the y = 0 symmetry plane
    q[16:22, :2] = 0.0  # on the z axis, below, at and beyond the vertex
    q[16:22, 2] = [-0.3, 0.0, 0.1, 0.25, 0.5, 1.0]
    on_surface = explicit_eval(patch, rng.uniform(-0.25, 0.25, (8, 2)), frame="local")
    return np.vstack([q, on_surface])


def _assert_rows_agree(d, ref):
    err = np.abs(d - ref)
    assert np.all((err <= 1e-12 * np.abs(ref)) | (err <= 1e-15)), float(err.max())


def test_batch_kernel_matches_companion_per_row():
    rng = np.random.default_rng(10)
    for kx, ky in _K_MATRIX:
        patch = _parab(kx, ky)
        pts = _mixed_batch(patch, rng)
        _, d = _closest_points(patch, pts)
        k = curvature_k3(patch)[:2]
        ref = [companion_closest_paraboloid(*k, q)[1] for q in pts]
        _assert_rows_agree(d, np.array(ref))


def test_closest_point_near_symmetry_plane():
    # |q_b| from 1e-12 to 1e-2 off the symmetry plane of each curved axis b,
    # at z = 2 / k_b, beyond that section's centre of curvature, where the
    # closest point of a point on the plane can leave it and the multiplier
    # sits next to a pole; also a steep pair from the curvature gate's range
    for kx, ky in _K_MATRIX + [(2.39, 19.15)]:
        rows = []
        for b, kb in enumerate((kx, ky)):
            if kb == 0.0:
                continue
            for off in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
                q = np.zeros(3)
                q[b], q[1 - b], q[2] = off, 0.05, 2.0 / kb
                rows.append(q)
        pts, patch = np.array(rows), _parab(kx, ky)
        p, d = _closest_points(patch, pts)
        gap = np.abs(0.5 * (kx * p[:, 0] ** 2 + ky * p[:, 1] ** 2) - p[:, 2])
        assert np.all(gap <= 1e-12 * (1.0 + np.abs(p[:, 2]))), (kx, ky, gap.max())
        brute = np.array([brute_closest_paraboloid(kx, ky, q) for q in pts])
        assert d == pytest.approx(brute, abs=1e-9), (kx, ky)
        assert residual(patch, pts) == pytest.approx(math.sqrt(np.mean(brute**2)), abs=1e-9)


def test_batch_kernel_sphere_and_cylinder_rows():
    rng = np.random.default_rng(11)
    for kap in (2.0, -3.0):
        sph = Patch(S.SPHERE, B.CIRCLE, [kap], [0.3], _ID5)
        cyl = Patch(S.CIRCULAR_CYLINDER, B.AARECT, [kap], [0.3, 0.2], _ID6)
        pts = rng.uniform(-0.4, 0.4, (40, 3))
        pts[0] = (0.0, 0.0, 1.0 / kap)  # sphere center, on the cylinder axis
        pts[1] = (0.2, 0.0, 1.0 / kap)  # on the cylinder axis
        # rows at the center (sphere) or on the axis (cylinder) lie one
        # radius from the surface
        for patch, centered in ((sph, [0]), (cyl, [0, 1])):
            p, d = _closest_points(patch, pts)
            one = [closest_point_exact(patch, q) for q in pts]
            _assert_rows_agree(d, np.array([dist for _, dist in one]))
            assert np.array_equal(p, [pt for pt, _ in one])
            assert d[centered] == pytest.approx(1.0 / abs(kap), rel=1e-15)


def test_residual_batch_equals_points_one_at_a_time():
    rng = np.random.default_rng(12)
    patches = [_parab(kx, ky) for kx, ky in _K_MATRIX] + [
        Patch(S.SPHERE, B.CIRCLE, [2.0], [0.3], _ID5),
        Patch(S.CIRCULAR_CYLINDER, B.AARECT, [-3.0], [0.3, 0.2], _ID6),
        _PLANE_CIRCLE,
    ]
    for patch in patches:
        pts = _mixed_batch(patch, rng)
        d = np.array([closest_point_exact(patch, q)[1] for q in pts])
        assert np.array_equal(_closest_points(patch, pts)[1], d)
        assert residual(patch, pts) == math.sqrt(float(np.mean(d * d)))


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def _offset_along_normals(patch, u, delta):
    """Surface points displaced by delta along local unit normals."""
    pts = explicit_eval(patch, u, frame="local")
    k = curvature_k3(patch)
    g = np.column_stack(
        [k[0] * pts[:, 0], k[1] * pts[:, 1], k[2] * pts[:, 2] - 1.0]
    )
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return pts + delta * g


def test_residual_zero_on_surface():
    rng = np.random.default_rng(4)
    patch = _parab(3.0, 1.0)
    pts = explicit_eval(patch, rng.uniform(-0.2, 0.2, (40, 2)), frame="local")
    assert residual(patch, pts) < 1e-8


def test_residual_plane_single_point_height():
    h = 0.37
    assert residual(_PLANE_CIRCLE, [(0.02, -0.01, h)]) == pytest.approx(h)


def test_residual_normal_offset_accuracy():
    # points offset by delta along normals: exact residual recovers delta
    # within 1% for offsets up to 5mm and curvatures up to 20/m
    rng = np.random.default_rng(5)
    for kx, ky in [(20.0, 5.0), (-20.0, 10.0), (12.0, -12.0)]:
        patch = _parab(kx, ky)
        pts = _offset_along_normals(patch, rng.uniform(-0.1, 0.1, (60, 2)), 0.005)
        rho = residual(patch, pts)
        assert abs(rho - 0.005) < 0.005 * 0.01


def test_residual_sphere_radial_offsets_exact():
    sph = Patch(S.SPHERE, B.CIRCLE, [3.0], [0.25], _ID5)
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.15, 0.15, (30, 2))
    pts = explicit_eval(sph, u, frame="local")
    c = np.array([0.0, 0.0, 1.0 / 3.0])
    radial = (pts - c) / np.linalg.norm(pts - c, axis=1, keepdims=True)
    rho = residual(sph, pts + 0.004 * radial)
    assert rho == pytest.approx(0.004, abs=1e-10)


def test_residual_rejects_empty_points():
    with pytest.raises(ValueError):
        residual(_parab(1.0, 1.0), np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_residual_rejects_non_finite_points(bad):
    pts = np.array([[0.01, 0.02, 0.0], [0.03, -0.01, 0.0]])
    pts[1, 2] = bad
    with pytest.raises(ValueError, match="residual needs finite points"):
        residual(_parab(3.0, 1.5), pts)


# ---------------------------------------------------------------------------
# Intersection areas
# ---------------------------------------------------------------------------


def _mc_cell_area(boundary, d, origin, w, n, rng):
    if boundary == B.ELLIPSE:
        contains = lambda u: (u[:, 0] / d[0]) ** 2 + (u[:, 1] / d[1]) ** 2 <= 1.0
    elif boundary == B.CIRCLE:
        contains = lambda u: u[:, 0] ** 2 + u[:, 1] ** 2 <= d[0] ** 2
    elif boundary == B.AARECT:
        contains = lambda u: (np.abs(u[:, 0]) <= d[0]) & (np.abs(u[:, 1]) <= d[1])
    else:
        v = quad_vertices(d)

        def contains(u):
            ok = np.ones(len(u), dtype=bool)
            for i in range(4):
                a, bb = v[i], v[(i + 1) % 4]
                e = bb - a
                ok &= (u[:, 0] - a[0]) * e[1] - (u[:, 1] - a[1]) * e[0] <= 0.0
            return ok

    lo = np.asarray(origin, dtype=float)
    return mc_region_area(contains, lo, lo + w, n, rng)


def test_intersection_full_and_empty_cells():
    w = 0.01
    cases = [
        (B.ELLIPSE, np.array([0.08, 0.05])),
        (B.CIRCLE, np.array([0.07])),
        (B.AARECT, np.array([0.06, 0.04])),
        (B.CQUAD, np.array([0.07, 0.08, 0.07, 0.08, 0.6])),
    ]
    for bt, d in cases:
        assert _one_cell_area(bt, d, (-w / 2, -w / 2), w) == pytest.approx(w * w)
        assert _one_cell_area(bt, d, (0.5, 0.5), w) == 0.0


def test_intersection_rect_and_quad_match_mc():
    rng = np.random.default_rng(8)
    w = 0.01
    for _ in range(40):
        if rng.random() < 0.5:
            bt, d = B.AARECT, rng.uniform(0.02, 0.1, 2)
            span = d
        else:
            bt = B.CQUAD
            d = np.concatenate([rng.uniform(0.04, 0.1, 4), [rng.uniform(0.3, 1.2)]])
            span = np.abs(quad_vertices(d)).max(axis=0)
        origin = rng.uniform(-1.2, 1.1, 2) * span
        got = _one_cell_area(bt, d, origin, w)
        ref = _mc_cell_area(bt, d, origin, w, 200_000, rng)
        assert abs(got - ref) < 8e-3 * w * w


def test_intersection_ellipse_within_secant_bound():
    rng = np.random.default_rng(9)
    w = 0.01
    for _ in range(40):
        if rng.random() < 0.5:
            bt, d = B.ELLIPSE, rng.uniform(0.02, 0.12, 2)
            span = d
        else:
            bt, d = B.CIRCLE, rng.uniform(0.02, 0.12, 1)
            span = np.array([d[0], d[0]])
        origin = rng.uniform(-1.2, 1.1, 2) * span
        got = _one_cell_area(bt, d, origin, w)
        ref = _mc_cell_area(bt, d, origin, w, 200_000, rng)
        bound = secant_area_bound(d, w)
        mc_tol = 8e-3 * w * w
        # secant underestimates one-sidedly, at most by the segment bound
        assert got <= ref + mc_tol
        assert got >= ref - bound - mc_tol


@settings(max_examples=60, deadline=None)
@given(
    ax=st.floats(0.02, 0.12),
    by=st.floats(0.02, 0.12),
    shrink=st.floats(0.3, 1.0),
    ox=st.floats(-1.3, 1.3),
    oy=st.floats(-1.3, 1.3),
    kind=st.sampled_from(["ellipse", "aarect"]),
)
def test_intersection_monotone_under_shrink(ax, by, shrink, ox, oy, kind):
    w = 0.01
    bt = B.ELLIPSE if kind == "ellipse" else B.AARECT
    d = np.array([ax, by])
    origin = (ox * ax, oy * by)
    big = _one_cell_area(bt, d, origin, w)
    small = _one_cell_area(bt, d * shrink, origin, w)
    assert small <= big + 1e-15


def _random_d(bt, rng):
    if bt == B.CQUAD:
        return np.concatenate([rng.uniform(0.02, 0.12, 4), [rng.uniform(0.3, 1.2)]])
    return rng.uniform(0.02, 0.12, 1 if bt == B.CIRCLE else 2)


# grids with a cell corner exactly on the boundary: 3-4-5 points on circles
# and on an ellipse of semi-axes 2.5 x 1.25, the ends of the axes, edges of
# a rectangle on grid lines, and a grid anchored at a quad vertex
_Q = np.array([0.09, 0.05, 0.07, 0.06, 0.7])
_TANGENT_GRIDS = {
    B.ELLIPSE: [([2.5, 1.25], (-2.5, -1.25), 20, 10, 0.25), ([2.5, 1.25], (0.0, 0.0), 10, 5, 0.25)],
    B.CIRCLE: [([1.25], (-1.25, -1.25), 10, 10, 0.25), ([0.05], (-0.05, -0.05), 10, 10, 0.01)],
    B.AARECT: [([0.5, 0.25], (-0.5, -0.25), 4, 2, 0.25),
               ([0.05, 0.03], (-0.05, -0.03), 10, 6, 0.01)],
    B.CQUAD: [(_Q, tuple(quad_vertices(_Q)[i]), 12, 12, 0.01) for i in range(4)]
    + [(_Q, tuple(quad_vertices(_Q).min(axis=0)), 17, 12, 0.01)],
}


@pytest.mark.parametrize("bt", [B.ELLIPSE, B.CIRCLE, B.AARECT, B.CQUAD],
                         ids=["ellipse", "circle", "aarect", "cquad"])
def test_cell_areas_match_per_cell_oracle(bt):
    """The grid kernel equals the scalar per-cell areas: bitwise for the
    secant rule and rectangles, within 1e-15 w^2 for the quad clip."""
    rng = np.random.default_rng(13)
    grids = list(_TANGENT_GRIDS[bt])
    for _ in range(300 if bt in (B.ELLIPSE, B.CIRCLE) else 60):
        d, w = _random_d(bt, rng), rng.uniform(0.003, 0.02)
        span = np.abs(quad_vertices(d)).max(axis=0) if bt == B.CQUAD else d * np.ones(2)
        # anchors left of and below the origin, so cells straddle both axes
        lo = tuple(rng.uniform(-1.3, 0.2, 2) * span)
        nx, ny = (int(n) for n in rng.integers(1, 2.6 * span / w + 2))
        grids.append((d, lo, nx, ny, w))
    for d, lo, nx, ny, w in grids:
        got = _cell_areas(bt, d, lo, nx, ny, w)
        ref = np.array([
            [cell_intersection_area(bt, d, (lo[0] + ix * w, lo[1] + iy * w), w) for iy in range(ny)]
            for ix in range(nx)
        ])
        assert got.shape == (nx, ny)
        if bt == B.CQUAD:
            assert np.abs(got - ref).max() <= 1e-15 * w * w
        else:
            assert np.array_equal(got, ref)
        ix, iy = nx // 2, ny // 2
        assert _one_cell_area(bt, d, (lo[0] + ix * w, lo[1] + iy * w), w) == got[ix, iy]


def test_half_axis_squares_round_as_scalar_pow():
    """The per-grid-line squares of the secant rule equal the scalar rule's
    (x / a) ** 2, which calls pow and differs from x * x by an ulp on ~0.1%
    of inputs; the grid kernel is bitwise equal to the scalar rule only so."""
    rng = np.random.default_rng(15)
    a, w = 0.0731, 0.01
    g0 = rng.uniform(-0.1, 0.1, 20_000)
    s, c, _, _, qs, qc, _, _ = _half_axis(g0, g0 + w, a, 0.05)
    for ends, q in ((s, qs), (c, qc)):
        ref = np.array([(np.float64(v) / a) ** 2 for v in ends.ravel()]).reshape(ends.shape)
        assert np.array_equal(q, ref)
    assert np.count_nonzero(qs != (s / a) * (s / a)) > 0  # the case is exercised


def test_residuals_of_a_batch_equal_each_patch_alone():
    # one kernel call over mixed families, the hard-case rows included,
    # gives each patch its own residual and closest points to the bit
    rng = np.random.default_rng(15)
    patches = [_parab(kx, ky) for kx, ky in _K_MATRIX] + [
        Patch(S.SPHERE, B.CIRCLE, [2.0], [0.3], _ID5),
        Patch(S.SPHERE, B.CIRCLE, [0.0], [0.3], _ID5),
        Patch(S.CIRCULAR_CYLINDER, B.AARECT, [-3.0], [0.3, 0.2], _ID6),
        _PLANE_CIRCLE,
    ]
    order = rng.permutation(len(patches))
    patches = [patches[i] for i in order]
    pts = [_mixed_batch(p, rng)[: int(rng.integers(1, 69))] for p in patches]
    got = residuals(patches, pts)
    assert got.tolist() == [residual(p, q) for p, q in zip(patches, pts)]
    p_all, d_all = _closest_rows(patches, [len(q) for q in pts], np.vstack(pts))
    at = 0
    for patch, q in zip(patches, pts):
        p, d = _closest_points(patch, q)
        assert np.array_equal(p_all[at : at + len(q)], p)
        assert np.array_equal(d_all[at : at + len(q)], d)
        at += len(q)
    with pytest.raises(ValueError):
        residuals(patches[:2], [pts[0], np.zeros((0, 3))])


def test_coverage_evals_of_a_batch_equal_each_patch_alone():
    # one bincount over every grid of the batch gives each patch the report
    # coverage_eval and the per-cell loop give it alone
    rng = np.random.default_rng(16)
    cfg = CoverageConfig()
    patches, pts = [], []
    for trial in range(12):
        bt = [B.ELLIPSE, B.CIRCLE, B.AARECT, B.CQUAD][trial % 4]
        d = _random_d(bt, rng)
        patch = Patch(S.PLANE, bt, [], d, _ID5 if bt == B.CIRCLE else _ID6)
        lo, hi = _boundary_bbox(patch)
        xy = rng.uniform(1.2 * lo, 1.2 * hi, (int(rng.integers(1, 3000)), 2))
        xy[: len(xy) // 5, 0] = lo[0] + rng.integers(0, 5, len(xy) // 5) * cfg.w_c  # on grid lines
        if trial % 3 == 0:
            # an even lattice fill of pitch w/3 from the grid anchor, which passes
            w = cfg.w_c
            gx, gy = (lo[a] + np.arange(int((hi[a] - lo[a]) * 3 / w) + 1) * (w / 3) for a in (0, 1))
            lattice = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
            xy = np.vstack([lattice[boundary_contains(patch, lattice)], xy[:5]])
        patches.append(patch)
        pts.append(np.column_stack([xy, rng.normal(0.0, 0.01, len(xy))]))
    got = coverage_evals(patches, pts, cfg)
    assert got == [coverage_eval(p, q, cfg) for p, q in zip(patches, pts)]
    for report, patch, q in zip(got, patches, pts):
        ref = loop_coverage_eval(patch, q, cfg)
        assert (report.bad_cells, report.n_expected, report.passed) == (
            ref.bad_cells, ref.n_expected, ref.passed
        )
    assert {r.passed for r in got} == {True, False}
    assert coverage_evals([], [], cfg) == []


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def _stratified_disc_fill(patch, cfg, density):
    """Constant-density fill of the boundary, placed cell by cell."""
    rng = np.random.default_rng(10)
    w = cfg.w_c
    r = patch.d[0]
    pts = []
    n_cells = int(math.ceil(2 * r / w - 1e-12))
    for ix in range(n_cells):
        for iy in range(n_cells):
            lo = np.array([-r + ix * w, -r + iy * w])
            a_i = _one_cell_area(patch.b, patch.d, lo, w)
            if a_i <= 0.0:
                continue
            want = max(1, int(round(density * a_i)))
            got = []
            while len(got) < want:
                u = lo + w * rng.random((8 * want, 2))
                u = u[boundary_contains(patch, u)]
                u = u[
                    (u[:, 0] >= lo[0])
                    & (u[:, 0] < lo[0] + w)
                    & (u[:, 1] >= lo[1])
                    & (u[:, 1] < lo[1] + w)
                ]
                got.extend(u.tolist())
            pts.extend(got[:want])
    xy = np.array(pts)
    return np.column_stack([xy, np.zeros(len(xy))])


def test_coverage_uniform_fill_passes_clean():
    cfg = CoverageConfig()
    pts = _stratified_disc_fill(_PLANE_CIRCLE, cfg, density=1e4 / (math.pi * 0.01))
    report = coverage_eval(_PLANE_CIRCLE, pts, cfg)
    assert report.passed
    assert len(report.bad_cells) == 0
    assert report.shape == (20, 20)
    assert report.origin == (-0.1, -0.1)


def test_coverage_half_disc_fails_with_counted_cells():
    cfg = CoverageConfig()
    pts = _stratified_disc_fill(_PLANE_CIRCLE, cfg, density=1e4 / (math.pi * 0.01))
    upper = pts[pts[:, 1] > 0.0]
    report = coverage_eval(_PLANE_CIRCLE, upper, cfg)
    assert not report.passed
    # every populated-area cell wholly below the x axis must be flagged
    w = cfg.w_c
    expected = set()
    for ix in range(report.shape[0]):
        for iy in range(report.shape[1]):
            lo = (report.origin[0] + ix * w, report.origin[1] + iy * w)
            if lo[1] + w <= 0.0 and _one_cell_area(B.CIRCLE, [0.1], lo, w) > 0.0:
                expected.add((ix, iy))
    assert expected <= set(report.bad_cells)
    assert len(report.bad_cells) > report.t_p


def test_coverage_rim_outside_points_flagged():
    cfg = CoverageConfig()
    pts = _stratified_disc_fill(_PLANE_CIRCLE, cfg, density=1e4 / (math.pi * 0.01))
    report0 = coverage_eval(_PLANE_CIRCLE, pts, cfg)
    assert len(report0.bad_cells) == 0
    # drop ~30% of N_e extra out-of-bounds points into two rim cells
    w = cfg.w_c
    targets = []
    for ix in range(report0.shape[0]):
        for iy in range(report0.shape[1]):
            lo = np.array([report0.origin[0] + ix * w, report0.origin[1] + iy * w])
            a_i = _one_cell_area(B.CIRCLE, [0.1], lo, w)
            if 0.0 < a_i < 0.7 * w * w:
                targets.append((ix, iy, lo))
            if len(targets) == 2:
                break
        if len(targets) == 2:
            break
    extras = []
    rng = np.random.default_rng(11)
    n_extra = int(math.ceil(0.3 * report0.n_expected)) + 1
    for ix, iy, lo in targets:
        while True:
            u = lo + w * rng.random((400, 2))
            u = u[~boundary_contains(_PLANE_CIRCLE, u)][:n_extra]
            if len(u) == n_extra:
                extras.append(np.column_stack([u, np.zeros(n_extra)]))
                break
    report = coverage_eval(_PLANE_CIRCLE, np.vstack([pts] + extras), cfg)
    for ix, iy, _ in targets:
        assert (ix, iy) in report.bad_cells


def test_coverage_invariant_to_point_order():
    cfg = CoverageConfig()
    rng = np.random.default_rng(12)
    u = rng.uniform(-0.1, 0.1, (4000, 2))
    u = u[boundary_contains(_PLANE_CIRCLE, u)]
    pts = np.column_stack([u, np.zeros(len(u))])
    a = coverage_eval(_PLANE_CIRCLE, pts, cfg)
    b = coverage_eval(_PLANE_CIRCLE, pts[rng.permutation(len(pts))], cfg)
    assert a == b


def test_coverage_eval_matches_oracle():
    """The one-pass grid gives the per-cell loop's report: the same bad
    cells in the same order, N_e and verdict. Points include some exactly
    on grid lines and some off the grid."""
    rng = np.random.default_rng(14)
    cfg = CoverageConfig()
    w = cfg.w_c
    verdicts = set()
    for trial in range(48):
        bt = [B.ELLIPSE, B.CIRCLE, B.AARECT, B.CQUAD][trial % 4]
        d = _random_d(bt, rng)
        patch = Patch(S.PLANE, bt, [], d, _ID5 if bt == B.CIRCLE else _ID6)
        lo, hi = _boundary_bbox(patch)
        n = int(rng.integers(20, 4000))
        xy = rng.uniform(1.2 * lo, 1.2 * hi, (n, 2))
        k = rng.integers(0, 1 + int((hi[0] - lo[0]) / w), n)
        for axis in (0, 1):
            on_line = rng.random(n) < 0.2
            xy[on_line, axis] = lo[axis] + k[on_line] * w
        if trial % 8 < 4:
            # an even lattice fill of pitch w/3 from the grid anchor, which
            # passes, plus a few of the stray points
            gx, gy = (lo[a] + np.arange(int((hi[a] - lo[a]) * 3 / w) + 1) * (w / 3) for a in (0, 1))
            lattice = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
            xy = np.vstack([lattice[boundary_contains(patch, lattice)], xy[: n // 20]])
        pts = np.column_stack([xy, rng.normal(0.0, 0.01, len(xy))])
        got, ref = coverage_eval(patch, pts, cfg), loop_coverage_eval(patch, pts, cfg)
        assert got.bad_cells == ref.bad_cells
        assert got.n_expected == ref.n_expected
        assert got.passed == ref.passed
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_coverage_config_validation():
    with pytest.raises(ValueError):
        CoverageConfig(w_c=0.0)
    with pytest.raises(ValueError):
        CoverageConfig(zeta_i=0.2, zeta_o=0.5)


# ---------------------------------------------------------------------------
# Curvature gate
# ---------------------------------------------------------------------------


def test_curvature_gate_cases():
    plane = Patch(S.PLANE, B.AARECT, [], [0.1, 0.1], _ID6)
    assert np.allclose(principal_curvatures(plane), [0.0, 0.0])
    assert curvature_gate(plane, -1e-9, 1e-9)
    hot = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, [40.0], [0.1, 0.1], _ID6)
    assert not curvature_gate(hot, -30.0, 30.0)
    edge = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, [30.0], [0.1, 0.1], _ID6)
    assert curvature_gate(edge, -30.0, 30.0)  # closed interval
    sph = Patch(S.SPHERE, B.CIRCLE, [-31.0], [0.02], _ID5)
    assert not curvature_gate(sph, -30.0, 30.0)


def test_curvature_gate_rejects_inverted_interval():
    with pytest.raises(ValueError):
        SaliencyConfig(kappa_min=1.0, kappa_max=-1.0)
