"""Validation tests.

Closest points are checked against a dense-grid brute force, intersection
areas against Monte-Carlo point sampling, and the coverage rules against
directly constructed cell populations.
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
    explicit_eval,
    quad_vertices,
)
from patchscape.pose import Pose5, Pose6
from patchscape.validate import (
    CoverageConfig,
    CurvatureGate,
    ResidualMethod,
    closest_point_exact,
    coverage_eval,
    curvature_gate,
    intersection_area,
    principal_curvatures,
    residual,
    secant_area_bound,
)

from _oracles import brute_closest_paraboloid, mc_region_area

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
        _, d_auto = closest_point_exact(patch, q, solver="auto")
        _, d_ref = closest_point_exact(patch, q, solver="companion")
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


# ---------------------------------------------------------------------------
# Residual methods
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


def test_residual_zero_on_surface_every_method():
    rng = np.random.default_rng(4)
    patch = _parab(3.0, 1.0)
    pts = explicit_eval(patch, rng.uniform(-0.2, 0.2, (40, 2)), frame="local")
    for m in ResidualMethod:
        assert residual(patch, pts, method=m) < 1e-8


def test_residual_plane_single_point_height():
    h = 0.37
    for m in ResidualMethod:
        assert residual(_PLANE_CIRCLE, [(0.02, -0.01, h)], method=m) == pytest.approx(h)


def test_residual_normal_offset_accuracy():
    # points offset by delta along normals: exact residual recovers delta
    # within 1% for offsets up to 5mm and curvatures up to 20/m
    rng = np.random.default_rng(5)
    for kx, ky in [(20.0, 5.0), (-20.0, 10.0), (12.0, -12.0)]:
        patch = _parab(kx, ky)
        pts = _offset_along_normals(patch, rng.uniform(-0.1, 0.1, (60, 2)), 0.005)
        rho = residual(patch, pts, method=ResidualMethod.EXACT)
        assert abs(rho - 0.005) < 0.005 * 0.01


def test_residual_taubin_accuracy_and_vertical_gap():
    # perturbation benchmark: both Taubin forms track exact within 10%
    # while the vertical distance is materially worse. The second-order
    # root never exceeds the first-order estimate (it is a one-sided
    # underestimate by construction), which is checked per point.
    rng = np.random.default_rng(6)
    patch = _parab(1.0, 2.0)
    u = rng.uniform(-0.4, 0.4, (100, 2))
    deltas = rng.uniform(-0.001, 0.001, (100, 1))
    pts = explicit_eval(patch, u, frame="local")
    k = curvature_k3(patch)
    g = np.column_stack([k[0] * pts[:, 0], k[1] * pts[:, 1], -np.ones(len(pts))])
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = pts + deltas * g
    exact = residual(patch, pts, method=ResidualMethod.EXACT)
    t1 = residual(patch, pts, method=ResidualMethod.TAUBIN1)
    t2 = residual(patch, pts, method=ResidualMethod.TAUBIN2)
    vert = residual(patch, pts, method=ResidualMethod.VERTICAL)
    assert abs(t1 - exact) < 0.1 * exact
    assert abs(t2 - exact) < 0.1 * exact
    assert abs(vert - exact) > 2.0 * abs(t1 - exact)
    for q in pts[:20]:
        d1 = residual(patch, [q], method=ResidualMethod.TAUBIN1)
        d2 = residual(patch, [q], method=ResidualMethod.TAUBIN2)
        assert d2 <= d1 + 1e-15


def test_residual_sphere_radial_offsets_exact():
    sph = Patch(S.SPHERE, B.CIRCLE, [3.0], [0.25], _ID5)
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.15, 0.15, (30, 2))
    pts = explicit_eval(sph, u, frame="local")
    c = np.array([0.0, 0.0, 1.0 / 3.0])
    radial = (pts - c) / np.linalg.norm(pts - c, axis=1, keepdims=True)
    rho = residual(sph, pts + 0.004 * radial, method=ResidualMethod.EXACT)
    assert rho == pytest.approx(0.004, abs=1e-10)


def test_residual_max_aggregate_and_empty_rejection():
    patch = _parab(1.0, 1.0)
    pts = np.array([[0.0, 0.0, -0.001], [0.0, 0.0, -0.003]])
    rho = residual(patch, pts, aggregate="max")
    assert rho == pytest.approx(0.003, abs=1e-9)
    with pytest.raises(ValueError):
        residual(patch, np.zeros((0, 3)))


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
        assert intersection_area(bt, d, (-w / 2, -w / 2), w) == pytest.approx(w * w)
        assert intersection_area(bt, d, (0.5, 0.5), w) == 0.0


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
        got = intersection_area(bt, d, origin, w)
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
        got = intersection_area(bt, d, origin, w)
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
    big = intersection_area(bt, d, origin, w)
    small = intersection_area(bt, d * shrink, origin, w)
    assert small <= big + 1e-15


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
            a_i = intersection_area(patch.b, patch.d, lo, w)
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
            if lo[1] + w <= 0.0 and intersection_area(B.CIRCLE, [0.1], lo, w) > 0.0:
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
            a_i = intersection_area(B.CIRCLE, [0.1], lo, w)
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
    assert curvature_gate(plane, CurvatureGate(-1e-9, 1e-9))
    hot = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, [40.0], [0.1, 0.1], _ID6)
    assert not curvature_gate(hot, CurvatureGate(-30.0, 30.0))
    edge = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, [30.0], [0.1, 0.1], _ID6)
    assert curvature_gate(edge, CurvatureGate(-30.0, 30.0))  # closed interval
    sph = Patch(S.SPHERE, B.CIRCLE, [-31.0], [0.02], _ID5)
    assert not curvature_gate(sph, CurvatureGate(-30.0, 30.0))


def test_curvature_gate_rejects_inverted_interval():
    with pytest.raises(ValueError):
        CurvatureGate(1.0, -1.0)
