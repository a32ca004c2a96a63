"""Mapping pipeline tests.

Dense normals are checked against analytic plane and sphere normals, the
chain covariance against a Monte-Carlo recomposition oracle, and the
frame-level machinery (filters, saliency, seeding, neighborhoods, volume
bookkeeping) against small synthetic organized clouds built directly from
camera intrinsics. The end-to-end map_step runs on a ray-cast rocky ramp
whose ground truth curvatures are known.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import patchscape.mapping as mapping
from patchscape.mapping import (
    DEFAULT_CAMERA_IN_VOLUME,
    MapBudgets,
    MapConfig,
    MapPatch,
    MovePolicy,
    Neighborhood,
    NeighborhoodIndex,
    NeighborhoodVariant,
    SaliencyConfig,
    Seed,
    SeedGrid,
    ValidationRecord,
    VolumeState,
    bilateral_filter,
    expected_patch_count,
    fit_sample,
    fixation_point,
    gate_patch,
    init_volume,
    integral_normals,
    map_step,
    median_decimate,
    mesh_triangles,
    neighborhood,
    passthrough,
    remap_patches,
    saliency_filter,
    select_seeds,
    surface_area,
    volume_update,
)
from patchscape.patch import (
    BoundaryType,
    Patch,
    SurfaceType,
    patch_frame,
    projected_area,
    transform_patch,
)
from patchscape.pose import ChainLink, Pose6, chain_covariance, compose_pose, exp_map, pose_inverse, rxy_for_zdir, rxy_to_r, xform_fwd
from patchscape.sensor import (
    KINECT_640,
    OrganizedCloud,
    StereoNoise,
    backproject,
    sample_scene,
)

from _oracles import eigh_integral_normals, mc_chain_cov

S, B = SurfaceType, BoundaryType

TINY = replace(KINECT_640, fx=100.0, fy=100.0, width=80, height=60, cx=39.5, cy=29.5)


def _depth_cloud(intr, z):
    """Organized cloud from a (H, W) depth image (NaN = no return)."""
    z = np.broadcast_to(np.asarray(z, dtype=float), (intr.height, intr.width))
    pts = backproject(intr, None, 0.0) if False else None
    rays = np.empty((intr.height, intr.width, 3))
    u = (np.arange(intr.width) - intr.cx) / intr.fx
    v = (np.arange(intr.height) - intr.cy) / intr.fy
    rays[..., 0] = u[None, :]
    rays[..., 1] = v[:, None]
    rays[..., 2] = 1.0
    return OrganizedCloud(points=rays * z[..., None], cov=None, intrinsics=intr)


def _plane_cloud(z0=1.0, intr=TINY):
    return _depth_cloud(intr, np.full((intr.height, intr.width), z0))


# ---------------------------------------------------------------------------
# Rocky ramp scene shared by the end-to-end tests
# ---------------------------------------------------------------------------

RAMP_R = np.array([3 * np.pi / 4, 0.0, 0.0])
RAMP_T = np.array([0.0, 0.44, 1.22])
RAMP_K = (-1.0, -0.8)
ROCK_AB = [(-0.55, -0.35), (0.3, -0.45), (-0.25, 0.4), (0.55, 0.35), (0.0, -0.05)]
CAM_POSE = Pose6(np.array([-np.pi / 4, 0.0, 0.0]), np.zeros(3))


def _paraboloid(t, r, kx, ky, dx, dy):
    s = S.ELLIPTIC_PARABOLOID if kx * ky > 0 else S.HYPERBOLIC_PARABOLOID
    return Patch(s, B.ELLIPSE, np.array([kx, ky]), np.array([dx, dy]), Pose6(r, np.asarray(t, float)), None)


def _rocky_scene():
    """Curved ramp seen head-on with five protruding rock caps.

    Rock centers are lifted along the ramp normal so each cap pokes
    through, and cap axes lean halfway toward the camera so the sample
    density stays close to uniform over every cap.
    """
    R = exp_map(RAMP_R)
    x_l, y_l, z_l = R[:, 0], R[:, 1], R[:, 2]

    def on_ramp(a, b):
        z = 0.5 * (RAMP_K[0] * a * a + RAMP_K[1] * b * b)
        return RAMP_T + a * x_l + b * y_l + z * z_l

    scene = [_paraboloid(RAMP_T, RAMP_R, *RAMP_K, 1.6, 1.6)]
    rng = np.random.default_rng(42)
    for a, b in ROCK_AB:
        kx, ky = -rng.uniform(1.2, 2.2), -rng.uniform(1.2, 2.2)
        lift = 0.5 * max(RAMP_K[0] - kx, RAMP_K[1] - ky) * 0.42**2 + 0.02
        c = on_ramp(a, b) + lift * z_l
        toward_cam = -c / np.linalg.norm(c)
        zdir = 0.5 * z_l + 0.5 * toward_cam
        zdir /= np.linalg.norm(zdir)
        scene.append(_paraboloid(c, rxy_to_r(rxy_for_zdir(zdir)), kx, ky, 0.55, 0.55))
    return scene


ROCKY_SALIENCY = SaliencyConfig(r=0.15, l_d=0.83, l_f=0.83, phi_g=60.0)
ROCKY_CONFIG = MapConfig(saliency=ROCKY_SALIENCY, n_f=6000)


def _gravity_cam():
    return exp_map(CAM_POSE.r).T @ np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def rocky_cloud():
    return sample_scene(_rocky_scene(), KINECT_640, camera_pose=CAM_POSE, rng=3)


@pytest.fixture(scope="module")
def rocky_cloud_noisy():
    return sample_scene(
        _rocky_scene(), KINECT_640, camera_pose=CAM_POSE, noise=StereoNoise(), rng=3
    )


# ---------------------------------------------------------------------------
# Organized filters
# ---------------------------------------------------------------------------


def test_passthrough_bands_on_each_axis():
    cloud = _plane_cloud(2.0)
    for axis in ("x", 0):
        out = passthrough(cloud, axis, -0.2, 0.2)
        x = cloud.points[..., 0]
        gone = out.valid_mask == False  # noqa: E712
        assert np.array_equal(gone, (x < -0.2) | (x > 0.2))
        assert out.points.shape == cloud.points.shape
    kept = passthrough(cloud, "z", 1.5, 2.5)
    assert kept.valid_mask.all()
    empty = passthrough(cloud, "z", 0.0, 1.0)
    assert not empty.valid_mask.any()


def test_passthrough_rejects_bad_axis():
    cloud = _plane_cloud()
    with pytest.raises((ValueError, KeyError)):
        passthrough(cloud, "w", 0.0, 1.0)


def test_passthrough_keeps_cov_rows_aligned():
    cloud = _plane_cloud()
    cov = np.tile(np.eye(3) * 1e-6, (TINY.height, TINY.width, 1, 1))
    cloud = OrganizedCloud(points=cloud.points, cov=cov, intrinsics=TINY)
    out = passthrough(cloud, "x", -0.1, 0.1)
    dropped = ~out.valid_mask
    assert np.isnan(out.cov[dropped]).all()
    assert np.isfinite(out.cov[out.valid_mask]).all()


def test_bilateral_identity_on_constant_depth():
    cloud = _plane_cloud(1.5)
    out = bilateral_filter(cloud, radius=3)
    assert np.allclose(out.points, cloud.points, atol=1e-9)


def test_bilateral_smooths_within_a_surface():
    rng = np.random.default_rng(5)
    z = 1.0 + 0.004 * rng.standard_normal((TINY.height, TINY.width))
    cloud = _depth_cloud(TINY, z)
    out = bilateral_filter(cloud, radius=2)
    assert np.nanstd(out.points[..., 2]) < 0.5 * np.nanstd(z)


def test_bilateral_does_not_bleed_across_jumps():
    z = np.full((TINY.height, TINY.width), 1.0)
    z[:, 40:] = 1.6
    cloud = _depth_cloud(TINY, z)
    out = bilateral_filter(cloud, radius=3, sigma_r=0.05)
    assert np.allclose(out.points[:, :40, 2], 1.0, atol=1e-6)
    assert np.allclose(out.points[:, 40:, 2], 1.6, atol=1e-6)


def test_bilateral_preserves_nan_holes():
    z = np.full((TINY.height, TINY.width), 1.0)
    z[10:14, 20:25] = np.nan
    cloud = _depth_cloud(TINY, z)
    out = bilateral_filter(cloud)
    assert np.isnan(out.points[10:14, 20:25, 2]).all()
    assert out.valid_mask.sum() == np.isfinite(z).sum()


def test_median_decimate_picks_lower_median_member():
    intr = replace(TINY, width=4, height=4, cx=1.5, cy=1.5)
    z = np.array(
        [
            [1.0, 2.0, 8.0, 8.0],
            [3.0, 4.0, 8.0, 8.0],
            [5.0, np.nan, np.nan, np.nan],
            [np.nan, np.nan, np.nan, np.nan],
        ]
    )
    cloud = _depth_cloud(intr, z)
    out = median_decimate(cloud, 2)
    assert out.points.shape == (2, 2, 3)
    # four valid: lower median of {1,2,3,4} is 2, at full-res pixel (0, 1)
    assert np.allclose(out.points[0, 0], cloud.points[0, 1])
    # single valid member carries through; fully invalid block stays NaN
    assert np.allclose(out.points[1, 0], cloud.points[2, 0])
    assert np.isnan(out.points[1, 1]).all()
    assert out.intrinsics.fx == pytest.approx(intr.fx / 2)


def test_median_decimate_carries_matching_covariance():
    intr = replace(TINY, width=4, height=2, cx=1.5, cy=0.5)
    z = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    cov = np.arange(4 * 2 * 9, dtype=float).reshape(2, 4, 3, 3)
    cloud = OrganizedCloud(points=_depth_cloud(intr, z).points, cov=cov, intrinsics=intr)
    out = median_decimate(cloud, 2)
    assert np.allclose(out.cov[0, 0], cov[0, 1])
    assert np.allclose(out.cov[0, 1], cov[0, 3])


def test_median_decimate_rejects_bad_factor():
    with pytest.raises(ValueError):
        median_decimate(_plane_cloud(), 0)


# ---------------------------------------------------------------------------
# Dense two-scale normals
# ---------------------------------------------------------------------------


def test_integral_normals_fronto_plane_exact():
    cloud = _plane_cloud(1.0)
    n, n_s = integral_normals(cloud, 0.08)
    assert n.shape == (TINY.height, TINY.width, 3)
    interior = n[5:-5, 5:-5]
    assert np.allclose(interior, [0.0, 0.0, -1.0], atol=1e-6)
    assert np.allclose(n_s[5:-5, 5:-5], [0.0, 0.0, -1.0], atol=1e-6)


def test_integral_normals_sphere_matches_analytic():
    # ray-trace a fronto sphere: |t m - c|^2 = rho^2, near root
    intr = TINY
    c = np.array([0.0, 0.0, 1.5])
    rho = 0.5
    rays = _plane_cloud(1.0, intr).points  # unit-z rays scaled by z=1
    m2 = np.einsum("hwi,hwi->hw", rays, rays)
    mc = rays @ c
    disc = mc**2 - m2 * (c @ c - rho**2)
    t = np.where(disc > 0, (mc - np.sqrt(np.maximum(disc, 0.0))) / m2, np.nan)
    pts = rays * t[..., None]
    cloud = OrganizedCloud(points=pts, cov=None, intrinsics=intr)

    n, _ = integral_normals(cloud, 0.06)
    valid = np.isfinite(n[..., 0]) & cloud.valid_mask
    # the visible hemisphere's outward normal already faces the camera
    outward = (pts[valid] - c) / rho
    cosang = np.einsum("ij,ij->i", n[valid], outward)
    ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    assert np.median(ang) < 5.0


def test_integral_normals_handles_holes_and_orientation():
    z = np.full((TINY.height, TINY.width), 1.2)
    z[20:30, 30:45] = np.nan
    cloud = _depth_cloud(TINY, z)
    n, n_s = integral_normals(cloud, 0.1)
    assert np.isnan(n[25, 35]).all()
    ok = np.isfinite(n[..., 0])
    # toward-camera orientation means negative dot with the point ray
    dots = np.einsum("ij,ij->i", n[ok], cloud.points[ok])
    assert (dots < 0).all()
    assert np.allclose(np.linalg.norm(n[ok], axis=1), 1.0, atol=1e-9)


def test_integral_normals_rejects_bad_inputs():
    cloud = _plane_cloud()
    with pytest.raises(ValueError):
        integral_normals(cloud, 0.0)
    with pytest.raises(ValueError):
        integral_normals(cloud, 0.1, f=-1.0)


def _sym_psd(rng, lam):
    """Random-orientation symmetric matrices with eigenvalues lam (n, 3)."""
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), 3, 3)))
    return np.einsum("nij,nj,nkj->nik", q, lam, q)


def _upper(a):
    return [a[:, i, j] for i, j in mapping._UPPER]


def test_smallest_eigvec_matches_eigh_where_certified():
    rng = np.random.default_rng(5)
    n = 4000
    lam_max = np.ones(n)
    gap = 10.0 ** rng.uniform(-12.0, 0.0, n)  # straddles the certification gap
    lam_min = rng.choice([0.0, 1e-3, 0.3], n) * (1.0 - gap)
    lam = np.stack([lam_min, lam_min + gap * (1.0 - lam_min), lam_max], axis=1)
    scale = 10.0 ** rng.uniform(-9.0, 3.0, n)
    a = _sym_psd(rng, lam * scale[:, None])
    v, certified = mapping._smallest_eigvec(_upper(a))
    ref = np.linalg.eigh(a)[1][:, :, 0]
    sin = np.linalg.norm(np.cross(v.T[certified], ref[certified]), axis=1)
    assert sin.max() <= 1e-9
    assert np.allclose(np.linalg.norm(v.T[certified], axis=1), 1.0, atol=1e-12)
    rel_gap = (lam[:, 1] - lam[:, 0]) / lam[:, 2]
    assert certified[rel_gap > 2.0 * mapping._GAP_MIN].all()
    assert not certified[rel_gap < 0.5 * mapping._GAP_MIN].any()


@pytest.mark.parametrize(
    "lam",
    [
        (0.0, 0.0, 0.0),  # rank 0
        (0.0, 0.0, 1.0),  # rank 1
        (2.0, 2.0, 5.0),  # repeated smallest eigenvalue
        (3.0, 3.0, 3.0),  # isotropic
        (1.0, 1.0 + 1e-12, 4.0),  # gap below eps^(1/3)
    ],
)
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3])
def test_smallest_eigvec_leaves_degenerate_windows_uncertified(lam, scale):
    rng = np.random.default_rng(8)
    a = _sym_psd(rng, np.tile(np.array(lam) * scale, (16, 1)))
    _, certified = mapping._smallest_eigvec(_upper(a))
    assert not certified.any()


def test_smallest_eigvec_rank_two_is_certified():
    rng = np.random.default_rng(9)
    for scale in (1e-9, 1.0, 1e3):
        a = _sym_psd(rng, np.tile([0.0, 0.5 * scale, scale], (64, 1)))
        v, certified = mapping._smallest_eigvec(_upper(a))
        assert certified.all()
        ref = np.linalg.eigh(a)[1][:, :, 0]
        assert np.linalg.norm(np.cross(v.T, ref), axis=1).max() <= 1e-9


def test_integral_normals_falls_back_to_eigh_on_degenerate_windows(monkeypatch):
    # one valid scan line: every window's points are collinear (rank 1)
    z = np.full((TINY.height, TINY.width), np.nan)
    z[30, 10:70] = 1.0
    cloud = _depth_cloud(TINY, z)
    calls = []
    eigh = np.linalg.eigh

    def spy(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(mapping.np.linalg, "eigh", spy)
    n, n_s = integral_normals(cloud, 0.1)
    monkeypatch.setattr(mapping.np.linalg, "eigh", eigh)
    assert sum(calls) == 2 * 60  # every window, at both scales
    ref, ref_s = eigh_integral_normals(cloud, 0.1)
    assert np.array_equal(n, ref, equal_nan=True)
    assert np.array_equal(n_s, ref_s, equal_nan=True)


@pytest.mark.parametrize("cfg", [SaliencyConfig(), ROCKY_SALIENCY])
def test_integral_normals_saliency_matches_eigh_reference(rocky_cloud_noisy, cfg):
    cloud = rocky_cloud_noisy
    new = integral_normals(cloud, cfg.r)
    ref = eigh_integral_normals(cloud, cfg.r)
    for a, b in zip(new, ref):
        assert np.array_equal(np.isfinite(a), np.isfinite(b))
        ok = np.isfinite(a[..., 0])
        assert np.linalg.norm(np.cross(a[ok], b[ok]), axis=1).max() <= 1e-9
        assert (np.einsum("ij,ij->i", a[ok], b[ok]) > 0.0).all()
    g = _gravity_cam()
    mask = saliency_filter(cloud, new, g, cfg)
    assert mask.any()
    assert np.array_equal(mask, saliency_filter(cloud, ref, g, cfg))


# ---------------------------------------------------------------------------
# Saliency
# ---------------------------------------------------------------------------


def test_fixation_point_formula():
    g = np.array([0.0, 1.0, 0.0])
    assert np.allclose(fixation_point(g, 1.0, 1.2), [0.0, 1.0, 1.2])
    g = np.array([0.0, np.sqrt(0.5), np.sqrt(0.5)])
    f = fixation_point(g, 2.0, 0.5)
    assert np.allclose(f, 2.0 * g + 0.5 * np.cross([1.0, 0.0, 0.0], g))


def test_saliency_distance_to_fixation_bound():
    cloud = _plane_cloud(1.0)
    normals = integral_normals(cloud, 0.08)
    # g toward +z puts the fixation point on the plane dead ahead
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=0.3, phi_g=10.0)
    mask = saliency_filter(cloud, normals, np.array([0.0, 0.0, 1.0]), cfg)
    assert mask.any()
    d = np.linalg.norm(cloud.points[mask] - np.array([0.0, 0.0, 1.0]), axis=1)
    assert d.max() <= 0.3 + 1e-12
    inner = np.linalg.norm(cloud.points - [0.0, 0.0, 1.0], axis=-1) < 0.25
    inner &= np.isfinite(normals[0][..., 0])
    assert mask[inner].all()


def test_saliency_slope_gate_cuts_tilted_gravity():
    cloud = _plane_cloud(1.0)
    normals = integral_normals(cloud, 0.08)
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=0.5, phi_g=35.0)
    ok = saliency_filter(cloud, normals, [0.0, 0.0, 1.0], cfg)
    assert ok.any()
    g_tilted = np.array([0.0, math.sin(math.radians(40.0)), math.cos(math.radians(40.0))])
    none = saliency_filter(cloud, normals, g_tilted, cfg)
    assert not none.any()


def test_saliency_normal_disagreement_cuts_creases():
    # roof: two 45-degree half-planes meeting at the center column; the
    # fine window commits to one face while the coarse one still
    # straddles, so the disagreement peaks in a band beside the seam
    u = (np.arange(TINY.width) - TINY.cx) / TINY.fx
    z = 1.0 + np.abs(u)[None, :] * np.ones((TINY.height, 1))
    cloud = _depth_cloud(TINY, z)
    normals = integral_normals(cloud, 0.08)
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=10.0, phi_d=10.0, phi_g=80.0)
    mask = saliency_filter(cloud, normals, [0.0, 0.0, 1.0], cfg)
    mid = TINY.width // 2
    band = mask[6:-6, mid - 8 : mid + 8]
    assert (~band).sum() >= 2 * band.shape[0]  # a cut column on each side
    assert mask[6:-6, 12 : mid - 12].all()
    assert mask[6:-6, mid + 12 : -12].all()


def test_saliency_config_validation():
    with pytest.raises(ValueError):
        SaliencyConfig(r=0.0)
    with pytest.raises(ValueError):
        SaliencyConfig(phi_d=90.0)
    gate = SaliencyConfig().gate
    assert gate.kappa_min == pytest.approx(-13.6)
    assert gate.kappa_max == pytest.approx(19.7)


# ---------------------------------------------------------------------------
# Seed selection
# ---------------------------------------------------------------------------


def _dummy_mappatch(cell, pid=0):
    p = Patch(
        S.ELLIPTIC_PARABOLOID,
        B.ELLIPSE,
        [-1.0, -1.5],
        [0.1, 0.1],
        Pose6(np.zeros(3), np.array([2.0, 2.0, 0.6])),
    )
    rec = ValidationRecord(0.0, 0, True, True, True)
    return MapPatch(pid, p, cell, (0, 0), np.array([2.0, 2.0, 0.6]), 0, rec)


def test_select_seeds_cell_cap_and_determinism():
    cloud = _plane_cloud(1.0)
    mask = cloud.valid_mask.copy()
    state = init_volume()
    seeds = select_seeds(cloud, mask, state, rng_seed=4)
    assert seeds
    cells = [s.cell for s in seeds]
    assert len(cells) == len(set(cells))  # n_g = 1: one per cell
    again = select_seeds(cloud, mask, state, rng_seed=4)
    assert [s.pixel for s in again] == [s.pixel for s in seeds]
    other = select_seeds(cloud, mask, state, rng_seed=5)
    assert [s.pixel for s in other] != [s.pixel for s in seeds]
    for s in seeds:
        assert mask[s.pixel]
        assert np.allclose(s.point, cloud.points[s.pixel])


def test_select_seeds_respects_resident_occupancy():
    cloud = _plane_cloud(1.0)
    mask = cloud.valid_mask.copy()
    state = init_volume()
    free = select_seeds(cloud, mask, state, rng_seed=0)
    taken_cell = free[0].cell
    state.patches.append(_dummy_mappatch(taken_cell))
    refit = select_seeds(cloud, mask, state, rng_seed=0)
    assert taken_cell not in [s.cell for s in refit]
    assert len(refit) == len(free) - 1


def test_select_seeds_n_g_override_allows_more():
    cloud = _plane_cloud(1.0)
    state = init_volume()
    many = select_seeds(cloud, cloud.valid_mask, state, n_g=3, rng_seed=1)
    per_cell = {}
    for s in many:
        per_cell[s.cell] = per_cell.get(s.cell, 0) + 1
    assert max(per_cell.values()) <= 3
    assert len(many) > len(select_seeds(cloud, cloud.valid_mask, state, rng_seed=1))


def _loop_select_seeds(cloud, salient, volume, n_g, rng_seed):
    """select_seeds with per-pixel dict grouping: the direct form."""
    rng = np.random.default_rng(rng_seed)
    pix = np.argwhere(salient)
    pts_vol = xform_fwd(cloud.points[salient], volume.c_t.r, volume.c_t.t)
    v_g = volume.grid.v_g
    w = volume.v_s / v_g
    by_cell = {}
    for idx, p in enumerate(pts_vol):
        ix, iz = math.floor(p[0] / w), math.floor(p[2] / w)
        if 0 <= ix < v_g and 0 <= iz < v_g:
            by_cell.setdefault((ix, iz), []).append(idx)
    cam_xz = volume.c_t.t[[0, 2]]
    occupancy = volume.cell_counts()

    def rank(cell):
        return (float(np.linalg.norm((np.array(cell, dtype=float) + 0.5) * w - cam_xz)), cell)

    out = []
    for cell in sorted(by_cell, key=rank):
        room = n_g - occupancy.get(cell, 0)
        if room <= 0:
            continue
        cands = by_cell[cell]
        chosen = rng.choice(len(cands), size=min(room, len(cands)), replace=False)
        out += [(tuple(int(x) for x in pix[cands[c]]), cell) for c in np.sort(chosen)]
    return out


def test_select_seeds_matches_loop_grouping(rocky_cloud_noisy):
    cloud = rocky_cloud_noisy
    state = init_volume()
    first = select_seeds(cloud, cloud.valid_mask, state, rng_seed=3)
    assert len({s.cell for s in first}) > 4
    state.patches.append(_dummy_mappatch(first[0].cell))
    for n_g in (1, 3):
        seeds = select_seeds(cloud, cloud.valid_mask, state, n_g=n_g, rng_seed=7)
        state.grid.n_g = n_g
        ref = _loop_select_seeds(cloud, cloud.valid_mask, state, n_g, 7)
        assert [(s.pixel, s.cell) for s in seeds] == ref


def test_select_seeds_empty_mask():
    cloud = _plane_cloud(1.0)
    assert select_seeds(cloud, np.zeros_like(cloud.valid_mask), init_volume()) == []


def test_select_seeds_orders_cells_near_camera_first():
    cloud = _plane_cloud(1.0)
    state = init_volume()
    seeds = select_seeds(cloud, cloud.valid_mask, state, rng_seed=2)
    cam_xz = state.c_t.t[[0, 2]]
    w = state.v_s / state.grid.v_g
    dists = [
        np.linalg.norm((np.array(s.cell, dtype=float) + 0.5) * w - cam_xz) for s in seeds
    ]
    assert dists == sorted(dists)


# ---------------------------------------------------------------------------
# Neighborhood search
# ---------------------------------------------------------------------------


def test_neighborhood_backprojection_matches_kdtree():
    cloud = _plane_cloud(1.0)
    seed = (30, 40)
    a = neighborhood(NeighborhoodIndex(), cloud, np.array(seed), 0.12)
    b = neighborhood(
        NeighborhoodIndex(variant=NeighborhoodVariant.KDTREE),
        cloud,
        np.array(seed),
        0.12,
    )
    sa = set(map(tuple, a.pixels))
    sb = set(map(tuple, b.pixels))
    assert sa == sb
    assert (np.linalg.norm(a.points - cloud.points[seed], axis=1) <= 0.12).all()


def test_neighborhood_backprojection_keeps_scan_order(rocky_cloud_noisy):
    cloud = rocky_cloud_noisy
    kd = NeighborhoodIndex(variant=NeighborhoodVariant.KDTREE)
    seeds = [(240, 320), (100, 500), (400, 60), (2, 2)]
    seeds = [sd for sd in seeds if np.isfinite(cloud.points[sd][2])]
    assert len(seeds) >= 3
    for seed in seeds:
        a = neighborhood(NeighborhoodIndex(), cloud, np.array(seed), 0.15)
        b = neighborhood(kd, cloud, np.array(seed), 0.15)
        assert len(a.pixels) > 13
        assert np.array_equal(a.pixels, b.pixels)  # row-major, element for element
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.covs, b.covs)


def test_fit_sample_subsamples_to_n_f():
    plane = _plane_cloud(1.0)
    cov = np.arange(plane.points.size * 3, dtype=float).reshape(*plane.points.shape, 3)
    cloud = OrganizedCloud(points=plane.points, cov=cov, intrinsics=plane.intrinsics)
    full = neighborhood(NeighborhoodIndex(), cloud, (30, 40), 0.2)
    pts, cvs = fit_sample(full, 50, np.random.default_rng(9))
    assert len(pts) == 50 and len(cvs) == 50
    # a uniform draw without replacement, kept in scan order
    pick = np.sort(np.random.default_rng(9).choice(len(full.points), size=50, replace=False))
    assert np.array_equal(pts, full.points[pick])
    assert np.array_equal(cvs, full.covs[pick])
    assert set(map(tuple, pts)) <= set(map(tuple, full.points))
    again, _ = fit_sample(full, 50, np.random.default_rng(9))
    assert np.array_equal(again, pts)
    # a neighborhood within n_f is taken whole and draws nothing
    rng = np.random.default_rng(9)
    whole, whole_cvs = fit_sample(full, len(full.points), rng)
    assert whole is full.points and whole_cvs is full.covs
    assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state


def test_neighborhood_mesh_does_not_cross_jumps():
    z = np.full((TINY.height, TINY.width), 1.0)
    z[:, 40:] = 1.5
    cloud = _depth_cloud(TINY, z)
    idx = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    nb = neighborhood(idx, cloud, (30, 40 - 5), 10.0)
    assert np.allclose(nb.points[:, 2], 1.0)
    assert len(nb.points) == (z == 1.0).sum()


def test_neighborhood_mesh_chain_distance_on_plane():
    cloud = _plane_cloud(1.0)
    idx = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    nb = neighborhood(idx, cloud, (30, 40), 0.1)
    eucl = neighborhood(NeighborhoodIndex(), cloud, (30, 40), 0.1)
    mesh_set = set(map(tuple, nb.pixels))
    eucl_set = set(map(tuple, eucl.pixels))
    assert mesh_set <= eucl_set  # grid paths only lengthen distances
    assert len(mesh_set) > 0.7 * len(eucl_set)


def test_neighborhood_rejects_bad_seeds():
    cloud = _plane_cloud(1.0)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), cloud, np.array([999, 999]), 0.1)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), cloud, np.array([np.nan, 0.0, 1.0]), 0.1)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), cloud, (10, 10), -0.1)
    holes = cloud.points.copy()
    holes[10, 10] = np.nan
    holed = OrganizedCloud(points=holes, cov=None, intrinsics=cloud.intrinsics)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), holed, np.array([10, 10]), 0.1)


def test_neighborhood_index_validation():
    with pytest.raises(ValueError):
        NeighborhoodIndex(t_es=0.0)
    with pytest.raises(ValueError):
        NeighborhoodIndex(t_ar=0.5)
    with pytest.raises(ValueError):
        NeighborhoodIndex(t_jump=-1.0)


# ---------------------------------------------------------------------------
# Mesh area and the patch-count termination estimate
# ---------------------------------------------------------------------------


def test_mesh_triangles_full_grid_count():
    cloud = _plane_cloud(1.0)
    tri = mesh_triangles(cloud)
    assert len(tri) == 2 * (TINY.height - 1) * (TINY.width - 1)


def test_mesh_triangles_prunes_jump_edges():
    z = np.full((TINY.height, TINY.width), 1.0)
    z[:, 40:] = 1.5
    tri = mesh_triangles(_depth_cloud(TINY, z))
    p = _depth_cloud(TINY, z).points.reshape(-1, 3)[:, 2]
    spans = np.ptp(p[tri], axis=1)
    assert spans.max() < 1e-9  # no triangle mixes both depth levels


def test_surface_area_of_fronto_plane():
    cloud = _plane_cloud(2.0)
    area = surface_area(cloud)
    expect = (TINY.width - 1) * (TINY.height - 1) * (2.0 / TINY.fx) * (2.0 / TINY.fy)
    assert area == pytest.approx(expect, rel=1e-9)


def test_expected_patch_count_unit_case():
    r = 0.17
    assert expected_patch_count(math.pi * r * r, r, 1.0) == pytest.approx(1.0)
    assert expected_patch_count(2.0, 0.1, 0.3) == pytest.approx(0.6 / (math.pi * 0.01))
    with pytest.raises(ValueError):
        expected_patch_count(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        expected_patch_count(1.0, 0.1, -1.0)


# ---------------------------------------------------------------------------
# Volume bookkeeping
# ---------------------------------------------------------------------------


def test_init_volume_places_camera_at_default():
    cam = Pose6(np.array([0.1, -0.2, 0.3]), np.array([5.0, 1.0, -2.0]))
    state = init_volume(cam)
    back = state.camera_world()
    assert np.allclose(back.r, cam.r, atol=1e-12)
    assert np.allclose(back.t, cam.t, atol=1e-12)
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t)


def test_volume_update_fv_never_remaps():
    state = init_volume(policy=MovePolicy.FV)
    far = Pose6(np.zeros(3), np.array([10.0, 0.0, 0.0]))
    state, T = volume_update(state, far)
    assert T is None
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t + [10.0, 0.0, 0.0])


def test_volume_update_fc_below_threshold_tracks_camera():
    state = init_volume(policy=MovePolicy.FC)
    cam = Pose6(np.zeros(3), np.array([0.2, 0.0, 0.0]))
    state, T = volume_update(state, cam)
    assert T is None
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t + [0.2, 0.0, 0.0])


def test_volume_update_fc_restores_fixed_pose_on_drift():
    state = init_volume(policy=MovePolicy.FC)
    cam = Pose6(np.zeros(3), np.array([0.4, 0.0, 0.0]))
    state, T = volume_update(state, cam)
    assert T is not None
    assert np.allclose(state.c_t.r, DEFAULT_CAMERA_IN_VOLUME.r, atol=1e-12)
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t, atol=1e-12)
    back = state.camera_world()
    assert np.allclose(back.t, cam.t, atol=1e-12)


def test_volume_update_fd_realigns_down_axis():
    state = init_volume(policy=MovePolicy.FD)
    g = np.array([math.sin(0.2), math.cos(0.2), 0.0])
    cam = Pose6(np.zeros(3), np.zeros(3))
    state, T = volume_update(state, cam, g=g, forward=[0.0, 0.0, 1.0])
    assert T is not None
    R_vol = exp_map(state.pose_world.r)
    assert np.allclose(R_vol[:, 1], g, atol=1e-12)
    # camera position pinned at the fixed point, orientation free
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t, atol=1e-12)


def test_volume_update_ff_pins_forward_axis():
    state = init_volume(policy=MovePolicy.FF)
    fwd = np.array([math.sin(0.15), 0.0, math.cos(0.15)])
    state, T = volume_update(state, Pose6(np.zeros(3), np.zeros(3)), g=[0.0, 1.0, 0.0], forward=fwd)
    assert T is not None
    R_vol = exp_map(state.pose_world.r)
    assert np.allclose(R_vol[:, 2], fwd, atol=1e-12)


def test_volume_update_fd_requires_vectors():
    state = init_volume(policy=MovePolicy.FD)
    with pytest.raises(ValueError):
        volume_update(state, Pose6(np.zeros(3), np.zeros(3)))


def test_remap_preserves_world_poses():
    state = init_volume(policy=MovePolicy.FC)
    patch = Patch(
        S.ELLIPTIC_PARABOLOID,
        B.ELLIPSE,
        [-1.2, -1.5],
        [0.1, 0.1],
        Pose6(np.array([0.1, 0.2, -0.3]), np.array([2.0, 2.1, 0.8])),
    )
    rec = ValidationRecord(0.001, 3, True, True, True)
    state.patches.append(MapPatch(0, patch, (4, 1), (5, 5), patch.pose.t.copy(), 0, rec))
    world_before = compose_pose(state.pose_world, patch.pose)

    cam = Pose6(np.array([0.0, 0.06, 0.0]), np.array([0.35, 0.0, 0.1]))
    state, T = volume_update(state, cam)
    assert T is not None
    state = remap_patches(state, T)
    assert len(state.patches) == 1
    world_after = compose_pose(state.pose_world, state.patches[0].patch.pose)
    assert np.allclose(world_after.r, world_before.r, atol=1e-9)
    assert np.allclose(world_after.t, world_before.t, atol=1e-9)


def test_remap_culls_patches_leaving_the_cube():
    state = init_volume()
    state.patches.append(_dummy_mappatch((0, 0)))
    push_out = Pose6(np.zeros(3), np.array([10.0, 0.0, 0.0]))
    state = remap_patches(state, push_out)
    assert state.patches == []


def test_remap_behind_camera_cull_is_optional():
    state = init_volume()
    state.c_t = Pose6(np.zeros(3), np.array([2.0, 2.0, 2.0]))
    state.patches.append(_dummy_mappatch((1, 1)))  # origin (2, 2, 0.6): 1.4 m behind
    ident = Pose6(np.zeros(3), np.zeros(3))
    kept = remap_patches(state, ident, d_cp=None)
    assert len(kept.patches) == 1
    gone = remap_patches(state, ident, d_cp=0.5)
    assert gone.patches == []


def test_remap_cull_excess_keeps_oldest():
    state = init_volume()
    for pid in (3, 1, 2):
        state.patches.append(_dummy_mappatch((1, 1), pid=pid))
    ident = Pose6(np.zeros(3), np.zeros(3))
    out = remap_patches(state, ident, cull_excess=True)
    assert [mp.id for mp in out.patches] == [1]


# ---------------------------------------------------------------------------
# map_step end to end on the rocky ramp
# ---------------------------------------------------------------------------


def test_map_step_empty_cloud_is_a_no_op():
    cloud = OrganizedCloud(
        points=np.full((TINY.height, TINY.width, 3), np.nan), cov=None, intrinsics=TINY
    )
    state = init_volume()
    res = map_step(state, cloud, [0.0, 1.0, 0.0])
    assert res.n_seeds == 0 and res.admitted == [] and res.n_attempts == 0
    assert state.frame_index == 1
    assert state.patches == []


def test_map_step_admits_rock_caps(rocky_cloud):
    state = init_volume()
    res = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11)
    assert res.n_seeds >= 3
    assert len(res.admitted) >= 2
    for mp in res.admitted:
        assert mp.patch.s == S.ELLIPTIC_PARABOLOID
        assert mp.validation.passed
        assert mp.validation.residual <= 0.01
        # true cap curvatures lie in [-2.2, -1.2]; the ramp adds little
        assert (-2.6 < np.asarray(mp.patch.k)).all()
        assert (np.asarray(mp.patch.k) < -0.8).all()
        # stored pose is volume frame: transform back to camera depth
        cam_t = np.asarray(mp.patch.pose.t) - state.c_t.t
        assert 0.8 < np.linalg.norm(cam_t) < 2.0
    assert state.patches == res.admitted
    assert state.frame_index == 1


def test_map_step_is_deterministic(rocky_cloud):
    runs = []
    for _ in range(2):
        state = init_volume()
        res = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11)
        runs.append(
            [
                (mp.id, mp.seed_pixel, tuple(np.asarray(mp.patch.k)), tuple(mp.patch.pose.t))
                for mp in res.admitted
            ]
        )
    assert runs[0] == runs[1]


def test_map_step_noisy_frame_still_yields_valid_patches(rocky_cloud_noisy):
    state = init_volume()
    res = map_step(
        state, rocky_cloud_noisy, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11
    )
    assert res.n_attempts >= 3
    assert len(res.admitted) >= 1
    for mp in res.admitted:
        assert mp.validation.residual <= 0.01
        assert mp.validation.passed


def test_map_step_decimated_seed_pixel_is_full_resolution(rocky_cloud):
    cfg = replace(ROCKY_CONFIG, decimate=2, n_f=50)
    state = init_volume()
    res = map_step(state, rocky_cloud, _gravity_cam(), config=cfg, rng_seed=11)
    assert res.admitted
    for mp in res.admitted:
        p = rocky_cloud.points[mp.seed_pixel]
        assert np.array_equal(xform_fwd(p, state.c_t.r, state.c_t.t), mp.seed_point)


def _assert_every_seed_counted(res):
    assert res.n_seeds == len(res.admitted) + sum(res.drops.values())


def test_map_step_work_unit_budget(rocky_cloud):
    state = init_volume()
    res = map_step(
        state,
        rocky_cloud,
        _gravity_cam(),
        budgets=MapBudgets(work_units=1),
        config=ROCKY_CONFIG,
        rng_seed=11,
    )
    assert res.n_attempts == 1
    assert res.drops["budget"] == res.n_seeds - 1
    _assert_every_seed_counted(res)


def test_map_step_patch_count_budget(rocky_cloud):
    state = init_volume()
    res = map_step(
        state,
        rocky_cloud,
        _gravity_cam(),
        budgets=MapBudgets(n_s=1),
        config=ROCKY_CONFIG,
        rng_seed=11,
    )
    assert len(res.admitted) <= 1
    assert len(state.patches) <= 1
    _assert_every_seed_counted(res)


def test_map_step_wall_clock_budget_drops_every_seed(rocky_cloud):
    state = init_volume()
    res = map_step(
        state,
        rocky_cloud,
        _gravity_cam(),
        budgets=MapBudgets(wall_clock_s=0.0),
        config=ROCKY_CONFIG,
        rng_seed=11,
    )
    assert res.n_seeds > 0
    assert res.n_attempts == 0 and res.admitted == []
    assert res.drops["budget"] == res.n_seeds
    _assert_every_seed_counted(res)


def test_map_step_area_target_overshoots_at_most_one_patch(rocky_cloud):
    target = 0.01
    state = init_volume()
    res = map_step(
        state,
        rocky_cloud,
        _gravity_cam(),
        budgets=MapBudgets(area_target=target),
        config=ROCKY_CONFIG,
        rng_seed=11,
    )
    assert res.admitted
    areas = [projected_area(mp.patch) for mp in res.admitted]
    assert sum(areas) >= target
    assert sum(areas) - max(areas) < target
    _assert_every_seed_counted(res)


def test_map_step_curvature_gate_blocks_everything(rocky_cloud):
    tight = SaliencyConfig(
        r=0.15, l_d=0.83, l_f=0.83, phi_g=60.0, kappa_min=-0.05, kappa_max=0.05
    )
    state = init_volume()
    res = map_step(
        state,
        rocky_cloud,
        _gravity_cam(),
        config=replace(ROCKY_CONFIG, saliency=tight),
        rng_seed=11,
    )
    assert res.admitted == []
    assert res.drops["curvature"] == res.n_attempts > 0


def test_map_step_coverage_gate_only_tightens(rocky_cloud):
    res_on, res_off = [], []
    for check in (True, False):
        state = init_volume()
        res = map_step(
            state,
            rocky_cloud,
            _gravity_cam(),
            config=replace(ROCKY_CONFIG, check_coverage=check),
            rng_seed=11,
        )
        (res_on if check else res_off).append(res)
    on, off = res_on[0], res_off[0]
    assert len(off.admitted) >= len(on.admitted)
    assert off.drops["coverage"] == 0
    assert on.drops["coverage"] > 0


def test_map_step_resident_cells_get_no_new_seeds(rocky_cloud):
    state = init_volume()
    first = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11)
    assert first.admitted
    taken = {mp.cell for mp in first.admitted}
    second = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11)
    assert second.n_seeds == first.n_seeds - len(first.admitted)
    assert taken.isdisjoint({mp.cell for mp in second.admitted})
    assert state.frame_index == 2


def _half_covered_cap():
    """Elliptic cap with exact surface samples over its x > 0 half only."""
    patch = _paraboloid([0.0, 0.0, 1.0], np.zeros(3), -1.0, -1.2, 0.1, 0.1)
    x, y = np.meshgrid(np.linspace(0.002, 0.1, 40), np.linspace(-0.1, 0.1, 80))
    x, y = x.ravel(), y.ravel()
    local = np.column_stack([x, y, 0.5 * (-1.0 * x * x - 1.2 * y * y)])
    return patch, local + [0.0, 0.0, 1.0]


def test_gate_patch_skips_coverage_when_disabled():
    patch, pts = _half_covered_cap()
    on = gate_patch(patch, pts, pts, MapConfig())
    assert on.curvature_ok and on.residual_ok and on.residual < 1e-9
    assert not on.coverage_ok and on.bad_cells > 0
    off = gate_patch(patch, pts, pts, MapConfig(check_coverage=False))
    assert off.coverage_ok and off.bad_cells == 0 and off.passed
    assert off.residual == on.residual


def test_gate_patch_evaluates_every_gate():
    patch, pts = _half_covered_cap()
    tight = MapConfig(saliency=SaliencyConfig(kappa_min=-0.5, kappa_max=0.5), d_max=0.0)
    rec = gate_patch(patch, pts, pts, tight)
    assert not (rec.curvature_ok or rec.coverage_ok or rec.passed)
    ref = gate_patch(patch, pts, pts, MapConfig())
    # the residual and coverage after a failed curvature gate are still real
    assert rec.residual == ref.residual and rec.bad_cells == ref.bad_cells > 0
    assert rec.residual_ok == (ref.residual <= 0.0)


@pytest.fixture(scope="module")
def rocky_cloud_off_ray():
    # In this noise draw the valid pixel nearest the point of seed pixel
    # (82, 453), among those around its projection, is (81, 451): a search
    # that snapped the seed's point to a pixel would gate a neighborhood
    # other than the one at the seed pixel.
    return sample_scene(
        _rocky_scene(), KINECT_640, camera_pose=CAM_POSE, noise=StereoNoise(), rng=12
    )


def test_map_step_validation_regates_at_the_seed_pixel(rocky_cloud_off_ray):
    cloud = rocky_cloud_off_ray
    cfg = replace(ROCKY_CONFIG, n_f=10**6)  # the fit sees the whole neighborhood
    state = init_volume()
    res = map_step(state, cloud, _gravity_cam(), config=cfg, rng_seed=11)
    assert res.admitted
    to_cam = pose_inverse(state.c_t)
    for mp in res.admitted:
        patch, _ = transform_patch(mp.patch, to_cam)
        nb = neighborhood(cfg.neighborhood, cloud, mp.seed_pixel, cfg.saliency.r)
        again = gate_patch(patch, nb.points, nb.points, cfg)
        assert again.residual == pytest.approx(mp.validation.residual, rel=1e-9)
        assert again.bad_cells == mp.validation.bad_cells
        assert again.passed


# ---------------------------------------------------------------------------
# Pose chain covariance
# ---------------------------------------------------------------------------


def test_chain_covariance_identity_link_passes_through():
    link = ChainLink(Pose6(np.zeros(3), np.zeros(3)), 1)
    sig = np.diag([1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4])
    out = chain_covariance([link], [sig])
    assert np.allclose(out, sig, atol=1e-12)


def test_chain_covariance_zero_input_gives_zero():
    links = [
        ChainLink(Pose6(np.array([0.2, -0.1, 0.3]), np.array([1.0, 0.0, 0.5])), 1),
        ChainLink(Pose6(np.array([0.1, 0.4, -0.2]), np.array([0.0, 2.0, 0.0])), -1),
    ]
    out = chain_covariance(links, [np.zeros((6, 6)), np.zeros((6, 6))])
    assert np.allclose(out, 0.0)


def test_chain_covariance_matches_monte_carlo():
    rng = np.random.default_rng(7)
    links = [
        ChainLink(Pose6(np.array([0.3, -0.2, 0.5]), np.array([1.0, 0.2, -0.4])), 1),
        ChainLink(Pose6(np.array([-0.1, 0.4, 0.2]), np.array([0.5, -1.0, 0.3])), -1),
    ]
    covs = [
        np.diag([2e-4, 1e-4, 3e-4, 4e-4, 2e-4, 1e-4]),
        np.diag([1e-4, 2e-4, 1e-4, 2e-4, 3e-4, 2e-4]),
    ]
    ana = chain_covariance(links, covs)
    mc = mc_chain_cov(links, covs, 20000, rng)
    assert np.abs(ana - mc).max() / np.abs(mc).max() < 0.1


def test_chain_covariance_five_dof_projection():
    links = [ChainLink(Pose6(np.array([0.2, 0.1, -0.3]), np.array([0.4, 0.0, 1.0])), 1)]
    covs = [np.eye(6) * 1e-4]
    full = chain_covariance(links, covs)
    five = chain_covariance(links, covs, five_dof=True)
    assert five.shape == (5, 5)
    evals = np.linalg.eigvalsh(five)
    assert (evals > -1e-15).all()
    # translation block is untouched by the rotation reduction
    assert np.allclose(five[2:, 2:], full[3:, 3:], atol=1e-12)


def test_chain_covariance_input_validation():
    link = ChainLink(Pose6(np.zeros(3), np.zeros(3)), 1)
    with pytest.raises(ValueError):
        chain_covariance([], [])
    with pytest.raises(ValueError):
        chain_covariance([link], [])
    with pytest.raises(ValueError):
        chain_covariance([link], [np.eye(5)])
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        chain_covariance([link], [bad])
