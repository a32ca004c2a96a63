"""Mapping pipeline tests.

Normals solved at every pixel are checked against analytic plane and
sphere normals and the eigh oracle, the seed walk against a one-pixel-at-a-
time walk and a uniform draw, and the frame-level machinery (decimation,
saliency, seeding, neighborhoods, volume bookkeeping) against small
synthetic organized clouds built directly from camera intrinsics. The end-to-end map_step runs on a ray-cast rocky ramp
whose ground truth curvatures are known.
"""

import copy
import math
from collections import Counter
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
    ValidationRecord,
    VolumeState,
    fit_sample,
    fixation_point,
    gate_patch,
    init_volume,
    integral_normals,
    map_step,
    median_decimate,
    mesh_triangles,
    neighborhood,
    remap_patches,
    saliency_filter,
    select_seeds,
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
from patchscape.pose import ChainLink, Pose6, compose_chain, exp_map, pose_inverse, rxy_for_zdir, rxy_to_r, xform_fwd
from patchscape.sensor import (
    KINECT_640,
    OrganizedCloud,
    StereoNoise,
    pixel_rays,
    sample_scene,
    unpack_cov,
)

from _oracles import (
    connected_ball_neighborhood,
    cumsum_moment_integral,
    dense_saliency,
    eigh_integral_normals,
    kdtree_neighborhood,
    loop_map_step,
    loop_median_decimate,
    loop_mesh_triangles,
    whole_frame_mesh_edges,
)

S, B = SurfaceType, BoundaryType

TINY = replace(KINECT_640, fx=100.0, fy=100.0, width=80, height=60, cx=39.5, cy=29.5)


def _depth_cloud(intr, z):
    """Organized cloud from a (H, W) depth image (NaN = no return)."""
    z = np.broadcast_to(np.asarray(z, dtype=float), (intr.height, intr.width))
    return OrganizedCloud(points=pixel_rays(intr) * z[..., None], cov=None, intrinsics=intr)


def _plane_cloud(z0=1.0, intr=TINY):
    return _depth_cloud(intr, np.full((intr.height, intr.width), z0))


def _moments(cloud):
    return mapping._moment_integral(cloud.points, cloud.valid_mask)


def _every_pixel(cloud):
    """(v, u) of every pixel of the frame, in row-major order."""
    return np.indices(cloud.valid_mask.shape).reshape(2, -1)


def _normal_images(cloud, r):
    """integral_normals at every pixel, as two (H, W, 3) images."""
    n, n_s = integral_normals(cloud, _moments(cloud), r, *_every_pixel(cloud))
    return n.reshape(cloud.points.shape), n_s.reshape(cloud.points.shape)


def _salient_mask(cloud, g, cfg=SaliencyConfig()):
    """saliency_filter's verdict at every pixel, as an (H, W) mask."""
    ok = saliency_filter(cloud, _moments(cloud), g, cfg, *_every_pixel(cloud))
    return ok.reshape(cloud.valid_mask.shape)


def _lookup(mask):
    """A salient(v, u) callable that reads its verdicts from a boolean mask."""
    return lambda v, u: mask[v, u]


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
# Median decimation
# ---------------------------------------------------------------------------


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
    out, source = median_decimate(cloud, 2)
    assert out.points.shape == (2, 2, 3) and source.shape == (2, 2, 2)
    # four valid: lower median of {1,2,3,4} is 2, at full-res pixel (0, 1)
    assert np.allclose(out.points[0, 0], cloud.points[0, 1])
    assert source[0, 0].tolist() == [0, 1]
    # single valid member carries through; fully invalid block stays NaN
    assert np.allclose(out.points[1, 0], cloud.points[2, 0])
    assert source[1, 0].tolist() == [2, 0]
    assert np.isnan(out.points[1, 1]).all()
    assert out.intrinsics.fx == pytest.approx(intr.fx / 2)

    # a holey frame whose size the factor does not divide: every kept point
    # is its source pixel's point bit for bit, and every source pixel lies
    # in its own block
    rng = np.random.default_rng(4)
    z = rng.uniform(0.5, 3.0, (TINY.height, TINY.width))
    z[rng.random(z.shape) < 0.6] = np.nan
    z[:20, :20] = np.nan  # whole blocks without a return at every factor
    cloud = _depth_cloud(TINY, z)
    for factor in (2, 3, 7):
        out, source = median_decimate(cloud, factor)
        kept = cloud.points[source[..., 0], source[..., 1]]
        valid = out.valid_mask
        assert valid.any() and not valid.all()
        assert out.points[valid].tobytes() == kept[valid].tobytes()
        assert np.isnan(kept[~valid]).all()
        blocks = np.stack(np.indices(out.points.shape[:2]), axis=-1)
        assert np.array_equal(source // factor, blocks)


def test_median_decimate_breaks_depth_ties_by_block_order():
    # quantized depths tie inside most blocks; tied members hold the same z
    # but another x, y and covariance, so the pick must not depend on the
    # sort the platform happens to use
    intr = replace(TINY, width=64, height=64, cx=31.5, cy=31.5)
    z = np.random.default_rng(6).choice([0.5, 1.0, 1.5], size=(64, 64))
    cov = np.random.default_rng(7).random((64, 64, 6))
    cloud = OrganizedCloud(points=_depth_cloud(intr, z).points, cov=cov, intrinsics=intr)
    out, source = median_decimate(cloud, 2)
    n_tied = 0
    for i, j in np.ndindex(32, 32):
        members = [(2 * i + a, 2 * j + b) for a in range(2) for b in range(2)]
        ranked = sorted(members, key=lambda px: z[px])  # a stable sort
        pick = ranked[1]
        n_tied += z[ranked[0]] == z[pick] or z[ranked[2]] == z[pick]
        assert tuple(source[i, j]) == pick
        assert out.points[i, j].tobytes() == cloud.points[pick].tobytes()
        assert out.cov[i, j].tobytes() == cov[pick].tobytes()
    assert n_tied > 512


@pytest.mark.parametrize("factor", range(1, 16))
def test_median_decimate_matches_loop_oracle(factor):
    # a 61x83 frame, which no factor past 1 divides; depths tie, hold NaN,
    # +-inf and +-0.0, and x, y and the covariance differ per pixel, so a
    # different pick among tied members shows. Factors 1-15 cover every
    # block width median_decimate takes; the all-NaN corner holds an empty
    # block at each of them.
    rng = np.random.default_rng(factor)
    intr = replace(TINY, width=83, height=61, cx=41.0, cy=30.0)
    pts = rng.normal(size=(61, 83, 3))
    z = rng.choice([0.5, 1.0, 1.5, 0.0, -0.0, np.nan, np.inf, -np.inf], size=(61, 83))
    smooth = rng.random((61, 83)) < 0.3
    z[smooth] = rng.uniform(0.5, 2.0, smooth.sum())
    z[rng.random((61, 83)) < 0.05] = np.nan  # also blocks of one valid member, or none
    z[:15, :15] = np.nan
    pts[..., 2] = z
    cloud = OrganizedCloud(points=pts, cov=rng.random((61, 83, 6)), intrinsics=intr)
    out, source = median_decimate(cloud, factor)
    want_pts, want_cov, want_source = loop_median_decimate(cloud, factor)
    assert source.tobytes() == want_source.tobytes()
    assert out.points.tobytes() == want_pts.tobytes()
    assert out.cov.tobytes() == want_cov.tobytes()
    assert out.valid_mask.any() and not out.valid_mask.all()


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 15])
def test_median_decimate_picks_the_middle_of_an_all_tied_block(factor):
    # the member at position (n - 1) // 2 of the stable order, which for a
    # block of four tied depths is (0, 1), not the earliest member (0, 0)
    intr = replace(TINY, width=factor, height=factor, cx=0.0, cy=0.0)
    cloud = _depth_cloud(intr, np.ones((factor, factor)))
    out, source = median_decimate(cloud, factor)
    pick = divmod((factor * factor - 1) // 2, factor)
    assert tuple(source[0, 0]) == pick
    assert out.points[0, 0].tobytes() == cloud.points[pick].tobytes()


def test_median_decimate_carries_matching_covariance():
    intr = replace(TINY, width=4, height=2, cx=1.5, cy=0.5)
    z = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    cov = np.arange(4 * 2 * 6, dtype=float).reshape(2, 4, 6)
    cloud = OrganizedCloud(points=_depth_cloud(intr, z).points, cov=cov, intrinsics=intr)
    out, _ = median_decimate(cloud, 2)
    assert out.cov.shape == (1, 2, 6)
    assert np.array_equal(out.cov[0, 0], cov[0, 1])
    assert np.array_equal(out.cov[0, 1], cov[0, 3])


def test_median_decimate_rejects_bad_factor():
    # past 15, a block's 256 or more members overflow the uint8 rank count
    for factor in (0, 16):
        with pytest.raises(ValueError, match=r"^factor must lie in \[1, 15\]$"):
            median_decimate(_plane_cloud(), factor)
    with pytest.raises(ValueError, match=r"^decimate must lie in \[0, 15\]$"):
        MapConfig(decimate=16)


# ---------------------------------------------------------------------------
# Two-scale normals from one moment image
# ---------------------------------------------------------------------------


def test_integral_normals_fronto_plane_exact():
    cloud = _plane_cloud(1.0)
    n, n_s = _normal_images(cloud, 0.08)
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

    n, _ = _normal_images(cloud, 0.06)
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
    n, n_s = _normal_images(cloud, 0.1)
    assert np.isnan(n[25, 35]).all()
    ok = np.isfinite(n[..., 0])
    # toward-camera orientation means negative dot with the point ray
    dots = np.einsum("ij,ij->i", n[ok], cloud.points[ok])
    assert (dots < 0).all()
    assert np.allclose(np.linalg.norm(n[ok], axis=1), 1.0, atol=1e-9)


def test_integral_normals_rejects_bad_inputs():
    cloud = _plane_cloud()
    for r in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="r must be positive"):
            integral_normals(cloud, _moments(cloud), r, *_every_pixel(cloud))
    with pytest.raises(ValueError):
        _normal_images(replace(cloud, intrinsics=replace(TINY, fx=-1.0)), 0.1)


def test_integral_normals_window_wider_than_any_frame_is_the_whole_frame():
    # at z = 1e-310 the window width 2 r f / z overflows to inf; the pixel's
    # windows clip to the whole frame, with no overflow or cast warning
    intr = replace(TINY, width=30, height=20, cx=14.5, cy=9.5)
    rows, cols = np.indices((intr.height, intr.width))
    z = 1.0 + 0.01 * cols + 0.02 * rows
    z[10, 15] = 1e-310
    cloud = _depth_cloud(intr, z)
    ii = cumsum_moment_integral(cloud.points, cloud.valid_mask)
    whole = ii[:, -1, -1] - ii[:, 0, -1] - ii[:, -1, 0] + ii[:, 0, 0]
    want = mapping._window_normals(whole[:, None])
    assert np.isfinite(want).all()
    n, n_s = integral_normals(cloud, _moments(cloud), 0.1, np.array([10]), np.array([15]))
    assert np.array_equal(n, want) and np.array_equal(n_s, want)


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
    n, n_s = _normal_images(cloud, 0.1)
    monkeypatch.setattr(mapping.np.linalg, "eigh", eigh)
    assert sum(calls) == 2 * 60  # every window, at both scales
    ref, ref_s = eigh_integral_normals(cloud, 0.1)
    assert np.array_equal(n, ref, equal_nan=True)
    assert np.array_equal(n_s, ref_s, equal_nan=True)


@pytest.mark.parametrize("cfg", [SaliencyConfig(), ROCKY_SALIENCY])
def test_integral_normals_saliency_matches_eigh_reference(rocky_cloud_noisy, cfg):
    cloud = rocky_cloud_noisy
    new = _normal_images(cloud, cfg.r)
    ref = eigh_integral_normals(cloud, cfg.r)
    for a, b in zip(new, ref):
        assert np.array_equal(np.isfinite(a), np.isfinite(b))
        ok = np.isfinite(a[..., 0])
        assert np.linalg.norm(np.cross(a[ok], b[ok]), axis=1).max() <= 1e-9
        assert (np.einsum("ij,ij->i", a[ok], b[ok]) > 0.0).all()
    g = _gravity_cam()
    mask = _salient_mask(cloud, g, cfg)
    assert mask.any()
    assert np.array_equal(mask, dense_saliency(cloud, ref, g, cfg))


def test_integral_normals_solves_only_where_asked(rocky_cloud_noisy):
    cloud, _ = median_decimate(rocky_cloud_noisy, 4)
    dense_n, dense_ns = _normal_images(cloud, 0.15)
    v, u = _every_pixel(cloud)
    asked = v % 2 == 0  # every other row, valid or not
    v, u = v[asked], u[asked]

    def keep(n):
        return n[:, 2] < -0.8

    n, n_s = integral_normals(cloud, _moments(cloud), 0.15, v, u, keep=keep)
    assert n.shape == n_s.shape == (len(v), 3)
    solved = cloud.valid_mask[v, u]
    with np.errstate(invalid="ignore"):
        fine = solved & (dense_n[v, u, 2] < -0.8)
    assert 0 < fine.sum() < solved.sum() < len(v)
    for got, want, at in ((n, dense_n, solved), (n_s, dense_ns, fine)):
        assert np.array_equal(got[at], want[v[at], u[at]], equal_nan=True)
        assert np.isnan(got[~at]).all()


def test_integral_normals_rows_follow_their_own_pixel(rocky_cloud_noisy):
    # a shuffled pixel list with repeats gives every pixel the bytes it gets
    # in a list of distinct pixels, whatever order the pixels are solved in
    cloud, _ = median_decimate(rocky_cloud_noisy, 4)
    ii = _moments(cloud)
    v, u = _every_pixel(cloud)

    def keep(n):
        return n[:, 2] < -0.8

    n, n_s = integral_normals(cloud, ii, 0.15, v, u, keep=keep)
    rng = np.random.default_rng(8)
    at = rng.permutation(np.concatenate([np.arange(len(v)), rng.choice(len(v), len(v) // 2)]))
    got, got_s = integral_normals(cloud, ii, 0.15, v[at], u[at], keep=keep)
    assert np.isfinite(n_s).any() and np.isnan(n).any()
    assert got.tobytes() == n[at].tobytes()
    assert got_s.tobytes() == n_s[at].tobytes()


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
    normals = _normal_images(cloud, 0.08)
    # g toward +z puts the fixation point on the plane dead ahead
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=0.3, phi_g=10.0)
    mask = _salient_mask(cloud, np.array([0.0, 0.0, 1.0]), cfg)
    assert mask.any()
    d = np.linalg.norm(cloud.points[mask] - np.array([0.0, 0.0, 1.0]), axis=1)
    assert d.max() <= 0.3 + 1e-12
    inner = np.linalg.norm(cloud.points - [0.0, 0.0, 1.0], axis=-1) < 0.25
    inner &= np.isfinite(normals[0][..., 0])
    assert mask[inner].all()


def test_saliency_slope_gate_cuts_tilted_gravity():
    cloud = _plane_cloud(1.0)
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=0.5, phi_g=35.0)
    ok = _salient_mask(cloud, [0.0, 0.0, 1.0], cfg)
    assert ok.any()
    g_tilted = np.array([0.0, math.sin(math.radians(40.0)), math.cos(math.radians(40.0))])
    none = _salient_mask(cloud, g_tilted, cfg)
    assert not none.any()


def test_saliency_normal_disagreement_cuts_creases():
    # roof: two 45-degree half-planes meeting at the center column; the
    # fine window commits to one face while the coarse one still
    # straddles, so the disagreement peaks in a band beside the seam
    u = (np.arange(TINY.width) - TINY.cx) / TINY.fx
    z = 1.0 + np.abs(u)[None, :] * np.ones((TINY.height, 1))
    cloud = _depth_cloud(TINY, z)
    cfg = SaliencyConfig(r=0.08, l_d=1.0, l_f=0.0, R=10.0, phi_d=10.0, phi_g=80.0)
    mask = _salient_mask(cloud, [0.0, 0.0, 1.0], cfg)
    mid = TINY.width // 2
    band = mask[6:-6, mid - 8 : mid + 8]
    assert (~band).sum() >= 2 * band.shape[0]  # a cut column on each side
    assert mask[6:-6, 12 : mid - 12].all()
    assert mask[6:-6, mid + 12 : -12].all()


def _holey(cloud):
    """cloud at 1/8 resolution with 85% of its pixels knocked out.

    Fine windows there hold as few as one or two points, so _MIN_SUPPORT
    leaves some N_s unsolved where N exists.
    """
    small, _ = median_decimate(cloud, 8)
    pts = small.points.copy()
    pts[np.random.default_rng(1).random(pts.shape[:2]) < 0.85] = np.nan
    return OrganizedCloud(points=pts, cov=None, intrinsics=small.intrinsics)


def _dtfp(cloud, g, cfg):
    gv = np.asarray(g, dtype=float) / np.linalg.norm(g)
    with np.errstate(invalid="ignore"):
        return np.linalg.norm(cloud.points - fixation_point(gv, cfg.l_d, cfg.l_f), axis=-1) <= cfg.R


def _oracle_layout(ii):
    """A _moment_integral image as the (10, H + 1, W + 1) array of the oracle."""
    return np.ascontiguousarray(ii.reshape(len(ii), -1, 10).transpose(2, 1, 0))


_ODD_FRAMES = ["ragged", "short", "one_pixel", "one_row", "one_column", "all_invalid",
               "signed_zeros", "huge"]


def _odd_frame(kind):
    """(points, valid) of a frame whose size or values the moment image must
    take as the oracle does: a height that is not a multiple of _ROWS, one
    block's worth or less, a single pixel, row or column, no valid pixel,
    coordinates of +-0.0, and coordinates whose moments overflow."""
    rows = mapping._ROWS
    shape = {"ragged": (2 * rows + 5, 23), "short": (rows - 3, 41), "one_pixel": (1, 1),
             "one_row": (1, 29), "one_column": (rows + 1, 1)}.get(kind, (rows + 2, 13))
    rng = np.random.default_rng(7)
    p = rng.normal(size=shape + (3,))
    if kind == "signed_zeros":
        p[rng.random(p.shape) < 0.6] = 0.0
        p[rng.random(p.shape) < 0.5] *= -1.0
    if kind == "huge":
        p *= 10.0 ** rng.uniform(100.0, 300.0, size=p.shape)
    if kind != "one_pixel":
        p[rng.random(shape) < (1.0 if kind == "all_invalid" else 0.2)] = np.nan
    return p, np.isfinite(p).all(axis=-1)


@pytest.mark.parametrize("frame", ["full", "decimated", "holes", *_ODD_FRAMES])
def test_moment_integral_matches_cumsum_oracle(rocky_cloud_noisy, frame):
    if frame in _ODD_FRAMES:
        points, valid = _odd_frame(frame)
    else:
        cloud = {"full": rocky_cloud_noisy, "decimated": median_decimate(rocky_cloud_noisy, 2)[0],
                 "holes": _holey(rocky_cloud_noisy)}[frame]
        points, valid = cloud.points, cloud.valid_mask
    if frame == "signed_zeros":
        assert np.signbit(points[valid & (points[..., 0] == 0.0), 0]).any()
    # "huge": the moments overflow to inf, and their sums to NaN
    quiet = {"over": "ignore", "invalid": "ignore"} if frame == "huge" else {}
    with np.errstate(**quiet):
        got = _oracle_layout(mapping._moment_integral(points, valid))
        want = cumsum_moment_integral(points, valid)
    if frame == "huge":
        assert not np.isfinite(want).all()
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["ragged", "short", "one_pixel", "one_row", "one_column"])
def test_box_sums_match_cumsum_oracle_corners(kind):
    # every pixel of the frame, at half-widths that clip the window on one,
    # several or every side, up to three times the frame
    points, valid = _odd_frame(kind)
    h, w = valid.shape
    ii = cumsum_moment_integral(points, valid)
    v, u = np.indices((h, w)).reshape(2, -1)
    rng = np.random.default_rng(3)
    for half in (np.ones_like(v), rng.integers(1, 3 * max(h, w) + 1, len(v)),
                 np.full_like(v, 3 * max(h, w))):
        lo_v, hi_v = np.clip(v - half, 0, h), np.clip(v + half + 1, 0, h)
        lo_u, hi_u = np.clip(u - half, 0, w), np.clip(u + half + 1, 0, w)
        want = ii[:, hi_v, hi_u] - ii[:, lo_v, hi_u] - ii[:, hi_v, lo_u] + ii[:, lo_v, lo_u]
        got = mapping._box_sums(mapping._moment_integral(points, valid), v, u, half)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_dist_matches_linalg_norm():
    rng = np.random.default_rng(5)
    n = 6000
    p = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 3))
    rows = np.flatnonzero(rng.random(n) < 0.1)
    p[rows, rng.integers(0, 3, len(rows))] = np.nan
    for c in (np.zeros(3), rng.normal(size=3) * [1e-6, 1.0, 1e6]):
        for pts in (p, p.reshape(60, 100, 3)):
            got = mapping._dist(pts, c)
            want = np.linalg.norm(pts - c, axis=-1)
            nan = np.isnan(want)
            assert nan.sum() == len(rows)
            assert np.array_equal(np.isnan(got), nan)
            np.testing.assert_array_max_ulp(got[~nan], want[~nan], maxulp=1)


@pytest.mark.parametrize(
    "frame, cfg",
    [("full", SaliencyConfig()), ("full", ROCKY_SALIENCY), ("decimated", ROCKY_SALIENCY),
     ("holes", ROCKY_SALIENCY)],
    ids=["default", "rocky", "decimated", "holes"],
)
def test_saliency_cascade_matches_dense_oracle(rocky_cloud_noisy, frame, cfg):
    cloud = {"full": rocky_cloud_noisy, "decimated": median_decimate(rocky_cloud_noisy, 2)[0],
             "holes": _holey(rocky_cloud_noisy)}[frame]
    g = _gravity_cam()
    dense = _normal_images(cloud, cfg.r)
    if frame == "holes":
        near = cloud.valid_mask & _dtfp(cloud, g, cfg)
        assert (near & np.isfinite(dense[0][..., 0]) & np.isnan(dense[1][..., 0])).any()
    mask = _salient_mask(cloud, g, cfg)
    assert mask.any()
    assert np.array_equal(mask, dense_saliency(cloud, dense, g, cfg))
    assert np.array_equal(mask, dense_saliency(cloud, eigh_integral_normals(cloud, cfg.r), g, cfg))


@pytest.mark.parametrize("frame", ["full", "holes"])
def test_saliency_cascade_solves_each_scale_only_where_needed(
    rocky_cloud_noisy, monkeypatch, frame
):
    cloud = rocky_cloud_noisy if frame == "full" else _holey(rocky_cloud_noisy)
    cfg, g = ROCKY_SALIENCY, _gravity_cam()
    n, _ = _normal_images(cloud, cfg.r)
    near = cloud.valid_mask & _dtfp(cloud, g, cfg)
    with np.errstate(invalid="ignore"):
        dong = -(n @ (g / np.linalg.norm(g))) >= math.cos(math.radians(cfg.phi_g))
    n_coarse, n_fine = int(near.sum()), int((near & dong).sum())
    assert 0 < n_fine < n_coarse < cloud.valid_mask.sum()

    sizes = []
    window_normals = mapping._window_normals

    def spy(s):
        sizes.append(s.shape[1])
        return window_normals(s)

    monkeypatch.setattr(mapping, "_window_normals", spy)
    _salient_mask(cloud, g, cfg)

    def blocks(m):
        return [mapping._BLOCK] * (m // mapping._BLOCK) + [m % mapping._BLOCK] * bool(m % mapping._BLOCK)

    assert sizes == blocks(n_coarse) + blocks(n_fine)


@pytest.mark.parametrize("g", [[0.0, 0.0, 0.0], [0.0, np.nan, 1.0], [0.0, 1.0], [0.0, np.inf, 1.0]])
def test_saliency_rejects_bad_gravity(g):
    cloud = _plane_cloud()
    with pytest.raises(ValueError, match="gravity"):
        _salient_mask(cloud, g)
    with pytest.raises(ValueError, match="gravity"):
        map_step(init_volume(), cloud, g)


def test_saliency_config_validation():
    for r in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            SaliencyConfig(r=r)
    with pytest.raises(ValueError):
        SaliencyConfig(phi_d=90.0)
    # a NaN fixation point puts every pixel outside the region of interest:
    # no seeds, and no error
    for bad in ({"l_d": math.nan}, {"l_f": math.inf}):
        with pytest.raises(ValueError, match="l_d and l_f must be finite"):
            SaliencyConfig(**bad)
    gate = SaliencyConfig()
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


def _every(v, u):
    return np.ones(len(v), dtype=bool)


def test_select_seeds_cell_cap_and_determinism():
    cloud = _plane_cloud(1.0)
    mask = cloud.valid_mask.copy()
    state = init_volume()
    seeds = select_seeds(cloud, mask, _every, state, rng_seed=4)
    assert seeds
    cells = [s.cell for s in seeds]
    assert len(cells) == len(set(cells))  # n_g = 1: one per cell
    again = select_seeds(cloud, mask, _every, state, rng_seed=4)
    assert [s.pixel for s in again] == [s.pixel for s in seeds]
    other = select_seeds(cloud, mask, _every, state, rng_seed=5)
    assert [s.pixel for s in other] != [s.pixel for s in seeds]
    for s in seeds:
        assert mask[s.pixel]
        assert np.allclose(s.point, cloud.points[s.pixel])


def test_select_seeds_respects_resident_occupancy():
    cloud = _plane_cloud(1.0)
    mask = cloud.valid_mask.copy()
    state = init_volume()
    free = select_seeds(cloud, mask, _every, state, rng_seed=0)
    taken_cell = free[0].cell
    state.patches.append(_dummy_mappatch(taken_cell))
    refit = select_seeds(cloud, mask, _every, state, rng_seed=0)
    assert taken_cell not in [s.cell for s in refit]
    assert len(refit) == len(free) - 1


def test_select_seeds_n_g_override_allows_more():
    cloud = _plane_cloud(1.0)
    state = init_volume()
    one = select_seeds(cloud, cloud.valid_mask, _every, state, rng_seed=1)
    state.n_g = 3
    many = select_seeds(cloud, cloud.valid_mask, _every, state, rng_seed=1)
    per_cell = {}
    for s in many:
        per_cell[s.cell] = per_cell.get(s.cell, 0) + 1
    assert max(per_cell.values()) <= 3
    assert len(many) > len(one)


def _cell_groups(cloud, candidates, volume):
    """{cell: candidate pixels in scan order}, grouped one pixel at a time."""
    pts_vol = xform_fwd(cloud.points[candidates], volume.c_t.r, volume.c_t.t)
    w = volume.v_s / volume.v_g
    by_cell = {}
    for (i, j), p in zip(np.argwhere(candidates), pts_vol):
        ix, iz = math.floor(p[0] / w), math.floor(p[2] / w)
        if 0 <= ix < volume.v_g and 0 <= iz < volume.v_g:
            by_cell.setdefault((ix, iz), []).append((int(i), int(j)))
    return by_cell


def _loop_select_seeds(cloud, candidates, salient, volume, n_g, rng_seed, walks=None):
    """select_seeds as a walk that tests one pixel at a time: the direct form.

    walks, when given, is filled with {cell: its pixels in walk order}.
    """
    rng = np.random.default_rng(rng_seed)
    by_cell = _cell_groups(cloud, candidates, volume)
    w = volume.v_s / volume.v_g
    cam_xz = volume.c_t.t[[0, 2]]
    occupancy = {}
    for mp in volume.patches:
        occupancy[mp.cell] = occupancy.get(mp.cell, 0) + 1

    def rank(cell):
        return (float(np.linalg.norm((np.array(cell, dtype=float) + 0.5) * w - cam_xz)), cell)

    out, tested = [], []
    for cell in sorted(by_cell, key=rank):
        room = n_g - occupancy.get(cell, 0)
        if room <= 0:
            continue
        cands = by_cell[cell]
        chosen = []
        perm = rng.permutation(len(cands))
        if walks is not None:
            walks[cell] = [cands[c] for c in perm]
        for c in perm:
            if len(chosen) == room:
                break
            i, j = cands[c]
            tested.append((i, j))
            if salient(np.array([i]), np.array([j]))[0]:
                chosen.append(c)
        out += [(cands[c], cell) for c in sorted(chosen)]
    return out, tested


def _recording(salient):
    """salient, plus the list of every pixel it was asked about, in call order."""
    asked = []

    def wrapped(v, u):
        asked.extend(zip(v.tolist(), u.tolist()))
        return salient(v, u)

    return wrapped, asked


def test_select_seeds_matches_loop_grouping(rocky_cloud_noisy):
    cloud, _ = median_decimate(rocky_cloud_noisy, 2)
    g, cfg = _gravity_cam(), ROCKY_SALIENCY
    near = cloud.valid_mask & _dtfp(cloud, g, cfg)
    dense = _salient_mask(cloud, g, cfg)
    # a sparse mask makes walks cross several chunks before their first pass
    sparse = dense & (np.random.default_rng(0).random(near.shape) < 0.01)
    state = init_volume()
    first = select_seeds(cloud, near, _every, state, rng_seed=3)
    assert len({s.cell for s in first}) > 4
    state.patches.append(_dummy_mappatch(first[0].cell))
    for mask in (dense, sparse):
        for n_g in (1, 3):
            state.n_g = n_g
            salient, asked = _recording(_lookup(mask))
            seeds = select_seeds(cloud, near, salient, state, rng_seed=7)
            ref, tested = _loop_select_seeds(cloud, near, _lookup(mask), state, n_g, 7)
            assert [(s.pixel, s.cell) for s in seeds] == ref
            # each pixel is tested once: the loop's, plus the rest of the
            # chunk each cell stopped in
            assert len(set(asked)) == len(asked)
            assert set(tested) <= set(asked)
            assert len(asked) - len(tested) < len({s.cell for s in first}) * mapping._BLOCK
            if mask is dense:
                assert len(asked) < near.sum() / 4


@pytest.fixture(scope="module")
def small_salient_frame(rocky_cloud_noisy):
    """(cloud, DtFP candidates, dense oracle mask) of a 1/8-resolution rocky frame.

    On a v_g = 32 volume its salient pixels fall in cells of 1 to ~170.
    """
    cloud, _ = median_decimate(rocky_cloud_noisy, 8)
    g, cfg = _gravity_cam(), ROCKY_SALIENCY
    dense = dense_saliency(cloud, eigh_integral_normals(cloud, cfg.r), g, cfg)
    assert np.array_equal(_salient_mask(cloud, g, cfg), dense)
    return cloud, cloud.valid_mask & _dtfp(cloud, g, cfg), dense


def test_select_seeds_draws_uniformly_from_each_cells_salient_pixels(small_salient_frame):
    # n_g = 1: under uniform sampling, each cell's seed over N independent
    # draws is multinomial over its salient pixels with equal
    # probabilities. One chi-square test per cell, family-wise alpha 1e-3
    # (Bonferroni), fixed before the run.
    from scipy.stats import chi2

    alpha, n_draws = 1e-3, 1000
    cloud, near, dense = small_salient_frame
    state = init_volume(v_g=32)
    salient_by_cell = {
        cell: [px for px in pixels if dense[px]]
        for cell, pixels in _cell_groups(cloud, near, state).items()
    }
    counts = {cell: Counter() for cell in salient_by_cell}
    for rng_seed in range(n_draws):
        for s in select_seeds(cloud, near, _lookup(dense), state, rng_seed=rng_seed):
            counts[s.cell][s.pixel] += 1
    tested = [cell for cell, px in salient_by_cell.items() if len(px) > 1]
    assert len(tested) >= 8 and max(len(salient_by_cell[c]) for c in tested) > 100
    for cell, pixels in salient_by_cell.items():
        # one seed per draw in every cell with a salient pixel, none elsewhere
        assert sum(counts[cell].values()) == (n_draws if pixels else 0)
        assert set(counts[cell]) <= set(pixels)
    for cell in tested:
        pixels = salient_by_cell[cell]
        expected = n_draws / len(pixels)
        assert expected >= 5.0
        stat = sum((counts[cell][px] - expected) ** 2 / expected for px in pixels)
        assert stat <= chi2.ppf(1.0 - alpha / len(tested), len(pixels) - 1), cell


def test_select_seeds_walks_a_cell_without_salient_pixels_to_its_end():
    cloud = _plane_cloud(1.0)
    state = init_volume()
    groups = _cell_groups(cloud, cloud.valid_mask, state)
    bare = max(groups, key=lambda c: len(groups[c]))
    assert len(groups[bare]) > 2 * mapping._FIRST_CHUNK
    mask = cloud.valid_mask.copy()
    mask[tuple(np.array(groups[bare]).T)] = False
    for rng_seed in range(5):
        salient, asked = _recording(_lookup(mask))
        seeds = select_seeds(cloud, cloud.valid_mask, salient, state, rng_seed=rng_seed)
        assert {s.cell for s in seeds} == set(groups) - {bare}
        assert set(groups[bare]) <= set(asked)
        assert len(asked) == len(set(asked))


def _chunk_ends(n):
    """Where the chunks of a walk over n pixels end: _FIRST_CHUNK, doubling up to _BLOCK."""
    ends, size = [], mapping._FIRST_CHUNK
    while not ends or ends[-1] < n:
        ends.append(min((ends[-1] if ends else 0) + size, n))
        size = min(2 * size, mapping._BLOCK)
    return ends


@pytest.mark.parametrize("n_g", [1, 3])
def test_select_seeds_tests_every_cell_in_one_call_per_round(small_salient_frame, n_g):
    # each cell is asked exactly the prefix of its walk up to the end of the
    # chunk it stopped in, and all cells share one salient call per round
    cloud, near, dense = small_salient_frame
    state = init_volume(v_g=32, n_g=n_g)
    pixel_cell = {px: cell for cell, pixels in _cell_groups(cloud, near, state).items()
                  for px in pixels}
    for rng_seed in range(3):
        calls = []

        def salient(v, u):
            calls.append(len(v))
            return dense[v, u]

        recorded, asked = _recording(salient)
        select_seeds(cloud, near, recorded, state, rng_seed=rng_seed)
        walks = {}
        _, tested = _loop_select_seeds(cloud, near, _lookup(dense), state, n_g, rng_seed, walks)
        n_tested = Counter(pixel_cell[px] for px in tested)
        asked_by_cell = {}
        for px in asked:
            asked_by_cell.setdefault(pixel_cell[px], []).append(px)
        assert set(asked_by_cell) == set(walks)
        rounds = {}
        for cell, walk in walks.items():
            ends = _chunk_ends(len(walk))
            stop = next(k for k, e in enumerate(ends) if e >= n_tested[cell])
            rounds[cell] = stop + 1
            assert asked_by_cell[cell] == walk[: ends[stop]], cell
        assert len(walks) > 10 and sum(rounds.values()) > 3 * max(rounds.values())
        assert len(calls) <= max(rounds.values())


def test_select_seeds_occupancy_and_n_g_cap_each_cell(small_salient_frame):
    cloud, near, dense = small_salient_frame
    state = init_volume(v_g=32, n_g=3)
    salient_by_cell = {
        cell: [px for px in pixels if dense[px]]
        for cell, pixels in _cell_groups(cloud, near, state).items()
    }
    by_size = sorted((c for c in salient_by_cell if salient_by_cell[c]),
                     key=lambda c: len(salient_by_cell[c]))
    assert len(salient_by_cell[by_size[0]]) < 3  # fewer salient pixels than room
    # residents: one patch in the largest cell, a full cell, an overfull cell
    for cell, n in ((by_size[-1], 1), (by_size[-2], 3), (by_size[-3], 4)):
        state.patches += [_dummy_mappatch(cell, pid=len(state.patches)) for _ in range(n)]
    occupancy = Counter(mp.cell for mp in state.patches)
    for rng_seed in range(5):
        salient, asked = _recording(_lookup(dense))
        seeds = select_seeds(cloud, near, salient, state, rng_seed=rng_seed)
        per_cell = Counter(s.cell for s in seeds)
        for cell, pixels in salient_by_cell.items():
            room = max(state.n_g - occupancy[cell], 0)
            assert per_cell[cell] == min(room, len(pixels)), cell
        full = {cell for cell in salient_by_cell if occupancy[cell] >= state.n_g}
        assert len(full) == 2
        groups = _cell_groups(cloud, near, state)
        assert not set(asked) & {px for cell in full for px in groups[cell]}
        assert all(dense[s.pixel] for s in seeds)


def test_select_seeds_cells_match_the_full_transform(rocky_cloud_noisy):
    # every salient pixel in the grid is a seed, in the cell of its point
    # under the whole camera-to-volume transform, though select_seeds
    # computes only the volume-frame x and z
    cloud, _ = median_decimate(rocky_cloud_noisy, 8)
    valid = np.argwhere(cloud.valid_mask)
    rng = np.random.default_rng(17)
    for trial in range(12):
        state = init_volume(v_g=int(rng.integers(4, 40)), n_g=10**6)
        state.c_t = Pose6(rng.normal(0.0, 0.3, 3), state.c_t.t + rng.normal(0.0, 0.5, 3))
        p_vol = xform_fwd(cloud.points[tuple(valid.T)], state.c_t.r, state.c_t.t)
        ij = np.floor(p_vol[:, [0, 2]] / (state.v_s / state.v_g))
        inside = ((ij >= 0) & (ij < state.v_g)).all(axis=1)
        cells = ij[inside].astype(int).tolist()
        want = {tuple(p): tuple(c) for p, c in zip(valid[inside].tolist(), cells)}
        seeds = select_seeds(cloud, cloud.valid_mask, _every, state, rng_seed=trial)
        assert {s.pixel: s.cell for s in seeds} == want
        assert len(seeds) == len(want) > 0


def test_select_seeds_empty_mask():
    cloud = _plane_cloud(1.0)
    assert select_seeds(cloud, np.zeros_like(cloud.valid_mask), _every, init_volume()) == []


def test_select_seeds_orders_cells_near_camera_first():
    cloud = _plane_cloud(1.0)
    state = init_volume()
    seeds = select_seeds(cloud, cloud.valid_mask, _every, state, rng_seed=2)
    cam_xz = state.c_t.t[[0, 2]]
    w = state.v_s / state.v_g
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
    b = kdtree_neighborhood(cloud, seed, 0.12)
    sa = set(map(tuple, a.pixels))
    sb = set(map(tuple, b.pixels))
    assert sa == sb
    assert (np.linalg.norm(a.points - cloud.points[seed], axis=1) <= 0.12).all()


def test_neighborhood_backprojection_keeps_scan_order(rocky_cloud_noisy):
    cloud = rocky_cloud_noisy
    # (0, 0) and (0, 639) are frame corners: their windows are clipped on two sides
    seeds = [(240, 320), (100, 500), (400, 60), (2, 2), (0, 0), (0, 639)]
    seeds = [sd for sd in seeds if np.isfinite(cloud.points[sd][2])]
    assert len(seeds) >= 4 and {(0, 0), (0, 639)} <= set(seeds)
    for seed in seeds:
        a = neighborhood(NeighborhoodIndex(), cloud, np.array(seed), 0.15)
        b = kdtree_neighborhood(cloud, seed, 0.15)
        assert len(a.pixels) > 13
        assert np.array_equal(a.pixels, b.pixels)  # row-major, element for element
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.covs, b.covs)


def test_fit_sample_subsamples_to_n_f():
    plane = _plane_cloud(1.0)
    cov = np.arange(plane.points.size * 2, dtype=float).reshape(*plane.points.shape[:2], 6)
    cloud = OrganizedCloud(points=plane.points, cov=cov, intrinsics=plane.intrinsics)
    full = neighborhood(NeighborhoodIndex(), cloud, (30, 40), 0.2)
    pts, cvs = fit_sample(full, 50, np.random.default_rng(9))
    assert len(pts) == 50 and cvs.shape == (50, 3, 3)
    # a uniform draw without replacement, kept in scan order; each drawn
    # packed row xx xy xz yy yz zz unpacked to its symmetric 3x3
    pick = np.sort(np.random.default_rng(9).choice(len(full.points), size=50, replace=False))
    assert np.array_equal(pts, full.points[pick])
    a = full.covs[pick].T
    assert np.array_equal(cvs.transpose(1, 2, 0), [[a[0], a[1], a[2]],
                                                   [a[1], a[3], a[4]],
                                                   [a[2], a[4], a[5]]])
    assert set(map(tuple, pts)) <= set(map(tuple, full.points))
    again, _ = fit_sample(full, 50, np.random.default_rng(9))
    assert np.array_equal(again, pts)
    # a neighborhood within n_f is taken whole and draws nothing
    rng = np.random.default_rng(9)
    whole, whole_cvs = fit_sample(full, len(full.points), rng)
    assert whole is full.points and np.array_equal(whole_cvs, unpack_cov(full.covs))
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
    # a plane without jumps joins the whole ball to the seed
    assert np.array_equal(nb.pixels, eucl.pixels)
    assert np.array_equal(nb.points, eucl.points)


def test_neighborhood_mesh_keeps_most_of_noisy_ball(rocky_cloud_noisy):
    # Stereo noise prunes few mesh edges between in-ball pixels, so the
    # seed's connected part is most of the Euclidean ball.
    cloud = rocky_cloud_noisy
    idx = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    valid = np.argwhere(cloud.valid_mask)
    seeds = valid[np.random.default_rng(3).choice(len(valid), 24, replace=False)]
    shares = []
    for seed in seeds:
        mesh_set = set(map(tuple, neighborhood(idx, cloud, seed, 0.10).pixels))
        eucl_set = set(map(tuple, neighborhood(NeighborhoodIndex(), cloud, seed, 0.10).pixels))
        assert mesh_set <= eucl_set
        shares.append(len(mesh_set) / len(eucl_set))
    assert np.median(shares) >= 0.9


def test_neighborhood_mesh_matches_whole_frame_oracle(rocky_cloud_noisy):
    cloud = rocky_cloud_noisy
    idx = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    edges = whole_frame_mesh_edges(cloud, idx)
    valid = np.argwhere(cloud.valid_mask)
    seeds = valid[np.random.default_rng(3).choice(len(valid), 5, replace=False)]
    # and the two valid frame corners, whose windows are clipped on two sides
    corners = np.array([[0, 0], [0, cloud.valid_mask.shape[1] - 1]])
    assert cloud.valid_mask[tuple(corners.T)].all()
    seeds = np.vstack([seeds, corners])
    for r in (0.10, 0.15):
        for seed in seeds:
            a = neighborhood(idx, cloud, seed, r)
            b = connected_ball_neighborhood(cloud, edges, seed, r)
            assert len(a.pixels) > 13
            assert np.array_equal(a.pixels, b.pixels)  # row-major, element for element
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.covs, b.covs)


@pytest.mark.parametrize("reach", ["camera_plane", "inf"])
def test_neighborhood_ball_reaching_camera_plane_scans_whole_frame(rocky_cloud_noisy, reach):
    # z_s - r <= 0: no pixel window bounds the ball, so both variants
    # search the whole frame
    cloud, _ = median_decimate(rocky_cloud_noisy, 4)
    seed = (60, 80)
    r = float(cloud.points[seed][2]) if reach == "camera_plane" else math.inf
    h, w = cloud.valid_mask.shape
    assert mapping._ball_pixels_backprojection(cloud, cloud.points[seed], r) == (
        slice(0, h), slice(0, w))
    mesh = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    oracles = [
        (NeighborhoodIndex(), kdtree_neighborhood(cloud, seed, r)),
        (mesh, connected_ball_neighborhood(cloud, whole_frame_mesh_edges(cloud, mesh), seed, r)),
    ]
    for index, b in oracles:
        a = neighborhood(index, cloud, np.array(seed), r)
        assert len(a.pixels) > cloud.valid_mask.sum() / 2
        assert np.array_equal(a.pixels, b.pixels)  # row-major, element for element
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.covs, b.covs)


def test_neighborhood_rejects_bad_seeds():
    cloud = _plane_cloud(1.0)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), cloud, np.array([999, 999]), 0.1)
    with pytest.raises(ValueError):
        neighborhood(NeighborhoodIndex(), cloud, np.array([np.nan, 0.0, 1.0]), 0.1)
    for r in (-0.1, 0.0, np.nan):
        with pytest.raises(ValueError, match="r must be positive"):
            neighborhood(NeighborhoodIndex(), cloud, (10, 10), r)
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
# Triangle mesh
# ---------------------------------------------------------------------------


def test_mesh_triangles_full_grid_count():
    cloud = _plane_cloud(1.0)
    tri = mesh_triangles(cloud.points, NeighborhoodIndex())
    assert len(tri) == 2 * (TINY.height - 1) * (TINY.width - 1)


def test_mesh_triangles_prunes_jump_edges():
    z = np.full((TINY.height, TINY.width), 1.0)
    z[:, 40:] = 1.5
    tri = mesh_triangles(_depth_cloud(TINY, z).points, NeighborhoodIndex())
    p = _depth_cloud(TINY, z).points.reshape(-1, 3)[:, 2]
    spans = np.ptp(p[tri], axis=1)
    assert spans.max() < 1e-9  # no triangle mixes both depth levels


def test_mesh_triangles_prunes_long_sides():
    """A frontal plane at 1 m on a 100 px/m grid: sides 1 cm, 1 cm and the
    1.414 cm diagonal, so t_es keeps every triangle or none around 1.414 cm."""
    points = _plane_cloud(1.0).points
    every = 2 * (TINY.height - 1) * (TINY.width - 1)
    assert len(mesh_triangles(points, NeighborhoodIndex(t_es=0.0141))) == 0
    assert len(mesh_triangles(points, NeighborhoodIndex(t_es=0.0142))) == every


def test_mesh_triangles_prunes_slivers():
    """Rows 1/3 cm apart and columns 1 cm apart: every triangle's longest
    side is sqrt(10) times its shortest, which t_ar = 3 prunes and 3.2 keeps."""
    points = _plane_cloud(1.0, replace(TINY, fy=300.0)).points
    every = 2 * (TINY.height - 1) * (TINY.width - 1)
    assert len(mesh_triangles(points, NeighborhoodIndex(t_ar=3.0))) == 0
    assert len(mesh_triangles(points, NeighborhoodIndex(t_ar=3.2))) == every


@pytest.mark.parametrize("seed", range(6))
def test_mesh_triangles_match_loop_oracle(seed):
    """Noisy grids with no-return rows, NaN-x rows with finite z, +-inf
    depths, an inf x and inf thresholds: the same triangles, in the same
    order, as a per-triangle Python loop, and no floating-point warning."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(2, 16, size=2)
    u, v = np.meshgrid(np.arange(w) * 0.005, np.arange(h) * 0.005)
    points = np.stack([u, v, np.ones((h, w))], axis=-1) + rng.normal(0.0, 0.001, (h, w, 3))
    points[rng.integers(h)] = np.nan
    points[rng.integers(h), :, 0] = np.nan
    points[rng.integers(h), rng.integers(w), 2] = np.inf
    points[rng.integers(h), rng.integers(w), 2] = -np.inf
    points[rng.integers(h), rng.integers(w), 0] = np.inf
    for t_jump, t_es, t_ar in [(0.002, 0.01, 2.0), (0.02, 0.05, 5.0), (math.inf,) * 3]:
        index = NeighborhoodIndex(t_es=t_es, t_ar=t_ar, t_jump=t_jump)
        tri = mesh_triangles(points, index)
        assert tri.dtype == int and tri.shape[1:] == (3,)
        assert np.array_equal(tri, loop_mesh_triangles(points, index))


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (0, 4)])
def test_mesh_triangles_of_a_line_is_empty(shape):
    """A grid one pixel high or wide holds no 2x2 block: a (0, 3) int array."""
    points = np.ones(shape + (3,))
    tri = mesh_triangles(points, NeighborhoodIndex())
    assert tri.shape == (0, 3) and tri.dtype == int


# ---------------------------------------------------------------------------
# Volume bookkeeping
# ---------------------------------------------------------------------------


def test_init_volume_places_camera_at_default():
    cam = Pose6(np.array([0.1, -0.2, 0.3]), np.array([5.0, 1.0, -2.0]))
    state = init_volume(cam)
    back = compose_chain([ChainLink(state.c_t, 1), ChainLink(state.pose_world, 1)])
    assert np.allclose(back.r, cam.r, atol=1e-12)
    assert np.allclose(back.t, cam.t, atol=1e-12)
    assert np.allclose(state.c_t.t, DEFAULT_CAMERA_IN_VOLUME.t)


@pytest.mark.parametrize(
    "c_d, c_a", [(math.nan, 0.05), (-1.0, 0.05), (0.3, math.nan), (0.3, -0.01)],
    ids=["c_d_nan", "c_d_negative", "c_a_nan", "c_a_negative"],
)
def test_init_volume_rejects_bad_remap_thresholds(c_d, c_a):
    # a NaN threshold would never remap and a negative one remap every frame
    with pytest.raises(ValueError, match="c_d and c_a must be >= 0"):
        init_volume(c_d=c_d, c_a=c_a)


def test_init_volume_infinite_thresholds_never_remap():
    state = init_volume(policy=MovePolicy.FC, c_d=math.inf, c_a=math.inf)
    far = Pose6(np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, 100.0]))
    assert volume_update(state, far)[1] is None


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
    # the default c_0 has no rotation; a rotated one checks that the remap
    # restores the whole pose, attitude included
    rotated = Pose6(np.array([0.3, -0.5, 0.2]), np.array([1.5, 2.5, 0.8]))
    turn = Pose6(np.array([0.1, 0.2, -0.05]), np.array([0.4, 0.0, 0.0]))
    for c_0, cam in (
        (DEFAULT_CAMERA_IN_VOLUME, Pose6(np.zeros(3), np.array([0.4, 0.0, 0.0]))),
        (rotated, turn),
    ):
        state = init_volume(policy=MovePolicy.FC, c_0=c_0)
        state, T = volume_update(state, cam)
        assert T is not None
        assert np.allclose(state.c_t.r, c_0.r, atol=1e-12)
        assert np.allclose(state.c_t.t, c_0.t, atol=1e-12)
        back = compose_chain([ChainLink(state.c_t, 1), ChainLink(state.pose_world, 1)])
        assert np.allclose(back.r, cam.r, atol=1e-12)
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
    world_before = compose_chain([ChainLink(patch.pose, 1), ChainLink(state.pose_world, 1)])

    cam = Pose6(np.array([0.0, 0.06, 0.0]), np.array([0.35, 0.0, 0.1]))
    state, T = volume_update(state, cam)
    assert T is not None
    state = remap_patches(state, T)
    assert len(state.patches) == 1
    world_after = compose_chain(
        [ChainLink(state.patches[0].patch.pose, 1), ChainLink(state.pose_world, 1)]
    )
    assert np.allclose(world_after.r, world_before.r, atol=1e-9)
    assert np.allclose(world_after.t, world_before.t, atol=1e-9)


def test_remap_culls_patches_leaving_the_cube():
    state = init_volume()
    state.patches.append(_dummy_mappatch((0, 0)))
    push_out = Pose6(np.zeros(3), np.array([10.0, 0.0, 0.0]))
    state = remap_patches(state, push_out)
    assert state.patches == []


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


# rng seeds of the map_step ensemble tests, fixed before any run. A single
# seed holds or fails by the luck of its draw; the thresholds below sit in
# the lower tail of what the seed draw of the previous dense-mask sampler
# gave on these seeds (see each test).
ENSEMBLE_SEEDS = range(10)


def _is_rock_cap(mp):
    # true cap curvatures lie in [-2.2, -1.2]; the ramp adds little
    k = np.asarray(mp.patch.k)
    return mp.patch.s == S.ELLIPTIC_PARABOLOID and ((-2.6 < k) & (k < -0.8)).all()


def test_map_step_admits_rock_caps(rocky_cloud):
    # The dense-mask sampler gave, on these 10 seeds: 4 seeds each, 2+
    # admissions in 10 runs, an elliptic cap in 8. A seed on a cap's rim
    # also admits hyperbolic patches (k ~ (-1.2, +5)), a true saddle where
    # a cap meets the ramp, so the type is not asserted per patch.
    runs_two, runs_cap = 0, 0
    for rng_seed in ENSEMBLE_SEEDS:
        state = init_volume()
        res = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=rng_seed)
        assert res.n_seeds >= 3
        for mp in res.admitted:
            assert mp.validation.passed
            assert mp.validation.residual <= 0.01
            # stored pose is volume frame: transform back to camera depth
            cam_t = np.asarray(mp.patch.pose.t) - state.c_t.t
            assert 0.8 < np.linalg.norm(cam_t) < 2.0
        assert state.patches == res.admitted
        assert state.frame_index == 1
        runs_two += len(res.admitted) >= 2
        runs_cap += any(_is_rock_cap(mp) for mp in res.admitted)
    assert runs_two >= 8
    assert runs_cap >= 6


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


def _assert_noisy_frame_yields_patches(cloud, config):
    runs_admitting = 0
    for rng_seed in ENSEMBLE_SEEDS:
        state = init_volume()
        res = map_step(state, cloud, _gravity_cam(), config=config, rng_seed=rng_seed)
        assert res.n_attempts >= 3
        for mp in res.admitted:
            assert mp.validation.residual <= 0.01
            assert mp.validation.passed
        runs_admitting += bool(res.admitted)
    assert runs_admitting >= 3


def test_map_step_noisy_frame_still_yields_valid_patches(rocky_cloud_noisy):
    # The dense-mask sampler gave, on these 10 seeds: 4 attempts each, an
    # admission in 6 runs; coverage drops the rest.
    _assert_noisy_frame_yields_patches(rocky_cloud_noisy, ROCKY_CONFIG)


def test_map_step_mesh_noisy_frame_yields_patches(rocky_cloud_noisy):
    # On these 10 seeds the mesh admits in 7 runs, backprojection in 8.
    mesh = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)
    _assert_noisy_frame_yields_patches(rocky_cloud_noisy, replace(ROCKY_CONFIG, neighborhood=mesh))


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


def test_map_step_keeps_every_cell_within_n_g(rocky_cloud):
    # only select_seeds caps a cell: it leaves a seed per free place, and a
    # seed admits at most one patch
    state = init_volume(n_g=2)
    for rng_seed in (11, 12):
        res = map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=rng_seed)
        _assert_every_seed_counted(res)
    assert max(Counter(mp.cell for mp in state.patches).values()) == 2


def _patch_bytes(mp):
    p = mp.patch
    arrays = (p.k, p.d, getattr(p.pose, "r", getattr(p.pose, "rxy", None)), p.pose.t, p.sigma,
              mp.seed_point)
    return (mp.id, mp.cell, mp.seed_pixel, mp.frame_index, p.s, p.b, type(p.pose),
            *(np.asarray(a).tobytes() for a in arrays), mp.validation)


def _assert_same_step(cloud, config, budgets=MapBudgets(), rng_seed=11, state=None):
    """map_step and the seed-at-a-time loop agree to the bit on one frame."""
    state = init_volume() if state is None else state
    got_state, want_state = copy.deepcopy(state), copy.deepcopy(state)
    got = map_step(got_state, cloud, _gravity_cam(), budgets=budgets, config=config, rng_seed=rng_seed)
    want = loop_map_step(want_state, cloud, _gravity_cam(), budgets=budgets, config=config,
                         rng_seed=rng_seed)
    assert (got.n_seeds, got.n_attempts, got.drops) == (want.n_seeds, want.n_attempts, want.drops)
    assert [_patch_bytes(mp) for mp in got.admitted] == [_patch_bytes(mp) for mp in want.admitted]
    assert [_patch_bytes(mp) for mp in got_state.patches] == [
        _patch_bytes(mp) for mp in want_state.patches
    ]
    assert got_state.next_id == want_state.next_id
    _assert_every_seed_counted(got)
    return got


_MESH = NeighborhoodIndex(variant=NeighborhoodVariant.TRIANGLE_MESH)


@pytest.mark.parametrize(
    "config",
    [
        replace(ROCKY_CONFIG, n_f=50),
        replace(ROCKY_CONFIG, n_f=50, neighborhood=_MESH),
        replace(ROCKY_CONFIG, n_f=50, decimate=2),
        replace(ROCKY_CONFIG, n_f=50, surface="plane"),
        replace(ROCKY_CONFIG, n_f=50, surface="sphere"),
        replace(ROCKY_CONFIG, n_f=50, surface="cylinder"),
        replace(ROCKY_CONFIG, n_f=50, check_coverage=False),
    ],
    ids=["paraboloid", "mesh", "decimate", "plane", "sphere", "cylinder", "no_coverage"],
)
def test_map_step_batch_matches_seed_loop(rocky_cloud_noisy, config):
    for rng_seed in (11, 12):
        res = _assert_same_step(rocky_cloud_noisy, config, rng_seed=rng_seed)
        assert res.n_attempts >= 3


def test_map_step_batch_matches_seed_loop_on_ragged_samples(rocky_cloud_noisy, monkeypatch):
    # n_f above some neighborhoods: the fit samples differ in size, so the
    # batch fits several stacks
    sizes = []
    fit_patches = mapping.fit_patches

    def recorded(samples, **kw):
        sizes.extend(len(pts) for pts, _ in samples)
        return fit_patches(samples, **kw)

    monkeypatch.setattr(mapping, "fit_patches", recorded)
    cfg = replace(ROCKY_CONFIG, saliency=replace(ROCKY_SALIENCY, r=0.05), n_f=1200)
    for rng_seed in (11, 12):
        _assert_same_step(rocky_cloud_noisy, cfg, rng_seed=rng_seed)
    assert len(set(sizes)) > 2 and sizes.count(1200) > 1


@pytest.mark.parametrize(
    "budgets",
    [MapBudgets(work_units=2), MapBudgets(n_s=1), MapBudgets(area_target=0.01),
     MapBudgets(work_units=0), MapBudgets(n_s=0)],
    ids=["work_units", "n_s", "area_target", "no_work", "no_room"],
)
def test_map_step_batch_matches_seed_loop_under_caps(rocky_cloud, budgets):
    res = _assert_same_step(rocky_cloud, ROCKY_CONFIG, budgets=budgets)
    # each cap stops the frame before its last seed
    assert res.drops["budget"] > 0


@pytest.mark.parametrize(
    "budgets, counts",
    [(MapBudgets(work_units=2), (2, 1, 1)), (MapBudgets(wall_clock_s=1e9), (3, 1, 0))],
    ids=["work_units", "wall_clock_never_out"],
)
def test_map_step_batch_matches_seed_loop_around_too_few_points(rocky_cloud_noisy, budgets,
                                                                counts):
    # 8 mm mesh neighborhoods: the seeds run fit, too few points, fit, fit,
    # so two work units put the too-few seed before the cap and the last
    # seed after it, and a wall clock that never runs out tries them all
    cfg = replace(ROCKY_CONFIG, saliency=replace(ROCKY_SALIENCY, r=0.008), n_f=50,
                  neighborhood=_MESH)
    res = _assert_same_step(rocky_cloud_noisy, cfg, budgets=budgets)
    assert res.n_seeds == 4
    assert (res.n_attempts, res.drops["too_few_points"], res.drops["budget"]) == counts


def test_map_step_batch_matches_seed_loop_with_resident_patches(rocky_cloud):
    state = init_volume(n_g=2)
    map_step(state, rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=12)
    assert state.patches
    _assert_same_step(rocky_cloud, ROCKY_CONFIG, budgets=MapBudgets(n_s=len(state.patches) + 1),
                      state=state)


def test_map_step_batch_drops_only_the_seed_whose_fit_fails(rocky_cloud_noisy, monkeypatch):
    # the solve raises for one seed's sample, found by its first point
    import patchscape.fit as pf

    cfg = replace(ROCKY_CONFIG, n_f=50)
    firsts = []
    wlm = pf.wlm_minimize

    def recorded(model, p0, points, covs):
        firsts.append(points[:, 0].copy())
        return wlm(model, p0, points, covs)

    monkeypatch.setattr(pf, "wlm_minimize", recorded)
    ref = map_step(init_volume(), rocky_cloud_noisy, _gravity_cam(), config=cfg, rng_seed=11)
    assert ref.n_attempts >= 3 and ref.drops["fit_failed"] == 0
    bad = firsts[1]

    def failing(model, p0, points, covs):
        if np.array_equal(points[:, 0], bad):
            raise np.linalg.LinAlgError("singular")
        return wlm(model, p0, points, covs)

    monkeypatch.setattr(pf, "wlm_minimize", failing)
    res = _assert_same_step(rocky_cloud_noisy, cfg)
    assert res.drops["fit_failed"] == 1 and res.n_attempts == ref.n_attempts


def test_map_step_stage_times_add_up(rocky_cloud):
    res = map_step(init_volume(), rocky_cloud, _gravity_cam(), config=ROCKY_CONFIG, rng_seed=11)
    t = res.timings
    assert list(t) == ["saliency", "seeds", "neighborhood", "fit", "gates", "fit_validate", "total"]
    assert all(v >= 0.0 for v in t.values())
    assert t["fit_validate"] == t["neighborhood"] + t["fit"] + t["gates"]
    assert sum(t[k] for k in ("saliency", "seeds", "fit_validate")) <= t["total"] + 1e-9


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


def test_validation_record_charges_the_first_failing_gate():
    # curvature comes before coverage in the gate order
    rec = ValidationRecord(0.001, 3, curvature_ok=False, residual_ok=True, coverage_ok=False)
    assert rec.failed == "curvature" and not rec.passed
    ok = ValidationRecord(0.001, 0, True, True, True)
    assert ok.failed is None and ok.passed


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
