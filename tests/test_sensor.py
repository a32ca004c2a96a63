"""Sensor tests: pixel geometry, ray casting and noise statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from patchscape.patch import BoundaryType, Patch, SurfaceType
from patchscape.pose import Pose5, Pose6
from patchscape.sensor import (
    KINECT_640,
    ConstantNoise,
    LinearNoise,
    QuadraticNoise,
    ScenePlane,
    StereoNoise,
    intrinsics_preset,
    pack_cov,
    pixel_rays,
    point_covariance,
    project,
    sample_scene,
)

from _oracles import central_diff_jac, implicit_eval, rel_err

S, B = SurfaceType, BoundaryType

# small wide-angle camera keeps the casts cheap with useful ray spread
TINY = replace(KINECT_640, fx=40.0, fy=40.0, width=64, height=48, cx=31.5, cy=23.5)


def test_preset_values():
    k = intrinsics_preset("kinect-640")
    assert (k.fx, k.fy) == (525.0, 525.0)
    assert (k.cx, k.cy) == (319.5, 239.5)
    assert (k.width, k.height) == (640, 480)
    assert k.baseline == 0.075
    with pytest.raises(ValueError):
        intrinsics_preset("webcam")


def test_scaled_intrinsics():
    h = KINECT_640.scaled(2)
    assert h.fx == 262.5 and h.cx == 159.5
    assert (h.width, h.height) == (320, 240)


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_scaled_intrinsics_project_block_centres_onto_decimated_pixels(factor):
    # a point on the ray through the centre of block (i, j) must project to
    # decimated pixel (j, i)
    small = KINECT_640.scaled(factor)
    i, j = np.meshgrid(np.arange(small.height), np.arange(small.width), indexing="ij")
    centre = np.stack([j.ravel(), i.ravel()], axis=1) * factor + (factor - 1) / 2
    z = np.random.default_rng(factor).uniform(0.5, 5.0, len(centre))
    pts = pixel_rays(KINECT_640, centre) * z[:, None]
    want = np.stack([j.ravel(), i.ravel()], axis=1)
    assert np.allclose(project(small, pts), want, rtol=0.0, atol=1e-9)


def test_project_backproject_round_trip():
    rng = np.random.default_rng(0)
    pix = rng.uniform([0, 0], [639, 479], size=(50, 2))
    z = rng.uniform(0.5, 5.0, size=50)
    pts = pixel_rays(KINECT_640, pix) * z[:, None]
    assert np.allclose(pts[:, 2], z)
    again = project(KINECT_640, pts)
    assert np.allclose(again, pix, atol=1e-9)


def test_ray_is_pixel_times_depth():
    m = pixel_rays(KINECT_640, (100.0, 200.0))
    assert m.shape == (1, 3) and m[0, 2] == 1.0
    assert np.isclose(m[0, 0], (100.0 - 319.5) / 525.0)
    assert np.allclose(project(KINECT_640, m[0] * 2.5), (100.0, 200.0))


def test_ray_grid_matches_per_pixel():
    grid = pixel_rays(TINY)
    assert grid.shape == (48, 64, 3)
    one = pixel_rays(TINY, (5.0, 7.0))[0]
    assert np.allclose(grid[7, 5], one)


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------


def test_frontal_plane_depth():
    cloud = sample_scene([ScenePlane((0, 0, 1), 2.0)], TINY)
    assert cloud.valid_mask.all()
    assert np.allclose(cloud.points[..., 2], 2.0)
    # x, y follow the pinhole at that depth
    assert np.isclose(cloud.points[10, 3, 0], 2.0 * (3 - TINY.cx) / TINY.fx)


def test_tilted_plane_on_surface():
    n = np.array([0.2, -0.1, 0.97])
    n /= np.linalg.norm(n)
    cloud = sample_scene([ScenePlane(n, 1.5)], TINY)
    pts = cloud.points[cloud.valid_mask]
    assert np.allclose(pts @ n, 1.5, atol=1e-12)


def test_plane_behind_camera_misses():
    cloud = sample_scene([ScenePlane((0, 0, 1), -1.0)], TINY)
    assert not cloud.valid_mask.any()


def test_empty_scene_all_nan():
    cloud = sample_scene([], TINY)
    assert not cloud.valid_mask.any()
    assert np.isnan(cloud.points).all()


def _facing_sphere(k=-2.0, d=0.3, t=(0.0, 0.0, 2.0)):
    # local z toward the camera at the origin
    return Patch(S.SPHERE, B.CIRCLE, np.array([k]), np.array([d]),
                 Pose5((math.pi, 0.0), t))


def test_sphere_patch_hits_lie_on_surface():
    patch = _facing_sphere()
    cloud = sample_scene([patch], TINY)
    assert cloud.valid_mask.any() and not cloud.valid_mask.all()
    pts = cloud.points[cloud.valid_mask]
    val, ok = implicit_eval(patch, pts)
    assert np.max(np.abs(val)) < 1e-9
    assert ok.all()
    # vertex of the convex sphere sits at t = (0, 0, 2), the nearest point
    zc = cloud.points[..., 2]
    center = zc[24, 32]
    assert np.isclose(np.nanmin(zc), center, atol=1e-4)
    assert 2.0 - 1e-12 < center < 2.01


def test_nearest_hit_wins():
    patch = _facing_sphere()
    back = ScenePlane((0, 0, 1), 3.0)
    cloud = sample_scene([patch, back], TINY)
    assert cloud.valid_mask.all()
    zc = cloud.points[..., 2]
    assert zc[24, 32] < 2.01  # sphere in the middle
    assert np.isclose(zc[0, 0], 3.0)  # plane at the corners


def test_camera_pose_moves_rays():
    cam = Pose6(np.zeros(3), (0.0, 0.0, -1.0))
    cloud = sample_scene([ScenePlane((0, 0, 1), 2.0)], TINY, camera_pose=cam)
    assert np.allclose(cloud.points[..., 2], 3.0)  # camera frame depth
    cam_turned = Pose6((0.0, math.pi, 0.0), (0.0, 0.0, 0.0))
    cloud2 = sample_scene([ScenePlane((0, 0, 1), 2.0)], TINY, camera_pose=cam_turned)
    assert not cloud2.valid_mask.any()  # looking away


def test_bounded_patch_miss_outside_boundary():
    # small plane patch seen frontally: valid pixels exactly where the
    # boundary projects
    patch = Patch(S.PLANE, B.CIRCLE, np.array([]), np.array([0.1]),
                  Pose5((math.pi, 0.0), (0.0, 0.0, 1.0)))
    cloud = sample_scene([patch], TINY)
    pts = cloud.points[cloud.valid_mask]
    radial = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(radial <= 0.1 + 1e-9)
    assert 10 < cloud.valid_mask.sum() < TINY.width * TINY.height


def test_concave_sphere_far_sheet_excluded():
    # bowl facing the camera: k > 0 with z toward camera; rays through the
    # rim would exit through the far (out of domain) sheet
    bowl = Patch(S.SPHERE, B.CIRCLE, np.array([2.0]), np.array([0.45]),
                 Pose5((math.pi, 0.0), (0.0, 0.0, 2.0)))
    cloud = sample_scene([bowl], TINY)
    pts = cloud.points[cloud.valid_mask]
    val, ok = implicit_eval(bowl, pts)
    assert np.max(np.abs(val)) < 1e-9
    assert ok.all()
    # the bowl bottom (vertex, z = 2) is the farthest visible point; rays
    # never land on the out-of-domain far sheet below z = 1.5
    assert np.all(pts[:, 2] <= 2.0 + 1e-9)
    assert np.all(pts[:, 2] >= 1.5 - 1e-9)


def test_rays_flat_along_a_cylindric_paraboloid_hit_it():
    """The image row through cy runs along the patch's straight local x
    axis, where the ray's quadratic term A vanishes and the cast takes the
    one root -C / (2 hb): those hits, and all others, lie on the surface."""
    intr = replace(TINY, height=47, cy=23.0)  # row 23 holds v = cy
    patch = Patch(S.CYLINDRIC_PARABOLOID, B.AARECT, np.array([-3.0]), np.array([0.3, 0.3]),
                  Pose6((0.0, math.pi, 0.0), (0.0, 0.1, 2.0)))
    cloud = sample_scene([patch], intr)
    assert cloud.valid_mask[23].sum() >= 10
    val, ok = implicit_eval(patch, cloud.points[cloud.valid_mask])
    assert np.max(np.abs(val)) < 1e-9 and ok.all()
    # local y = -0.1 on the flat row, so the depth is 2 - k y^2 / 2
    assert np.allclose(cloud.points[23][cloud.valid_mask[23], 2], 2.0 + 1.5 * 0.01)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def test_noise_determinism():
    scene = [ScenePlane((0, 0, 1), 2.0)]
    a = sample_scene(scene, TINY, noise=LinearNoise(1e-5), rng=42)
    b = sample_scene(scene, TINY, noise=LinearNoise(1e-5), rng=42)
    c = sample_scene(scene, TINY, noise=LinearNoise(1e-5), rng=43)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.cov, b.cov)
    assert not np.array_equal(a.points, c.points)


def test_covariance_is_noise_free():
    scene = [ScenePlane((0, 0, 1), 2.0)]
    a = sample_scene(scene, TINY, noise=QuadraticNoise(1e-6), rng=1)
    b = sample_scene(scene, TINY, noise=QuadraticNoise(1e-6), rng=2)
    assert np.array_equal(a.cov, b.cov)


@pytest.mark.parametrize(
    "noise", [ConstantNoise(4e-6), LinearNoise(1e-5), QuadraticNoise(1e-6), StereoNoise()],
    ids=["constant", "linear", "quadratic", "stereo"],
)
def test_covariance_is_point_covariance_at_hits_only(noise):
    """Every noise model's cov is NaN exactly where a pixel has no return,
    and point_covariance at the noiseless range of each hit."""
    scene = [_facing_sphere()]  # the sphere cap leaves most pixels empty
    clean = sample_scene(scene, TINY)
    cloud = sample_scene(scene, TINY, noise=noise, rng=5)
    hit = clean.valid_mask
    assert hit.any() and not hit.all()
    assert np.array_equal(cloud.valid_mask, hit)
    assert np.isnan(cloud.cov[~hit]).all() and np.isfinite(cloud.cov[hit]).all()
    v, u = np.nonzero(hit)
    want = point_covariance(noise, TINY, np.column_stack([u, v]), clean.points[hit][:, 2])
    assert cloud.cov.shape == (TINY.height, TINY.width, 6)
    assert np.array_equal(cloud.cov[hit], pack_cov(want))


def test_constant_noise_std():
    k = 4e-6
    cloud = sample_scene([ScenePlane((0, 0, 1), 2.0)], TINY,
                         noise=ConstantNoise(k), rng=7)
    dz = cloud.points[..., 2] - 2.0
    assert abs(dz.std() - math.sqrt(k)) < 0.1 * math.sqrt(k)


def test_quadratic_noise_grows_with_range():
    k = 1e-6
    near = sample_scene([ScenePlane((0, 0, 1), 1.0)], TINY,
                        noise=QuadraticNoise(k), rng=5)
    far = sample_scene([ScenePlane((0, 0, 1), 3.0)], TINY,
                       noise=QuadraticNoise(k), rng=5)
    s_near = (near.points[..., 2] - 1.0).std()
    s_far = (far.points[..., 2] - 3.0).std()
    assert abs(s_far / s_near - 3.0) < 0.2


@pytest.mark.parametrize(
    "make",
    [lambda: ConstantNoise(-1e-6), lambda: LinearNoise(float("nan")),
     lambda: QuadraticNoise(float("inf")), lambda: StereoNoise(sigma_p=0.0),
     lambda: StereoNoise(sigma_m=-0.1), lambda: StereoNoise(sigma_m=float("inf"))],
    ids=["constant_negative", "linear_nan", "quadratic_inf", "stereo_sigma_p_zero",
         "stereo_sigma_m_negative", "stereo_sigma_m_inf"],
)
def test_noise_models_reject_bad_parameters(make):
    with pytest.raises(ValueError, match="noise"):
        make()


def test_noise_models_accept_zero_power_k():
    assert ConstantNoise(0.0).k == 0.0


def test_power_noise_covariance_rank_one():
    cov = point_covariance(LinearNoise(2e-5), KINECT_640, (100.0, 150.0), 2.0)
    m = pixel_rays(KINECT_640, (100.0, 150.0))[0]
    assert np.allclose(cov, 2e-5 * 2.0 * np.outer(m, m))
    w = np.linalg.eigvalsh(cov)
    assert w[0] >= -1e-18 and w[1] < 1e-15  # rank one


def test_stereo_covariance_formula():
    intr = KINECT_640
    u, v, z = 400.0, 300.0, 2.0
    noise = StereoNoise()
    cov = point_covariance(noise, intr, (u, v), z)
    d = intr.fx * intr.baseline / z
    b = intr.baseline
    J = np.array([
        [b / d, 0.0, -b * u / d**2],
        [0.0, b / d, -b * v / d**2],
        [0.0, 0.0, -intr.fx * b / d**2],
    ])
    E = np.diag([noise.sigma_p**2, noise.sigma_p**2, noise.sigma_m**2])
    assert np.allclose(cov, J @ E @ J.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0.0)


@pytest.mark.xfail(strict=True, reason="the stereo Jacobian takes raw pixel (u, v), where "
                   "the triangulation needs (u - cx, v - cy)")
@pytest.mark.parametrize("u, v, z", [(319.5, 239.5, 1.2), (400.0, 300.0, 2.0)],
                         ids=["image_centre", "off_centre"])
def test_stereo_covariance_follows_the_triangulation(u, v, z):
    """point_covariance propagates E through the Jacobian of the sensor's own
    triangulation p(u, v, d) = pixel_rays(u, v) * fx b / d, here by central
    differences. At the image centre the lateral spread is sigma_p z / fx."""
    intr, noise = KINECT_640, StereoNoise()

    def triangulate(x):
        return pixel_rays(intr, x[:2])[0] * intr.fx * intr.baseline / x[2]

    J = central_diff_jac(triangulate, [u, v, intr.fx * intr.baseline / z])
    E = np.diag([noise.sigma_p**2, noise.sigma_p**2, noise.sigma_m**2])
    assert rel_err(point_covariance(noise, intr, (u, v), z), J @ E @ J.T) < 1e-6


def test_stereo_sampling_matches_covariance():
    # repeated tiny renders: empirical spread vs the advertised covariance
    intr = replace(KINECT_640, width=2, height=2, cx=0.5, cy=0.5)
    scene = [ScenePlane((0, 0, 1), 1.5)]
    noise = StereoNoise()
    deltas = []
    for seed in range(600):
        cloud = sample_scene(scene, intr, noise=noise, rng=seed)
        deltas.append(cloud.points[0, 0] - pixel_rays(intr, (0.0, 0.0))[0] * 1.5)
    emp = np.cov(np.array(deltas).T)
    ref = point_covariance(noise, intr, (0.0, 0.0), 1.5)
    assert np.linalg.norm(emp - ref) < 0.25 * np.linalg.norm(ref)


def test_stereo_noise_depth_scaling():
    # depth variance grows like z^4 through the disparity relation
    c_near = point_covariance(StereoNoise(), KINECT_640, (319.5, 239.5), 1.0)
    c_far = point_covariance(StereoNoise(), KINECT_640, (319.5, 239.5), 2.0)
    assert np.isclose(c_far[2, 2] / c_near[2, 2], 16.0)


@pytest.mark.parametrize(
    "field, value, message",
    [("fx", 0.0, "fx and fy"), ("fx", -131.25, "fx and fy"), ("fy", float("nan"), "fx and fy"),
     ("cx", float("inf"), "cx, cy and baseline"), ("baseline", float("nan"), "cx, cy and baseline"),
     ("width", -1, "width and height"), ("height", 2.5, "width and height"),
     ("width", True, "width and height")],
    ids=["fx_zero", "fx_negative", "fy_nan", "cx_inf", "baseline_nan", "width_negative",
         "height_float", "width_bool"],
)
def test_intrinsics_reject_bad_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message} must be"):
        replace(TINY, **{field: value})


def test_intrinsics_accept_zero_baseline_and_empty_image():
    assert replace(TINY, baseline=0.0, width=0, height=0).baseline == 0.0


@pytest.mark.parametrize("baseline", [0.0, -0.075])
def test_stereo_noise_needs_positive_baseline(baseline):
    intr = replace(TINY, baseline=baseline)
    with pytest.raises(ValueError, match="stereo noise needs a positive baseline"):
        point_covariance(StereoNoise(), intr, (31.5, 23.5), 1.0)
    with pytest.raises(ValueError, match="stereo noise needs a positive baseline"):
        sample_scene([ScenePlane(np.array([0.0, 0.0, 1.0]), 2.0)], intr, noise=StereoNoise())
    # without stereo noise the baseline is unused
    cloud = sample_scene([ScenePlane(np.array([0.0, 0.0, 1.0]), 2.0)], intr,
                         noise=ConstantNoise(1e-6), rng=0)
    assert np.isfinite(cloud.points).all()
