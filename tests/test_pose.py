"""Rotation-vector algebra: round trips, canonical forms, and Jacobians.

Jacobians are validated against central finite differences; round trips
and orthonormality are swept with hypothesis in addition to fixed edge
cases at the series cutoffs and at the theta = pi fold.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchscape import pose
from _oracles import central_diff_jac, rel_err, random_rotvec


def rotvec_strategy(max_angle=math.pi - 1e-6):
    def build(ax, ay, az, frac):
        v = np.array([ax, ay, az])
        n = np.linalg.norm(v)
        if n < 1e-3:
            v = np.array([1.0, 0.0, 0.0])
            n = 1.0
        return v / n * (frac * max_angle)

    unit = st.floats(-1, 1, allow_nan=False)
    return st.builds(build, unit, unit, unit, st.floats(0, 1))


# ---------------------------------------------------------------------------
# exp_map
# ---------------------------------------------------------------------------


def test_exp_map_identity():
    np.testing.assert_array_equal(pose.exp_map(np.zeros(3)), np.eye(3))


def test_exp_map_quarter_turn_about_z():
    R = pose.exp_map(np.array([0.0, 0.0, math.pi / 2]))
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(R, expected, atol=1e-15)


def test_exp_map_half_turn_about_x():
    R = pose.exp_map(np.array([math.pi, 0.0, 0.0]))
    np.testing.assert_allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-15)


@given(rotvec_strategy(max_angle=math.pi))
@settings(max_examples=200, deadline=None)
def test_exp_map_is_orthonormal(r):
    R = pose.exp_map(r)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-14)
    assert abs(np.linalg.det(R) - 1.0) < 1e-14


def test_exp_map_series_branch_continuity():
    # Values just on either side of the series cutoff must agree closely.
    eps = float(np.finfo(np.float64).eps) ** 0.25
    for axis in (np.array([1.0, 0, 0]), np.array([0.6, -0.8, 0.0])):
        lo = pose.exp_map(axis * (eps * 0.999))
        hi = pose.exp_map(axis * (eps * 1.001))
        assert np.max(np.abs(lo - hi)) < 1e-6


# ---------------------------------------------------------------------------
# log_map and round trips
# ---------------------------------------------------------------------------


def test_round_trip_random_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(2000):
        r = random_rotvec(rng, lo=1e-9, hi=math.pi - 1e-9)
        back = pose.log_map(pose.exp_map(r))
        worst = max(worst, float(np.linalg.norm(back - r)))
    assert worst < 1e-9


@pytest.mark.parametrize(
    "angle",
    [1e-12, 1e-9, 1e-7, 5e-7, 1.22e-4, 1e-3, 0.5, 2.0, 3.0, math.pi - 1e-8, math.pi - 1e-10],
)
def test_round_trip_edge_angles(angle):
    rng = np.random.default_rng(int(angle * 1e6) + 3)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = axis * angle
        back = pose.log_map(pose.exp_map(r))
        if angle < math.pi - 1e-7:
            assert np.linalg.norm(back - r) < 1e-9
        else:
            # Inside the pi fold the sign convention takes over; the vector
            # may come back negated, so the rotation is only reproduced to
            # about 2 * (pi - angle). The angle itself must hold exactly.
            np.testing.assert_allclose(pose.exp_map(back), pose.exp_map(r), atol=1e-6)
            assert abs(np.linalg.norm(back) - angle) < 1e-9


def test_round_trip_at_pi_recovers_rotation():
    # At theta = pi the vector sign is a convention; the rotation itself
    # must survive, and the sign convention must hold.
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = pose.exp_map(axis * math.pi)
        back = pose.log_map(R)
        np.testing.assert_allclose(pose.exp_map(back), R, atol=1e-12)
        assert abs(np.linalg.norm(back) - math.pi) < 1e-9
        first = next(c for c in back if abs(c) > 1e-9 * math.pi)
        assert first > 0


def test_log_map_identity_is_zero():
    np.testing.assert_array_equal(pose.log_map(np.eye(3)), np.zeros(3))
    r, J = pose.jac_log_of(np.eye(3), pose.jac_exp(np.zeros(3)))
    np.testing.assert_array_equal(r, np.zeros(3))
    np.testing.assert_allclose(J, np.eye(3), atol=1e-15)


@pytest.mark.parametrize(
    "angle", [2e-5, 1e-4, 1e-3, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9]
)
def test_round_trip_is_relatively_exact(angle):
    # The log map has no cancelling branch: the round trip holds to a few
    # ulps of |r| at every angle, small ones and either side of pi/2.
    eps = float(np.finfo(np.float64).eps)
    rng = np.random.default_rng(5)
    for _ in range(50):
        axis = rng.normal(size=3)
        r = axis / np.linalg.norm(axis) * angle
        assert np.linalg.norm(pose.log_map(pose.exp_map(r)) - r) <= 4.0 * eps * angle


@pytest.mark.parametrize("angle", [1.2e-4, 1e-3])
def test_log_jacobian_inverts_exp_jacobian(angle):
    # d log(exp(r)) / dr = I; near the series cutoff too.
    rng = np.random.default_rng(6)
    for _ in range(50):
        axis = rng.normal(size=3)
        r = axis / np.linalg.norm(axis) * angle
        _, J = pose.jac_log_of(pose.exp_map(r), pose.jac_exp(r))
        np.testing.assert_allclose(J, np.eye(3), rtol=0.0, atol=1e-13)


def test_log_map_axis_aligned_half_turns():
    for m in range(3):
        r = np.zeros(3)
        r[m] = math.pi
        back = pose.log_map(pose.exp_map(r))
        np.testing.assert_allclose(back, r, atol=1e-12)


def test_log_map_rejects_bad_input():
    with pytest.raises(ValueError):
        pose.log_map(np.eye(3) + 1e-6)
    with pytest.raises(ValueError):
        pose.log_map(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        pose.log_map(np.eye(4))


@given(rotvec_strategy())
@settings(max_examples=200, deadline=None)
def test_round_trip_property(r):
    back = pose.log_map(pose.exp_map(r))
    assert np.linalg.norm(back - r) < 1e-9


# ---------------------------------------------------------------------------
# Jacobians vs finite differences
# ---------------------------------------------------------------------------


def test_jac_exp_matches_fd():
    rng = np.random.default_rng(21)
    cases = [random_rotvec(rng) for _ in range(100)]
    cases += [np.array([1e-6, -2e-6, 5e-7]), np.array([5e-5, 0.0, 0.0])]
    for r in cases:
        J = pose.jac_exp(r)
        fd = central_diff_jac(lambda x: pose.exp_map(x), r)
        assert rel_err(np.stack([J[m].ravel() for m in range(3)], axis=1), fd) < 1e-6


def test_jac_exp_at_zero_is_skew_basis():
    J = pose.jac_exp(np.zeros(3))
    for m in range(3):
        np.testing.assert_allclose(J[m], pose.skew(np.eye(3)[m]), atol=1e-15)


def test_log_jacobian_matches_geodesic_fd():
    # Contract dr/dR with rotation tangents [w]_x R and compare against a
    # central difference along the corresponding geodesic.
    rng = np.random.default_rng(22)
    h = 1e-6
    cases = [random_rotvec(rng) for _ in range(100)]
    for angle in (1e-4, math.pi / 2, math.pi - 1e-3):
        axis = rng.normal(size=3)
        cases.append(axis / np.linalg.norm(axis) * angle)
    for r in cases:
        R = pose.exp_map(r)
        w = rng.normal(size=3)
        rp = pose.log_map(pose.exp_map(w * h) @ R)
        rm = pose.log_map(pose.exp_map(-w * h) @ R)
        fd = (rp - rm) / (2.0 * h)
        _, J = pose.jac_log_of(R, [pose.skew(w) @ R])
        assert rel_err(J[:, 0], fd) < 1e-5


def test_jac_rxy_of_matches_fd():
    # Random rotations, then rotations whose z axis sits 1e-1, 1e-2 and
    # 1e-3 rad from -zhat, each with a spin about z: there the chart nears
    # its fold and r_xy turns fast with the azimuth.
    rng = np.random.default_rng(23)
    cases = [random_rotvec(rng, lo=1e-2, hi=math.pi - 0.1) for _ in range(100)]
    for delta in (1e-1, 1e-2, 1e-3):
        phi, spin = rng.uniform(-math.pi, math.pi, size=2)
        rxy = (math.pi - delta) * np.array([math.cos(phi), math.sin(phi)])
        R = pose.exp_map(pose.rxy_to_r(rxy)) @ pose.exp_map(np.array([0.0, 0.0, spin]))
        cases.append(pose.log_map(R))
    for r in cases:
        _, J = pose.jac_rxy_of(pose.exp_map(r), pose.jac_exp(r))
        fd = central_diff_jac(pose.rxy_from_r, r)
        assert rel_err(J, fd) < 1e-5


# ---------------------------------------------------------------------------
# The xy reduction
# ---------------------------------------------------------------------------


@given(rotvec_strategy(max_angle=math.pi - 1e-3))
@settings(max_examples=200, deadline=None)
def test_rxy_preserves_z_axis(r):
    rxy = pose.rxy_from_r(r)
    z_full = pose.exp_map(r)[:, 2]
    z_red = pose.exp_map(pose.rxy_to_r(rxy))[:, 2]
    np.testing.assert_allclose(z_red, z_full, atol=1e-9)


def test_rxy_of_pure_z_rotation_is_zero():
    np.testing.assert_allclose(
        pose.rxy_from_r(np.array([0.0, 0.0, 1.1])), np.zeros(2), atol=1e-15
    )


def test_rxy_upside_down_branch():
    # r = (pi, 0, 0) turns zhat onto -zhat, the fold, where dz/dr_xy has
    # rank 1: J is the finite minimum-norm derivative, and r_xy still aims
    # zhat at R zhat.
    r = np.array([math.pi, 0.0, 0.0])
    R = pose.exp_map(r)
    rxy, J = pose.jac_rxy_of(R, pose.jac_exp(r))
    np.testing.assert_array_equal(rxy, pose.rxy_from_r(r))
    np.testing.assert_allclose(rxy, np.array([math.pi, 0.0]), atol=1e-12)
    assert J.shape == (2, 3) and np.all(np.isfinite(J))
    z = pose.exp_map(pose.rxy_to_r(rxy))[:, 2]
    np.testing.assert_allclose(z, R[:, 2], atol=1e-15)
    np.testing.assert_allclose(z, [0.0, 0.0, -1.0], atol=1e-12)


def test_rxy_for_zdir_targets():
    rng = np.random.default_rng(29)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rxy = pose.rxy_for_zdir(v)
        z = pose.exp_map(pose.rxy_to_r(rxy))[:, 2]
        np.testing.assert_allclose(z, v, atol=1e-9)
    np.testing.assert_allclose(
        pose.exp_map(pose.rxy_to_r(pose.rxy_for_zdir(np.array([0.0, 0.0, -1.0]))))[:, 2],
        [0.0, 0.0, -1.0],
        atol=1e-15,
    )


# ---------------------------------------------------------------------------
# Transforms and chains
# ---------------------------------------------------------------------------


def test_xform_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        r = random_rotvec(rng)
        t = rng.normal(size=3)
        q = rng.normal(size=(10, 3))
        back = (pose.xform_fwd(q, r, t) - t) @ pose.exp_map(r)
        np.testing.assert_allclose(back, q, atol=1e-12)


def test_pose_inverse_round_trip():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = pose.Pose6(random_rotvec(rng), rng.normal(size=3))
        inv = pose.pose_inverse(p)
        q = rng.normal(size=3)
        np.testing.assert_allclose(
            pose.xform_fwd(pose.xform_fwd(q, p.r, p.t), inv.r, inv.t), q, atol=1e-12
        )


def _random_chain(rng, n):
    return [
        pose.ChainLink(
            pose.Pose6(random_rotvec(rng, lo=0.05, hi=1.2), rng.normal(size=3)),
            phi=int(rng.choice([1, -1])),
        )
        for _ in range(n)
    ]


def _apply_links(q, links):
    p = np.asarray(q, dtype=float)
    for link in links:
        if link.phi == 1:
            p = pose.xform_fwd(p, link.pose.r, link.pose.t)
        else:
            p = (p - link.pose.t) @ pose.exp_map(link.pose.r)
    return p


def test_compose_chain_matches_sequential_application():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            links = _random_chain(rng, n)
            composed = pose.compose_chain(links)
            for _ in range(5):
                q = rng.normal(size=3)
                np.testing.assert_allclose(
                    pose.xform_fwd(q, composed.r, composed.t),
                    _apply_links(q, links),
                    atol=1e-10,
                )


def test_compose_chain_single_forward_link_is_pose():
    rng = np.random.default_rng(42)
    p = pose.Pose6(random_rotvec(rng), rng.normal(size=3))
    c = pose.compose_chain([pose.ChainLink(p, 1)])
    np.testing.assert_allclose(c.r, p.r, atol=1e-12)
    np.testing.assert_allclose(c.t, p.t, atol=1e-12)


def test_compose_chain_with_inverse_is_identity():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = pose.Pose6(random_rotvec(rng), rng.normal(size=3))
        c = pose.compose_chain([pose.ChainLink(p, 1), pose.ChainLink(p, -1)])
        np.testing.assert_allclose(c.r, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(c.t, np.zeros(3), atol=1e-12)


def test_compose_chain_empty_is_identity():
    c = pose.compose_chain([])
    np.testing.assert_array_equal(c.r, np.zeros(3))
    np.testing.assert_array_equal(c.t, np.zeros(3))


def test_chain_link_rejects_bad_phi():
    with pytest.raises(ValueError):
        pose.ChainLink(pose.Pose6(np.zeros(3), np.zeros(3)), phi=0)
