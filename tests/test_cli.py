"""Command line round trips, exit codes, and file format identities.

Subcommands run in-process through cli.main so exit codes and stdout are
asserted directly. Simulated fixtures are rendered once per module; the
dome scene (camera-facing elliptic paraboloid on the optical axis) is
the admission-friendly geometry: every gate passes at its apex, so exit
codes separate cleanly from fit quality.
"""

import json
import os

import numpy as np
import pytest

from patchscape import cli
from patchscape.pose import rxy_for_zdir, rxy_to_r
from patchscape.sensor import (
    CameraIntrinsics,
    ConstantNoise,
    LinearNoise,
    OrganizedCloud,
    QuadraticNoise,
    StereoNoise,
)

SMALL_INTR = {
    "fx": 131.25, "fy": 131.25, "cx": 79.5, "cy": 59.5,
    "width": 160, "height": 120, "baseline": 0.075,
}


def _dome_spec(noise=None):
    r = rxy_to_r(rxy_for_zdir(np.array([0.0, 0.0, -1.0])))
    return {
        "intrinsics": "kinect-640",
        "noise": noise,
        "surfaces": [
            {
                "type": "patch",
                "surface": "elliptic_paraboloid",
                "boundary": "ellipse",
                "k": [-1.4, -1.1],
                "d": [0.5, 0.5],
                "pose": {"r": list(r), "t": [0.0, 0.0, 1.0]},
            }
        ],
    }


MAP_CFG = {
    "saliency": {"r": 0.12, "l_d": 1.0, "l_f": 0.0, "R": 0.35, "phi_g": 60.0},
    "n_f": 2000,
    "seed": 11,
}


@pytest.fixture(scope="module")
def dome_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("dome")
    scene = d / "dome.json"
    scene.write_text(json.dumps(_dome_spec()))
    assert cli.main(
        ["simulate", "--scene", str(scene), "--seed", "3", "--no-noise",
         "--out", str(d / "dome")]
    ) == 0
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(MAP_CFG))
    grav = d / "g.json"
    grav.write_text(json.dumps({"g": [0.0, 0.0, 1.0]}))
    return d


@pytest.fixture(scope="module")
def dome_map(dome_dir):
    out = dome_dir / "map.json"
    rc = cli.main(
        ["map", str(dome_dir / "dome_000.opc"),
         "--gravity", str(dome_dir / "g.json"),
         "--config", str(dome_dir / "cfg.json"),
         "--out", str(out), "--stats", str(dome_dir / "stats.csv")]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# OPC1 cloud files
# ---------------------------------------------------------------------------


def _toy_cloud(with_cov: bool) -> OrganizedCloud:
    intr = CameraIntrinsics(fx=10.0, fy=11.0, cx=1.5, cy=1.0, width=4, height=3, baseline=0.07)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(3, 4, 3)) + [0, 0, 2.0]
    pts[1, 2] = np.nan
    pts[0, 0] = np.nan
    cov = None
    if with_cov:
        a = rng.normal(size=(3, 4, 3, 3))
        cov = a @ a.transpose(0, 1, 3, 2) + 1e-6 * np.eye(3)
        cov[1, 2] = np.nan
        cov[0, 0] = np.nan
    return OrganizedCloud(points=pts, cov=cov, intrinsics=intr)


@pytest.mark.parametrize("with_cov", [False, True])
def test_opc_roundtrip_exact(tmp_path, with_cov):
    cloud = _toy_cloud(with_cov)
    path = tmp_path / "c.opc"
    cli.write_cloud(str(path), cloud, noise=StereoNoise())
    back, noise = cli.read_cloud(str(path))
    assert back.intrinsics == cloud.intrinsics
    assert isinstance(noise, StereoNoise) and noise.sigma_p == 0.35
    np.testing.assert_array_equal(back.points, cloud.points)
    if with_cov:
        np.testing.assert_array_equal(back.cov, cloud.cov)
    else:
        assert back.cov is None
    # serializing the parsed cloud reproduces the file byte for byte
    path2 = tmp_path / "c2.opc"
    cli.write_cloud(str(path2), back, noise=noise)
    assert path.read_bytes() == path2.read_bytes()


def test_opc_noise_tags(tmp_path):
    cloud = _toy_cloud(False)
    for noise in (None, ConstantNoise(1e-3), LinearNoise(2e-3),
                  QuadraticNoise(3e-3), StereoNoise(0.4, 0.2)):
        p = tmp_path / "n.opc"
        cli.write_cloud(str(p), cloud, noise=noise)
        _, back = cli.read_cloud(str(p))
        assert type(back) is type(noise)
        if noise is not None and not isinstance(noise, StereoNoise):
            assert back.k == noise.k
        if isinstance(noise, StereoNoise):
            assert (back.sigma_p, back.sigma_m) == (0.4, 0.2)


def test_opc_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.opc"
    bad.write_text("PLY9 4 3\n")
    with pytest.raises(ValueError):
        cli.read_cloud(str(bad))
    truncated = tmp_path / "trunc.opc"
    cloud = _toy_cloud(False)
    cli.write_cloud(str(truncated), cloud)
    lines = truncated.read_text().splitlines()
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        cli.read_cloud(str(truncated))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _small_scene(tmp_path, noise):
    spec = _dome_spec(noise)
    spec["intrinsics"] = SMALL_INTR
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(spec))
    return p


def test_simulate_deterministic_bytes(tmp_path):
    scene = _small_scene(tmp_path, {"model": "stereo"})
    for tag in ("a", "b"):
        assert cli.main(
            ["simulate", "--scene", str(scene), "--seed", "9",
             "--out", str(tmp_path / tag)]
        ) == 0
    assert (tmp_path / "a_000.opc").read_bytes() == (tmp_path / "b_000.opc").read_bytes()
    assert cli.main(
        ["simulate", "--scene", str(scene), "--seed", "10", "--out", str(tmp_path / "c")]
    ) == 0
    assert (tmp_path / "a_000.opc").read_bytes() != (tmp_path / "c_000.opc").read_bytes()
    # noisy output carries per-point covariance records
    cloud, noise = cli.read_cloud(str(tmp_path / "a_000.opc"))
    assert cloud.cov is not None and isinstance(noise, StereoNoise)


def test_simulate_truth_sidecar(tmp_path):
    scene = _small_scene(tmp_path, None)
    assert cli.main(
        ["simulate", "--scene", str(scene), "--seed", "1", "--frames", "2",
         "--out", str(tmp_path / "sim")]
    ) == 0
    truth = json.loads((tmp_path / "sim_truth.json").read_text())
    assert [os.path.basename(f) for f in truth["frames"]] == ["sim_000.opc", "sim_001.opc"]
    for f in truth["frames"]:
        assert os.path.exists(f)
    s = truth["surfaces"][0]
    assert s["surface"] == "elliptic_paraboloid"
    assert s["k"] == [-1.4, -1.1]
    assert s["t"] == [0.0, 0.0, 1.0]
    # same scene, same seed: the two frames of a static camera are identical
    assert (tmp_path / "sim_000.opc").read_bytes() == (tmp_path / "sim_001.opc").read_bytes()


def test_simulate_trajectory(tmp_path):
    scene = _small_scene(tmp_path, None)
    traj = [{"t": [0.0, 0.0, 0.05 * i]} for i in range(3)]
    tpath = tmp_path / "traj.json"
    tpath.write_text(json.dumps(traj))
    assert cli.main(
        ["simulate", "--scene", str(scene), "--seed", "1",
         "--trajectory", str(tpath), "--out", str(tmp_path / "tr")]
    ) == 0
    truth = json.loads((tmp_path / "tr_truth.json").read_text())
    assert len(truth["frames"]) == 3
    assert truth["camera_per_frame"][2]["t"] == [0.0, 0.0, 0.1]
    # camera moved toward the dome, so the apex range shrinks frame to frame
    c0, _ = cli.read_cloud(str(tmp_path / "tr_000.opc"))
    c2, _ = cli.read_cloud(str(tmp_path / "tr_002.opc"))
    assert c2.points[60, 80, 2] < c0.points[60, 80, 2] - 0.09

    bad = cli.main(
        ["simulate", "--scene", str(scene), "--trajectory", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "x")]
    )
    assert bad == 1


def test_simulate_rejects_bad_scene(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps({"surfaces": [{"type": "torus"}]}))
    assert cli.main(["simulate", "--scene", str(p), "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_admits_at_dome_apex(dome_dir, capsys):
    rc = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "320", "240",
         "--radius", "0.12", "--n-f", "2000"]
    )
    rec = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(rec["validation"]["gates"].values())
    assert rec["validation"]["residual"] <= 0.01
    assert sorted(rec["k"]) == pytest.approx([-1.4, -1.1], abs=0.02)
    assert np.asarray(rec["sigma"]).shape == (10, 10)


def test_fit_gate_failure_still_emits_record(dome_dir, capsys):
    # an impossible residual budget trips the gate, but the record must
    # still be printed alongside the nonzero exit
    rc = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "320", "240",
         "--radius", "0.12", "--n-f", "2000", "--d-max", "1e-9"]
    )
    rec = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rec["validation"]["gates"]["residual"] is False
    assert rec["validation"]["gates"]["curvature"] is True


def test_fit_invalid_pixel(dome_dir, capsys):
    rc = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "5000", "240"]
    )
    assert rc == 1
    # corner pixel: the dome subtends about a quarter of the image, so the
    # corner ray misses the scene and has no return
    rc2 = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "0", "0"]
    )
    assert rc2 == 1
    assert capsys.readouterr().out == ""


def test_fit_too_few_neighbors(dome_dir, capsys):
    rc = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "320", "240",
         "--radius", "0.003"]
    )
    assert rc == 1
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


def test_map_empty_frame_list(tmp_path, capsys):
    out = tmp_path / "empty.json"
    assert cli.main(["map", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["patches"] == []


def test_map_missing_frame(tmp_path):
    assert cli.main(
        ["map", str(tmp_path / "ghost.opc"), "--out", str(tmp_path / "m.json")]
    ) == 1


def test_map_admits_and_reports(dome_dir, dome_map):
    doc = json.loads(dome_map.read_text())
    assert len(doc["patches"]) >= 1
    for rec in doc["patches"]:
        assert all(rec["validation"]["gates"].values())
        assert rec["validation"]["residual"] <= 0.01
        assert len(rec["r"]) == 3 and len(rec["t"]) == 3
        assert rec["frame_index"] == 1
    stats = (dome_dir / "stats.csv").read_text().splitlines()
    header = stats[0].split(",")
    assert header[:4] == ["frame", "seeds", "fits", "admitted"]
    assert "drop_coverage" in header and "t_total_s" in header
    row = dict(zip(header, stats[1].split(",")))
    assert int(row["admitted"]) == len(doc["patches"])
    assert float(row["t_total_s"]) > 0


def test_map_deterministic_bytes(dome_dir, dome_map):
    out2 = dome_dir / "map2.json"
    assert cli.main(
        ["map", str(dome_dir / "dome_000.opc"),
         "--gravity", str(dome_dir / "g.json"),
         "--config", str(dome_dir / "cfg.json"), "--out", str(out2)]
    ) == 0
    assert dome_map.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def _write_traj(tmp_path, n=6, step=0.2):
    p = tmp_path / "traj.json"
    p.write_text(json.dumps([{"t": [0.0, 0.0, step * i]} for i in range(n)]))
    return p


def test_track_fv_never_fires(tmp_path, capsys):
    traj = _write_traj(tmp_path)
    assert cli.main(["track", "--trajectory", str(traj), "--policy", "fv"]) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    frames = [ln for ln in lines if "frame" in ln]
    assert len(frames) == 6
    assert not any(ln["fired"] for ln in frames)
    assert "final" in lines[-1]


def test_track_fc_fires_and_culls(tmp_path, dome_map, capsys):
    traj = _write_traj(tmp_path)
    rc = cli.main(
        ["track", "--trajectory", str(traj), "--policy", "fc", "--c-d", "0.3",
         "--map", str(dome_map)]
    )
    assert rc == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    frames = [ln for ln in lines if "frame" in ln]
    fired = [ln["frame"] for ln in frames if ln["fired"]]
    # 0.2 m steps against a 0.3 m threshold: every other frame recenters
    assert fired == [2, 4]
    for ln in frames:
        if ln["fired"]:
            assert ln["T"]["t"][2] == pytest.approx(-0.4)
    # after 1.0 m of forward motion the dome patches leave the volume cube
    culled = [i for ln in frames for i in ln["culled"]]
    assert culled and lines[-1]["final"]["patch_ids"] == []


def test_track_replayable(tmp_path, dome_map):
    traj = _write_traj(tmp_path)
    logs = []
    for tag in ("1", "2"):
        out = tmp_path / f"log{tag}.jsonl"
        assert cli.main(
            ["track", "--trajectory", str(traj), "--policy", "fc",
             "--map", str(dome_map), "--out", str(out)]
        ) == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]


def test_track_down_policy_accepts_gravity(tmp_path, capsys):
    traj = _write_traj(tmp_path, n=3)
    rc = cli.main(
        ["track", "--trajectory", str(traj), "--policy", "fd",
         "--g", "0", "1", "0", "--forward", "0", "0", "1"]
    )
    assert rc == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert "final" in lines[-1]


def test_track_unknown_policy(tmp_path, capsys):
    traj = _write_traj(tmp_path)
    assert cli.main(["track", "--trajectory", str(traj), "--policy", "warp"]) == 1
    assert capsys.readouterr().out == ""


def test_track_empty_trajectory(tmp_path):
    p = tmp_path / "traj.json"
    p.write_text("[]")
    assert cli.main(["track", "--trajectory", str(p), "--policy", "fv"]) == 1


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes_own_map(dome_dir, dome_map, capsys):
    rc = cli.main(
        ["validate", "--map", str(dome_map), "--cloud", str(dome_dir / "dome_000.opc"),
         "--config", str(dome_dir / "cfg.json")]
    )
    out = capsys.readouterr().out
    assert rc == 0
    entries = [json.loads(ln) for ln in out.splitlines()]
    assert entries and all(e["passed"] for e in entries)


def test_validate_flags_tampered_patch(tmp_path, dome_dir, dome_map, capsys):
    doc = json.loads(dome_map.read_text())
    doc["patches"][0]["t"][2] += 0.05  # push the patch off the measured surface
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    rc = cli.main(
        ["validate", "--map", str(bad), "--cloud", str(dome_dir / "dome_000.opc"),
         "--config", str(dome_dir / "cfg.json")]
    )
    out = capsys.readouterr().out
    assert rc == 2
    entries = [json.loads(ln) for ln in out.splitlines()]
    assert not entries[0]["gates"]["residual"]


def test_validate_honours_check_coverage(tmp_path, dome_dir, dome_map, capsys):
    doc = json.loads(dome_map.read_text())
    # extents far past the 0.12 m neighborhood leave most coverage cells empty
    doc["patches"][0]["d"] = [0.4, 0.4]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    off = tmp_path / "no_coverage.json"
    off.write_text(json.dumps(dict(MAP_CFG, check_coverage=False)))
    argv = ["validate", "--map", str(wide), "--cloud", str(dome_dir / "dome_000.opc")]

    assert cli.main(argv + ["--config", str(dome_dir / "cfg.json")]) == 2
    gates = json.loads(capsys.readouterr().out.splitlines()[0])["gates"]
    assert gates == {"curvature": True, "residual": True, "coverage": False}

    assert cli.main(argv + ["--config", str(off)]) == 0
    entry = json.loads(capsys.readouterr().out.splitlines()[0])
    assert entry["passed"] and entry["bad_cells"] == 0


@pytest.mark.parametrize(
    "spec",
    [{"budgets": {"n_S": 1}}, {"n_ff": 50}, {"volume": {"v_size": 4}}],
    ids=["budget_typo", "unknown_key", "volume_typo"],
)
def test_map_rejects_malformed_config(tmp_path, dome_dir, capsys, spec):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec))
    rc = cli.main(
        ["map", str(dome_dir / "dome_000.opc"), "--config", str(cfg),
         "--out", str(tmp_path / "map.json")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: bad config: ")
    assert not (tmp_path / "map.json").exists()
