"""Command line round trips, exit codes, and file format identities.

Subcommands run in-process through cli.main so exit codes and stdout are
asserted directly. Simulated fixtures are rendered once per module; the
dome scene (camera-facing elliptic paraboloid on the optical axis) is
the admission-friendly geometry: every gate passes at its apex, so exit
codes separate cleanly from fit quality.
"""

import contextlib
import copy
import io
import json
import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import loop_read_body, loop_write_cloud

from patchscape import cli
from patchscape import fit as fit_module
from patchscape.mapping import MapPatch, ValidationRecord, init_volume, map_step
from patchscape.patch import BoundaryType as B
from patchscape.patch import Patch, SurfaceType, boundaries, is_revolute, k3_map
from patchscape.pose import Pose5, Pose6, rxy_for_zdir, rxy_from_r, rxy_to_r
from patchscape.sensor import (
    CameraIntrinsics,
    ConstantNoise,
    LinearNoise,
    OrganizedCloud,
    QuadraticNoise,
    ScenePlane,
    StereoNoise,
    pack_cov,
    sample_scene,
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
                "r": list(r),
                "t": [0.0, 0.0, 1.0],
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
# OPC2 cloud files
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
        cov = pack_cov(a @ a.transpose(0, 1, 3, 2) + 1e-6 * np.eye(3))
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


def _edit_header(path, index, line):
    """Replace header line index of a cloud file, keeping the binary body."""
    lines = path.read_bytes().split(b"\n", 4)
    lines[index] = line.encode()
    path.write_bytes(b"\n".join(lines))


def _assert_bad_input(tmp_path, capsys, path, where):
    """map, fit and validate each exit 1 with one error line starting where."""
    empty_map = tmp_path / "map.json"
    empty_map.write_text(json.dumps({"patches": []}))
    capsys.readouterr()
    assert cli.main(["map", str(path), "--out", str(tmp_path / "m.json")]) == 1
    assert cli.main(["fit", "--cloud", str(path), "--pixel", "1", "1"]) == 1
    assert cli.main(["validate", "--map", str(empty_map), "--cloud", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(ln.startswith(f"error: {where}") for ln in err)


def test_opc_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.opc"
    bad.write_text("PLY9 4 3\n")
    with pytest.raises(ValueError, match=f"^{bad}: not an OPC2 cloud file"):
        cli.read_cloud(str(bad))
    truncated = tmp_path / "trunc.opc"
    cli.write_cloud(str(truncated), _toy_cloud(False))
    truncated.write_bytes(truncated.read_bytes()[:-2 * 24])  # the last two point rows
    with pytest.raises(ValueError, match=f"^{truncated}: "):
        cli.read_cloud(str(truncated))


@pytest.mark.parametrize(
    "index, line",
    [(2, "noise constant"), (2, "noise"), (1, "intrinsics 5 5"), (3, "cov"),
     # a trailing value past the line's last field
     (0, "OPC2 4 3 7"), (1, "intrinsics 10 11 1.5 1 0.07 9"),
     (2, "noise stereo 0.35 0.17 0.5"), (3, "cov 0 1")],
)
def test_opc_short_header_field_is_bad_input(tmp_path, capsys, index, line):
    path = tmp_path / "short.opc"
    cli.write_cloud(str(path), _toy_cloud(False), noise=ConstantNoise(1e-3))
    _edit_header(path, index, line)
    with pytest.raises(ValueError, match=f"^{path}: "):
        cli.read_cloud(str(path))
    _assert_bad_input(tmp_path, capsys, path, f"{path}: ")


@pytest.mark.parametrize(
    "edit", ["opc1_text", "header_not_ascii", "negative_size", "noise_k_negative",
             "noise_sigma_zero", "fx_negative", "cov_two", "size_past_the_file"]
)
def test_opc_rejects_bad_file(tmp_path, capsys, edit):
    """An OPC1 text file, an unreadable header or one that asks for more
    body than the file holds (which allocates none) is bad input, named by
    path."""
    path = tmp_path / "bad.opc"
    cloud = _toy_cloud(True)
    cli.write_cloud(str(path), cloud)
    if edit == "opc1_text":
        loop_write_cloud(str(path), cloud)
        where = f"{path}: an OPC1 text cloud"
    elif edit == "header_not_ascii":
        _edit_header(path, 2, "noise \u03c3")
        where = f"{path}: the header is not ASCII text"
    elif edit == "negative_size":
        _edit_header(path, 0, "OPC2 -4 -3")
        where = f"{path}: width and height must be non-negative"
    elif edit == "noise_k_negative":
        _edit_header(path, 2, "noise constant -1e-06")
        where = f"{path}: constant noise k must be finite and non-negative"
    elif edit == "fx_negative":
        _edit_header(path, 1, "intrinsics -10 11 1.5 1 0.07")
        where = f"{path}: fx and fy must be finite and positive"
    elif edit == "cov_two":
        # the cloud holds covariances, so the body length matches a cov 1 header
        _edit_header(path, 3, "cov 2")
        where = f"{path}: cov must be 0 or 1, got 2"
    elif edit == "size_past_the_file":
        _edit_header(path, 0, "OPC2 100000 100000")
        where = f"{path}: expected {10**10 * 9 * 8} body bytes, found {12 * 9 * 8}"
    else:
        _edit_header(path, 2, "noise stereo 0 0.17")
        where = f"{path}: stereo noise sigma_p and sigma_m must be finite and positive"
    with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
        cli.read_cloud(str(path))
    _assert_bad_input(tmp_path, capsys, path, where)


_BAD_RECORDS = [("point", "1 2"), ("point", "1 2 3 4"), ("cov", "1 2 3 4 5"),
                ("cov", "1 2 3 4 5 6 7"), ("point", "1 x 3"), ("cov", "1 2 3 # 5 6")]


def _put_rows(block, record, rows):
    """A body edit writing record over rows of the toy cloud's point or covariance block.

    A numeric record becomes a binary row of its own width; a record with a
    non-numeric token is written as its text, as a text edit of the file
    would leave it. Row 12 is one past the last, so writing it appends a row.
    """
    k = 3 if block == "point" else 6
    try:
        row = np.array(record.split(), dtype=float).astype("<f8").tobytes()
    except ValueError:
        row = (record + "\n").encode()

    def edit(body):
        start = 0 if block == "point" else 12 * 3 * 8  # the toy cloud has 12 pixels
        for i in reversed(rows):
            body[start + i * k * 8:start + (i + 1) * k * 8] = row

    return edit


@pytest.mark.parametrize(
    "edit",
    [pytest.param(_put_rows(block, record, rows), id=f"{block}-{record}-{name}")
     for name, rows in (("one", [1]), ("every", range(12))) for block, record in _BAD_RECORDS]
    + [pytest.param(bytearray.pop, id="one_byte_short"),  # drops the last byte
       pytest.param(lambda body: body.__delitem__(slice(-8, None)), id="one_float_short"),
       pytest.param(lambda body: body.extend(np.array([1.0]).astype("<f8").tobytes()),
                    id="one_float_long"),
       pytest.param(_put_rows("cov", "1 2 3 4 5 6", [12]), id="one_row_long")],
)
def test_opc_rejects_bad_body_record(tmp_path, capsys, edit):
    """A body whose byte count differs from the header's is bad input.

    The reader names the expected and found body byte counts, and map, fit
    and validate exit 1 with that error.
    """
    path = tmp_path / "bad.opc"
    cli.write_cloud(str(path), _toy_cloud(True))
    data = path.read_bytes()
    head = len(b"\n".join(data.split(b"\n", 4)[:4])) + 1
    body = bytearray(data[head:])
    edit(body)
    path.write_bytes(data[:head] + bytes(body))
    where = f"{path}: expected {12 * 9 * 8} body bytes, found {len(body)}"
    with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
        cli.read_cloud(str(path))
    _assert_bad_input(tmp_path, capsys, path, where)


@pytest.mark.parametrize("short", [False, True], ids=["whole", "one_float_short"])
def test_opc_reads_a_pipe(tmp_path, short):
    """A pipe, whose size is known only once it is read, reads as its file
    does, and a body one float short is still bad input."""
    path = tmp_path / "c.opc"
    cli.write_cloud(str(path), _toy_cloud(True))
    data = path.read_bytes()
    r, w = os.pipe()
    os.write(w, data[:-8] if short else data)  # the toy cloud fits in the pipe's buffer
    os.close(w)
    try:
        if short:
            where = f"/dev/fd/{r}: expected {12 * 9 * 8} body bytes, found {12 * 9 * 8 - 8}"
            with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
                cli.read_cloud(f"/dev/fd/{r}")
        else:
            back, _ = cli.read_cloud(f"/dev/fd/{r}")
            want, _ = cli.read_cloud(str(path))
            np.testing.assert_array_equal(back.points, want.points)
            np.testing.assert_array_equal(back.cov, want.cov)
    finally:
        os.close(r)


def test_opc_reads_a_fifo_fed_by_a_writer_thread(tmp_path):
    """A named FIFO whose cloud is larger than a pipe's buffer, written
    while it is read, reads as its file does byte for byte."""
    intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=19.5, cy=14.5, width=40, height=30, baseline=0.07)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 40, 3)) + [0, 0, 2.0]
    pts[rng.random((30, 40)) < 0.1] = np.nan
    a = rng.normal(size=(30, 40, 3, 3))
    cloud = OrganizedCloud(points=pts, cov=pack_cov(a @ a.transpose(0, 1, 3, 2)), intrinsics=intr)
    path = tmp_path / "c.opc"
    cli.write_cloud(str(path), cloud, noise=StereoNoise())
    data = path.read_bytes()
    assert len(data) > 65536  # more than one fill of a Linux pipe's buffer
    fifo = tmp_path / "c.fifo"
    os.mkfifo(fifo)
    # a daemon, so a reader that never opens the FIFO fails the test
    # without leaving the writer blocked
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    back, noise = cli.read_cloud(str(fifo))
    writer.join(timeout=60)
    assert not writer.is_alive()
    want, want_noise = cli.read_cloud(str(path))
    assert back.intrinsics == want.intrinsics and noise == want_noise
    assert back.points.tobytes() == want.points.tobytes()
    assert back.cov.tobytes() == want.cov.tobytes()


def test_mapping_a_frame_from_its_file_is_mapping_it_in_memory(tmp_path):
    """A rendered stereo frame maps to the same patches, bit for bit, in
    memory and after write_cloud and read_cloud.

    The stereo J E J^T is not bit-symmetric, so a cloud that kept its full
    3x3 covariances would fit on lower triangles that its file drops; the
    cloud holds the packed rows its file stores.
    """
    scene, cfg = tmp_path / "scene.json", tmp_path / "cfg.json"
    scene.write_text(json.dumps(_dome_spec({"model": "stereo"})))
    cfg.write_text(json.dumps(MAP_CFG))
    surfaces, intr, cam, noise = cli.load_scene_spec(str(scene))
    config, budgets, _, seed = cli.load_map_config(str(cfg))
    cloud = sample_scene(surfaces, intr, camera_pose=cam, noise=noise, rng=0)
    cli.write_cloud(str(tmp_path / "frame.opc"), cloud, noise)
    back, _ = cli.read_cloud(str(tmp_path / "frame.opc"))
    runs = []
    for frame in (cloud, back):
        res = map_step(init_volume(), frame, [0.0, 0.0, 1.0], budgets=budgets, config=config,
                       rng_seed=(seed, 0))
        runs.append([(mp.id, mp.patch.k.tobytes(), mp.patch.pose.t.tobytes(),
                      mp.patch.sigma.tobytes()) for mp in res.admitted])
    assert runs[0] and runs[0] == runs[1]


def _planted_frame() -> OrganizedCloud:
    """Seeded stereo frame of a floor plane, with edge-case values planted.

    The upper half of the image has no return. Row 47 holds -0.0, the
    smallest subnormal, the largest double and 1e-300, and a finite point
    whose covariance has one NaN entry, which must be written as NaN.
    """
    intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5, width=64, height=48,
                            baseline=0.075)
    cloud = sample_scene([ScenePlane(np.array([0.0, 1.0, 0.0]), 0.5)], intr,
                         noise=StereoNoise(), rng=7)
    pts, cov = cloud.points.copy(), cloud.cov.copy()
    assert np.isfinite(pts[47, :3]).all() and np.isnan(pts[0]).all()
    pts[47, 0] = [-0.0, 5e-324, 1.7976931348623157e308]
    pts[47, 1, 0] = 1e-300
    pts[47, 3, 1] = np.inf  # a point with one non-finite value is all NaN
    cov[47, 0] = [1e-300, -0.0, 5e-324, 1.0, 2.0, 1.7976931348623157e308]
    cov[47, 2, 4] = np.nan
    return OrganizedCloud(points=pts, cov=cov, intrinsics=intr)


@pytest.mark.parametrize("frame", ["planted", "all_nan", "no_pixels"])
def test_opc_matches_per_line_oracle(tmp_path, frame):
    """The binary round trip parses every value as the OPC1 text round trip did."""
    cloud = _planted_frame()
    if frame == "all_nan":
        cloud = OrganizedCloud(points=np.full_like(cloud.points, np.nan),
                               cov=np.full_like(cloud.cov, np.nan), intrinsics=cloud.intrinsics)
    elif frame == "no_pixels":
        cloud = OrganizedCloud(points=cloud.points[:, :0], cov=cloud.cov[:, :0],
                               intrinsics=replace(cloud.intrinsics, width=0))
    path, oracle = tmp_path / "c.opc", tmp_path / "oracle.opc"
    cli.write_cloud(str(path), cloud, noise=StereoNoise())
    loop_write_cloud(str(oracle), cloud, noise=StereoNoise())
    back, _ = cli.read_cloud(str(path))
    for got, want in zip((back.points, back.cov), loop_read_body(str(oracle))):
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    if frame == "planted":
        assert np.signbit(back.points[47, 0, 0]) and back.points[47, 0, 1] == 5e-324
        assert np.isnan(back.points[47, 3]).all() and np.isnan(back.cov[47, 3]).all()
        assert np.isnan(back.cov[47, 2]).all() and np.isfinite(back.points[47, 2]).all()


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


@pytest.mark.parametrize(
    "spec",
    [{"surfaces": [{"type": "torus"}]}, {"surfaces": [3]}, [{"type": "plane"}],
     {"camera": 3, "surfaces": []},
     {"surfaces": [{"type": "plane", "normal": [0.0, 0.0, 1.0], "offset": "1.0"}]},
     {"surfaces": [{"type": "plane", "normal": [0.0, 0.0, 1.0], "offset": True}]},
     {"surfaces": [{"type": "plane", "normal": ["0", "0", "1"], "offset": 1.0}]},
     {"camera": {"t": [None, 0.0, 0.0]}, "surfaces": []},
     {"surfaces": [{"type": "plane", "normal": [0.0, 0.0, 1.0], "offset": 10**400}]},
     # extents that bound no region: the patch rejects them before a render
     {**_dome_spec(), "surfaces": [{**_dome_spec()["surfaces"][0], "d": [0.0, 0.5]}]},
     {**_dome_spec(), "surfaces": [{**_dome_spec()["surfaces"][0], "d": [-0.5, 0.5]}]}],
    ids=["unknown_type", "surface_not_object", "top_level_list", "camera_not_object",
         "plane_offset_string", "plane_offset_true", "plane_normal_strings", "camera_t_null",
         "plane_offset_past_float_range", "d_zero", "d_negative"],
)
def test_simulate_rejects_bad_scene(tmp_path, capsys, spec):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(spec))
    assert cli.main(["simulate", "--scene", str(p), "--out", str(tmp_path / "x")]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad scene spec: ")
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize(
    "noise",
    [{"model": "constant", "k": -1e-6}, {"model": "linear", "k": float("inf")},
     {"model": "stereo", "sigma_p": 0.0}, {"model": "stereo", "sigma_m": 0.0},
     {"model": "stereo", "sigma_q": 0.3}],
    ids=["k_negative", "k_infinite", "sigma_p_zero", "sigma_m_zero", "unknown_field"],
)
def test_simulate_rejects_bad_noise(tmp_path, capsys, noise):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(_dome_spec(noise)))
    assert cli.main(["simulate", "--scene", str(p), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: bad scene spec: ")
    assert not (tmp_path / "x_000.opc").exists()


@pytest.mark.parametrize(
    "edit, message",
    [({"baseline": 0.0}, "stereo noise needs a positive baseline"),
     ({"fx": -131.25}, "intrinsics: fx and fy must be finite and positive"),
     ({"focal": 131.25}, ""),
     ({"fx": 10**400}, "intrinsics.fx must be finite")],
    ids=["baseline_zero_stereo", "fx_negative", "unknown_key", "fx_past_float_range"],
)
def test_simulate_rejects_bad_intrinsics(tmp_path, capsys, edit, message):
    spec = dict(_dome_spec({"model": "stereo"}), intrinsics=dict(SMALL_INTR, **edit))
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(spec))
    assert cli.main(["simulate", "--scene", str(p), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad scene spec: {message}")
    assert not (tmp_path / "x_000.opc").exists()


def test_simulate_accepts_zero_baseline_without_stereo(tmp_path, capsys):
    spec = dict(_dome_spec({"model": "stereo"}), intrinsics=dict(SMALL_INTR, baseline=0.0))
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(spec))
    argv = ["simulate", "--scene", str(p), "--no-noise", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    cloud, _ = cli.read_cloud(str(tmp_path / "x_000.opc"))
    assert cloud.intrinsics.baseline == 0.0 and cloud.valid_mask.any()


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_simulate_rejects_fewer_than_one_frame(tmp_path, capsys, frames):
    argv = ["simulate", "--scene", str(_small_scene(tmp_path, None)), "--frames", frames,
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --frames must be at least 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


def test_simulate_seed_ignores_environment(tmp_path, monkeypatch):
    """The seed is --seed, else 0; no environment variable changes it."""
    monkeypatch.setenv("PATCHSCAPE_SEED", "5")
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(dict(_dome_spec(), intrinsics=SMALL_INTR)))
    assert cli.main(["simulate", "--scene", str(p), "--out", str(tmp_path / "x")]) == 0
    assert json.loads((tmp_path / "x_truth.json").read_text())["seed"] == 0


def test_json_dumps_one_line_form():
    obj = {"a": [1.5, float("nan"), {"b": np.float64(0.1)}], "c": True, "d": np.arange(2)}
    line = '{"a": [1.5, null, {"b": 0.10000000000000001}], "c": true, "d": [0, 1]}'
    assert cli.json_dumps(obj, indent=None) == line
    assert cli.json_dumps(obj) == (
        '{\n  "a": [1.5, null, {\n    "b": 0.10000000000000001\n  }],\n'
        '  "c": true,\n  "d": [0, 1]\n}'
    )


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


@pytest.mark.parametrize("max_iter", [None, 1], ids=["converged", "capped"])
def test_fit_reports_solve_convergence(dome_dir, capsys, monkeypatch, max_iter):
    # the record carries the solve's convergence flag, iterations and chi2
    # as fit_patch returned them; a solve stopped at the iteration cap says
    # so, and the exit code still follows the gates alone
    if max_iter is not None:
        monkeypatch.setattr(fit_module, "_MAX_ITER", max_iter)
    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit_module.fit_patch(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cli, "fit_patch", recorded)
    rc = cli.main(
        ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "320", "240",
         "--radius", "0.12", "--n-f", "2000"]
    )
    rec = json.loads(capsys.readouterr().out)
    (fit,) = fits
    assert rec["converged"] is fit.converged is (max_iter is None)
    assert rec["iterations"] == fit.iterations > 0
    assert rec["chi2"] == fit.chi2 > 0.0
    assert rc == (0 if all(rec["validation"]["gates"].values()) else 2)


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
    assert header == [
        "frame", "seeds", "fits", "admitted",
        "drop_too_few_points", "drop_fit_failed", "drop_curvature", "drop_residual",
        "drop_coverage", "drop_budget",
        "t_read_s", "t_saliency_s", "t_seeds_s", "t_neighborhood_s", "t_fit_s", "t_gates_s",
        "t_fit_validate_s", "t_total_s",
    ]
    row = dict(zip(header, stats[1].split(",")))
    assert int(row["admitted"]) == len(doc["patches"])
    assert float(row["t_total_s"]) > 0


def test_map_stats_time_the_read(dome_dir, dome_map):
    stats = (dome_dir / "stats.csv").read_text().splitlines()
    row = dict(zip(stats[0].split(","), stats[1].split(",")))
    assert float(row["t_read_s"]) > 0


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


@pytest.mark.parametrize(
    "policy, vectors, message",
    [("fd", ["--g", "0", "0", "0"], "gravity must be finite and nonzero"),
     ("ff", ["--forward", "0", "nan", "1"], "forward must be finite and nonzero"),
     ("fd", ["--g", "0", "0", "1", "--forward", "0", "0", "1"], "forward is parallel to down"),
     ("ff", ["--g", "0", "0", "1", "--forward", "0", "0", "1"], "down is parallel to forward")],
    ids=["fd_zero_gravity", "ff_nan_forward", "fd_parallel", "ff_parallel"],
)
def test_track_rejects_bad_down_forward(tmp_path, capsys, policy, vectors, message):
    traj = _write_traj(tmp_path, n=3)
    assert cli.main(["track", "--trajectory", str(traj), "--policy", policy, *vectors]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {message}")


@pytest.mark.parametrize("flag, value", [("--c-d", "nan"), ("--c-d", "-1"), ("--c-a", "nan")])
def test_track_rejects_bad_remap_thresholds(tmp_path, capsys, flag, value):
    traj = _write_traj(tmp_path, n=3)
    assert cli.main(["track", "--trajectory", str(traj), "--policy", "fd", flag, value]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: c_d and c_a must be >= 0")


def test_track_drops_preloaded_patch_outside_grid(tmp_path, dome_map, capsys):
    """A preloaded patch whose xz lies outside the volume grid is dropped at load."""
    doc = json.loads(dome_map.read_text())
    rec = doc["patches"][0]
    outside = dict(rec, id=rec["id"] + 100, t=[-0.3, rec["t"][1], rec["t"][2]])
    doc["patches"] = [rec, outside]
    pmap = tmp_path / "map.json"
    pmap.write_text(json.dumps(doc))
    traj = _write_traj(tmp_path, n=2)
    argv = ["track", "--trajectory", str(traj), "--policy", "fv", "--map", str(pmap)]
    assert cli.main(argv) == 0
    final = json.loads(capsys.readouterr().out.splitlines()[-1])["final"]
    assert final["patch_ids"] == [rec["id"]]


def test_track_unknown_policy(tmp_path, capsys):
    traj = _write_traj(tmp_path)
    assert cli.main(["track", "--trajectory", str(traj), "--policy", "warp"]) == 1
    assert capsys.readouterr().out == ""


def test_track_empty_trajectory(tmp_path):
    p = tmp_path / "traj.json"
    p.write_text("[]")
    assert cli.main(["track", "--trajectory", str(p), "--policy", "fv"]) == 1


@pytest.mark.parametrize("command", ["simulate", "track"])
@pytest.mark.parametrize(
    "traj",
    [[], [3], ["x"], {"t": [0.0, 0.0, 0.0]}, [{"t": {}}], [{"t": ["0", "0", "0"]}],
     [{"t": [True, 0.0, 0.0]}], [{"t": [None, 0.0, 0.0]}]],
    ids=["empty", "entry_number", "entry_string", "top_level_object", "t_not_numbers",
         "t_strings", "t_true", "t_null"],
)
def test_bad_trajectory_is_bad_input(tmp_path, capsys, command, traj):
    """simulate and track read --trajectory alike: exit 1 and one error line."""
    tpath = tmp_path / "traj.json"
    tpath.write_text(json.dumps(traj))
    if command == "simulate":
        argv = ["simulate", "--scene", str(_small_scene(tmp_path, None)),
                "--trajectory", str(tpath), "--out", str(tmp_path / "x")]
    else:
        argv = ["track", "--trajectory", str(tpath), "--policy", "fv"]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad trajectory: ")
    assert len(out.err.splitlines()) == 1
    assert not (tmp_path / "x_000.opc").exists()


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
    [{"g": [0.0, 0.0, 0.0]}, {"g": [0.0, float("nan"), 1.0]}, {"g": [0.0, 1.0]},
     {"g_per_frame": []}, {"g_per_frame": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]},
     {"g": ["0", "1", "0"]}, {"g": [False, True, False]}],
    ids=["zero", "nan", "two_components", "empty_list", "one_bad_frame", "strings", "bools"],
)
def test_map_rejects_bad_gravity(tmp_path, dome_dir, capsys, spec):
    grav = tmp_path / "g.json"
    grav.write_text(json.dumps(spec))
    rc = cli.main(
        ["map", str(dome_dir / "dome_000.opc"), "--gravity", str(grav),
         "--config", str(dome_dir / "cfg.json"), "--out", str(tmp_path / "map.json")]
    )
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad gravity file: ")
    assert len(out.err.splitlines()) == 1
    assert not (tmp_path / "map.json").exists()


# config files that map and validate must reject, by test id
_BAD_CONFIGS = {
    "budget_typo": {"budgets": {"n_S": 1}},
    "unknown_key": {"n_ff": 50},
    "volume_typo": {"volume": {"v_size": 4}},
    "gamma_above_one": {"gamma": 1.5},
    "n_f_not_integer": {"n_f": 8.9},
    "n_f_below_fit_minimum": {"n_f": 12},
    "bool_as_string": {"check_coverage": "false"},
    "bool_as_integer": {"check_coverage": 0},
    "d_max_negative": {"d_max": -0.01},
    "d_max_infinite": {"d_max": float("inf")},
    "decimate_negative": {"decimate": -1},
    "nested_bool_as_float": {"coverage": {"w_c": True}},
    "nested_v_g_not_integer": {"volume": {"v_g": 2.5}},
    "nested_string_as_integer": {"budgets": {"n_s": "3"}},
    "surface_unknown": {"surface": "torus"},
    "kappa_range_inverted": {"saliency": {"kappa_min": 5.0, "kappa_max": -5.0}},
    "budget_count_negative": {"budgets": {"n_s": -1}},
    "budget_seconds_negative": {"budgets": {"wall_clock_s": -1.0}},
    "volume_size_negative": {"volume": {"v_s": -4.0}},
    "variant_kdtree_removed": {"neighborhood": {"variant": "kdtree"}},
    "volume_n_g_zero": {"volume": {"n_g": 0}},
    "volume_c_d_nan": {"volume": {"c_d": float("nan")}},
    "volume_c_a_negative": {"volume": {"c_a": -0.05}},
    "saliency_l_d_nan": {"saliency": {"l_d": float("nan")}},
    "saliency_r_infinite": {"saliency": {"r": float("inf")}},
    "t_p_factor_negative": {"coverage": {"t_p_factor": -0.3}},
}


@pytest.mark.parametrize(
    "command, spec",
    [pytest.param("map", spec, id=name) for name, spec in _BAD_CONFIGS.items()]
    + [pytest.param("validate", spec, id=f"validate-{name}")
       for name, spec in _BAD_CONFIGS.items()],
)
def test_map_rejects_malformed_config(tmp_path, dome_dir, dome_map, capsys, command, spec):
    """map and validate read --config alike: exit 1, nothing on stdout, one error line."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec))
    cloud = str(dome_dir / "dome_000.opc")
    if command == "map":
        argv = ["map", cloud, "--config", str(cfg), "--out", str(tmp_path / "map.json")]
    else:
        argv = ["validate", "--map", str(dome_map), "--cloud", cloud, "--config", str(cfg)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad config: ")
    assert len(out.err.splitlines()) == 1
    assert not (tmp_path / "map.json").exists()


@pytest.mark.parametrize(
    "flags",
    [["--gamma", "1.5"], ["--n-f", "5"], ["--radius", "nan"], ["--cloud", "missing.opc"]],
    ids=["gamma_above_one", "n_f_below_fit_minimum", "radius_nan", "missing_cloud"],
)
def test_fit_rejects_bad_flags(dome_dir, capsys, flags):
    """A flag fit's MapConfig, neighborhood or cloud reader rejects: exit 1, one error line."""
    argv = ["fit", "--cloud", str(dome_dir / "dome_000.opc"), "--pixel", "320", "240"]
    capsys.readouterr()
    assert cli.main(argv + flags) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize("case", ["out_in_missing_dir", "stats_in_missing_dir_out_exists",
                                  "stats_in_missing_dir_out_new"])
def test_map_checks_output_paths_before_the_first_frame(tmp_path, dome_dir, capsys,
                                                       monkeypatch, case):
    """An unwritable --out or --stats is bad input before any frame is read;
    the check leaves an existing output's bytes and no new file behind."""
    calls = []
    monkeypatch.setattr(cli, "read_cloud", lambda path: calls.append(path))
    missing, old, new = tmp_path / "missing" / "x", tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("old")
    out, stats = {"out_in_missing_dir": (missing, new),
                  "stats_in_missing_dir_out_exists": (old, missing),
                  "stats_in_missing_dir_out_new": (new, missing)}[case]
    capsys.readouterr()
    assert cli.main(["map", str(dome_dir / "dome_000.opc"), "--out", str(out),
                     "--stats", str(stats)]) == 1
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: ") and len(got.err.splitlines()) == 1
    assert str(missing) in got.err and calls == []
    assert list(tmp_path.iterdir()) == [old] and old.read_text() == "old"


@pytest.mark.parametrize("case", ["simulate", "map_out", "map_stats", "track_out"])
def test_unwritable_output_is_bad_input(tmp_path, dome_dir, capsys, case):
    """An output path in a missing directory: exit 1, one error line, empty stdout."""
    missing = tmp_path / "missing"
    dome = dome_dir / "dome_000.opc"
    map_argv = ["map", str(dome), "--gravity", str(dome_dir / "g.json"),
                "--config", str(dome_dir / "cfg.json")]
    argv = {
        "simulate": ["simulate", "--scene", str(_small_scene(tmp_path, None)),
                     "--out", str(missing / "x")],
        "map_out": map_argv + ["--out", str(missing / "map.json")],
        "map_stats": map_argv + ["--out", str(tmp_path / "map.json"),
                                 "--stats", str(missing / "stats.csv")],
        "track_out": ["track", "--trajectory", str(_write_traj(tmp_path)), "--policy", "fv",
                      "--out", str(missing / "log.jsonl")],
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert len(out.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Patch map records
# ---------------------------------------------------------------------------

# an r_xy that the rxy_from_r read of a 3-vector r perturbs in its last bit
_RXY_PERTURBED = np.array([0.8217701239287258, -1.3812797174167781])
_PAIRS = [(s, b) for s in SurfaceType for b in boundaries(s)]


@pytest.mark.parametrize("s, b", _PAIRS, ids=[f"{s.value}-{b.value}" for s, b in _PAIRS])
def test_patch_map_reads_back_exactly(tmp_path, s, b):
    """write_patch_map then read_patch_map gives the patch and its record back bit for bit."""
    assert not np.array_equal(rxy_from_r(rxy_to_r(_RXY_PERTURBED)), _RXY_PERTURBED)
    rng = np.random.default_rng(3)
    t = np.array([0.1, -0.2, 0.9]) + rng.normal(0.0, 0.01, 3)
    if is_revolute(s, b):
        pose = Pose5(_RXY_PERTURBED, t)
    else:
        pose = Pose6(rng.uniform(-2.0, 2.0, 3), t)
    nk = k3_map(s).shape[1]
    nd = {B.ELLIPSE: 2, B.CIRCLE: 1, B.AARECT: 2, B.CQUAD: 5}[b]
    k, d = rng.normal(0.0, 3.0, nk), rng.uniform(0.05, 0.3, nd)
    p = nk + nd + (2 if isinstance(pose, Pose5) else 3) + 3
    a = rng.normal(size=(p, p))
    patch = Patch(s, b, k, d, pose, a @ a.T * 1e-4 / 3.0)
    state = init_volume()
    validation = ValidationRecord(0.001, 3, True, False, True)
    state.patches.append(MapPatch(id=7, patch=patch, cell=(0, 0), seed_pixel=(1, 2),
                                  seed_point=t, frame_index=4, validation=validation))
    path = tmp_path / "map.json"
    cli.write_patch_map(str(path), state)
    cam, (mp,) = cli.read_patch_map(str(path))
    assert cam.r.tobytes() == state.c_t.r.tobytes() and cam.t.tobytes() == state.c_t.t.tobytes()
    assert (mp.id, mp.seed_pixel, mp.frame_index, mp.validation) == (7, (1, 2), 4, validation)
    back = mp.patch
    assert (back.s, back.b, type(back.pose)) == (s, b, type(pose))
    assert back.k.tobytes() == patch.k.tobytes() and back.d.tobytes() == patch.d.tobytes()
    r_in = pose.rxy if isinstance(pose, Pose5) else pose.r
    r_out = back.pose.rxy if isinstance(back.pose, Pose5) else back.pose.r
    assert r_out.tobytes() == r_in.tobytes()
    assert back.pose.t.tobytes() == t.tobytes()
    assert back.sigma.tobytes() == patch.sigma.tobytes()


def _map_reader_argv(command, pmap, tmp_path, dome_dir):
    """argv of validate or track --map reading the patch map pmap."""
    if command == "validate":
        return ["validate", "--map", str(pmap), "--cloud", str(dome_dir / "dome_000.opc")]
    return ["track", "--trajectory", str(_write_traj(tmp_path, n=2)), "--policy", "fv",
            "--map", str(pmap)]


@pytest.mark.parametrize("command", ["validate", "track"])
def test_revolute_record_with_nonzero_rz_is_bad_patch_map(tmp_path, dome_dir, dome_map,
                                                          capsys, command):
    """A sphere record holds r = [rx, ry, 0]; any other r[2] is a bad patch map."""
    doc = json.loads(dome_map.read_text())
    rec = doc["patches"][0]
    doc["patches"] = [dict(rec, surface="sphere", boundary="circle", k=[-1.0], d=[0.1],
                           r=[3.1, 0.0, 1e-3], sigma=None)]
    pmap = tmp_path / "map.json"
    pmap.write_text(json.dumps(doc))
    argv = _map_reader_argv(command, pmap, tmp_path, dome_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad patch map: ")
    doc["patches"][0]["r"][2] = 0.0  # the same record as patch_rotvec writes it
    pmap.write_text(json.dumps(doc))
    assert cli.main(argv) in (0, 2)


@pytest.mark.parametrize("command", ["validate", "track"])
@pytest.mark.parametrize("doc", [[], 3, "patches", None], ids=["list", "number", "string", "null"])
def test_patch_map_that_is_not_an_object_is_bad_patch_map(tmp_path, dome_dir, capsys, command,
                                                           doc):
    pmap = tmp_path / "map.json"
    pmap.write_text(json.dumps(doc))
    argv = _map_reader_argv(command, pmap, tmp_path, dome_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: bad patch map: the top level is not a JSON object\n"


@pytest.mark.parametrize("command", ["validate", "track"])
@pytest.mark.parametrize(
    "edit, where",
    [pytest.param(lambda doc: doc.pop("patches"), "", id="no_patches"),
     pytest.param(lambda doc: doc["patches"].append([]), "", id="record_not_object"),
     pytest.param(lambda doc: doc["patches"][0].pop("id"), "patches[0]", id="record_without_id"),
     pytest.param(lambda doc: doc["patches"][0].pop("seed_pixel"), "patches[0]",
                  id="record_without_seed_pixel"),
     pytest.param(lambda doc: doc["patches"][0].update(id="7"), "", id="id_string"),
     pytest.param(lambda doc: doc["patches"][0].update(id=7.5), "", id="id_fractional"),
     pytest.param(lambda doc: doc["patches"][0].update(seed_pixel=[240.5, 320]), "",
                  id="seed_pixel_fractional"),
     pytest.param(lambda doc: doc["camera_in_volume"].update(t=["0", "0", "0"]),
                  "camera_in_volume.t[0]", id="camera_t_strings"),
     pytest.param(lambda doc: doc["patches"][0].update(t=[str(x) for x in doc["patches"][0]["t"]]),
                  "patches[0].t[0]", id="t_strings"),
     pytest.param(lambda doc: doc["patches"][0]["k"].__setitem__(0, True), "patches[0].k[0]",
                  id="k_bool"),
     pytest.param(lambda doc: doc["patches"][0]["sigma"][0].__setitem__(0, "0.001"),
                  "patches[0].sigma[0][0]", id="sigma_string"),
     # exp_map squares a rotation vector, so a finite 1e308 overflows it
     pytest.param(lambda doc: doc["patches"][0]["r"].__setitem__(0, 1e308),
                  "patches[0].r is too long for a rotation vector", id="r_past_rotation_range"),
     pytest.param(lambda doc: doc["camera_in_volume"]["r"].__setitem__(0, 1e308),
                  "camera_in_volume.r is too long for a rotation vector",
                  id="camera_r_past_rotation_range"),
     pytest.param(lambda doc: doc["patches"][0]["validation"].update(residual=10**400),
                  "patches[0].validation.residual must be finite",
                  id="residual_past_float_range"),
     pytest.param(lambda doc: doc["patches"][0]["d"].__setitem__(0, 0.0),
                  "patches[0]: ellipse extents must be finite and positive", id="d_zero"),
     pytest.param(lambda doc: doc["patches"][0]["d"].__setitem__(0, -0.1),
                  "patches[0]: ellipse extents must be finite and positive", id="d_negative")],
)
def test_malformed_patch_map_is_bad_patch_map(tmp_path, dome_dir, dome_map, capsys, command,
                                              edit, where):
    """validate and track --map read a map through one reader: exit 1, one
    error line, which names the record where one is at fault."""
    doc = json.loads(dome_map.read_text())
    edit(doc)
    pmap = tmp_path / "map.json"
    pmap.write_text(json.dumps(doc))
    argv = _map_reader_argv(command, pmap, tmp_path, dome_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: bad patch map: ")
    assert where in out.err


# ---------------------------------------------------------------------------
# One reader for every JSON input
# ---------------------------------------------------------------------------


def test_nan_x_with_finite_z_reads_as_no_return(tmp_path, capsys):
    """A point row with a non-finite x and a finite z is a pixel with no
    return: map admits what it admits when that row is all NaN."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(_dome_spec({"model": "stereo"})))
    assert cli.main(["simulate", "--scene", str(scene), "--seed", "3",
                     "--out", str(tmp_path / "dome")]) == 0
    cfg, grav = tmp_path / "cfg.json", tmp_path / "g.json"
    cfg.write_text(json.dumps(MAP_CFG))
    grav.write_text(json.dumps({"g": [0.0, 0.0, 1.0]}))
    data = (tmp_path / "dome_000.opc").read_bytes()
    head = len(b"\n".join(data.split(b"\n", 4)[:4])) + 1
    at = head + (5 * 640 + 5) * 24  # the point row of pixel (5, 5)
    maps = []
    for name, row in (("no_return", [np.nan] * 3), ("nan_x", [np.nan, 0.1, 1.0])):
        frame = tmp_path / f"{name}.opc"
        frame.write_bytes(data[:at] + np.array(row, "<f8").tobytes() + data[at + 24:])
        cloud, _ = cli.read_cloud(str(frame))
        assert np.isnan(cloud.points[5, 5]).all() and np.isnan(cloud.cov[5, 5]).all()
        out = tmp_path / f"{name}.map.json"
        assert cli.main(["map", str(frame), "--config", str(cfg), "--gravity", str(grav),
                         "--out", str(out)]) == 0
        maps.append(json.loads(out.read_text())["patches"])
    assert maps[0] and maps[0] == maps[1]


@pytest.mark.parametrize("command", ["map", "validate"])
@pytest.mark.parametrize(
    "spec, message",
    [({"volume": {"v_g": 10**400}}, "volume.v_g must be finite"),
     ({"volume": {"v_g": 1025}}, "volume: v_g must lie in [1, 1024]"),
     ({"decimate": 10**22}, "decimate must lie in [0, 15]"),
     ({"budgets": {"n_s": 10**400}}, "budgets.n_s must be finite")],
    ids=["v_g_past_float_range", "v_g_past_grid_bound", "decimate_past_bound",
         "budget_past_float_range"],
)
def test_config_integer_past_its_range_is_bad_config(tmp_path, dome_dir, dome_map, capsys,
                                                     command, spec, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    cloud = str(dome_dir / "dome_000.opc")
    if command == "map":
        argv = ["map", cloud, "--config", str(cfg), "--out", str(tmp_path / "map.json")]
    else:
        argv = ["validate", "--map", str(dome_map), "--cloud", cloud, "--config", str(cfg)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: bad config: {message}")
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "fit", "map", "map_config"])
def test_negative_seed_is_bad_input(tmp_path, dome_dir, capsys, command):
    """numpy takes no negative seed: a negative --seed or config seed is bad input."""
    cloud = str(dome_dir / "dome_000.opc")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    argv = {
        "simulate": ["simulate", "--scene", str(_small_scene(tmp_path, None)), "--seed", "-1",
                     "--out", str(tmp_path / "x")],
        "fit": ["fit", "--cloud", cloud, "--pixel", "320", "240", "--seed", "-1"],
        "map": ["map", cloud, "--seed", "-1", "--out", str(tmp_path / "m.json")],
        "map_config": ["map", cloud, "--config", str(cfg), "--out", str(tmp_path / "m.json")],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert re.match(r"error: (bad config: seed|--seed) must be non-negative", out.err)


def test_truth_surfaces_are_a_scene(tmp_path):
    """The surfaces simulate writes to _truth.json render the frames their
    scene rendered, byte for byte."""
    spec = dict(_dome_spec({"model": "stereo"}), intrinsics=SMALL_INTR)
    spec["surfaces"].append({"type": "plane", "normal": [0.0, -1.0, 0.0], "offset": -0.3})
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(spec))
    assert cli.main(["simulate", "--scene", str(scene), "--seed", "4",
                     "--out", str(tmp_path / "a")]) == 0
    truth = json.loads((tmp_path / "a_truth.json").read_text())
    scene.write_text(json.dumps(dict(spec, surfaces=truth["surfaces"])))
    assert cli.main(["simulate", "--scene", str(scene), "--seed", "4",
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a_000.opc").read_bytes() == (tmp_path / "b_000.opc").read_bytes()


@pytest.mark.parametrize("rz, rc", [(0.0, 0), (1e-3, 1)], ids=["rz_zero", "rz_nonzero"])
def test_revolute_scene_patch_takes_r_xy0(tmp_path, capsys, rz, rc):
    """A sphere/circle scene patch reads r = [rx, ry, 0] as its 5-DoF pose,
    as a patch-map record does; another r[2] is a bad scene spec."""
    r = rxy_to_r(rxy_for_zdir(np.array([0.0, 0.0, -1.0])))
    sphere = {"surface": "sphere", "boundary": "circle", "k": [-2.0], "d": [0.3],
              "r": [r[0], r[1], rz], "t": [0.0, 0.0, 1.0]}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"intrinsics": SMALL_INTR, "surfaces": [sphere]}))
    capsys.readouterr()
    assert cli.main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "s")]) == rc
    if rc:
        assert capsys.readouterr().err.startswith(
            "error: bad scene spec: surfaces[0]: a sphere/circle patch needs r = [rx, ry, 0]")
    else:
        cloud, _ = cli.read_cloud(str(tmp_path / "s_000.opc"))
        assert cloud.valid_mask[60, 80]
        (s,) = json.loads((tmp_path / "s_truth.json").read_text())["surfaces"]
        assert s["r"] == [r[0], r[1], 0.0]


def _unknown_key_docs(dome_map):
    """(input kind, document with an unknown key "nosie", the key path that names it)."""
    record = json.loads(dome_map.read_text())
    record["patches"][0]["validation"]["gates"]["nosie"] = 1
    return [
        ("scene", dict(_dome_spec(), nosie={"model": "stereo"}), "unknown keys ['nosie']"),
        ("scene", _dome_spec({"model": "stereo", "nosie": 1}), "['nosie'] in noise"),
        ("scene", dict(_dome_spec(), intrinsics=dict(SMALL_INTR, nosie=1)),
         "['nosie'] in intrinsics"),
        ("scene", dict(_dome_spec(), camera={"t": [0.0, 0.0, 0.0], "nosie": 1}),
         "['nosie'] in camera"),
        ("scene", {"surfaces": [dict(_dome_spec()["surfaces"][0], nosie=1)]},
         "['nosie'] in surfaces[0]"),
        ("trajectory", [{"t": [0.0, 0.0, 0.0], "rot": [0.0, 0.0, 1.0]}], "['rot'] in [0]"),
        ("gravity", {"g": [0.0, 0.0, 1.0], "nosie": 1}, "unknown keys ['nosie']"),
        ("config", {"saliency": {"r": 0.1, "nosie": 1}}, "['nosie'] in saliency"),
        ("config", {"volume": {"nosie": 1}}, "['nosie'] in volume"),
        ("patch map", dict(json.loads(dome_map.read_text()), nosie=1), "unknown keys ['nosie']"),
        ("patch map", record, "['nosie'] in patches[0].validation.gates"),
    ]


def test_every_input_rejects_an_unknown_key(tmp_path, dome_dir, dome_map, capsys):
    """Each JSON input kind is bad input when any of its objects holds a key
    its schema lacks, and the message names the key and where it is."""
    doc_path = tmp_path / "doc.json"
    cloud, traj = str(dome_dir / "dome_000.opc"), str(_write_traj(tmp_path, n=2))
    argv = {
        "scene": ["simulate", "--scene", str(doc_path), "--out", str(tmp_path / "x")],
        "trajectory": ["track", "--trajectory", str(doc_path), "--policy", "fv"],
        "gravity": ["map", cloud, "--gravity", str(doc_path), "--out", str(tmp_path / "m")],
        "config": ["map", cloud, "--config", str(doc_path), "--out", str(tmp_path / "m")],
        "patch map": ["track", "--trajectory", traj, "--policy", "fv", "--map", str(doc_path)],
    }
    for kind, doc, where in _unknown_key_docs(dome_map):
        doc_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(argv[kind]) == 1, (kind, where)
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: bad {kind}")
        assert where in out.err and len(out.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# The bad-input contract, property-tested
# ---------------------------------------------------------------------------

# values that stand in for a valid leaf: each type JSON has, zero and a
# negative count, and numbers at and past the edge of the float range
_BAD_VALUES = ["0", "", True, False, None, [], {}, [0.0], -1, 0, 0.5, 1e308,
               float("nan"), float("inf"), 10**400, 2**63]


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document's own () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(v, path + (k,))


def _one_edit(doc):
    """Strategy of a JSON document with one edit: a value replaced by a bad
    one, a key or list item dropped, or an unknown key added to an object."""
    paths = list(_paths(doc))
    inner = [p for p in paths if p]
    objects = [p for p in paths if isinstance(_at(doc, p), dict)]
    return st.one_of(
        st.tuples(st.just("replace"), st.sampled_from(inner), st.sampled_from(_BAD_VALUES)),
        st.tuples(st.just("drop"), st.sampled_from(inner), st.none()),
        st.tuples(st.just("add"), st.sampled_from(objects), st.sampled_from(_BAD_VALUES)),
    ).map(lambda edit: _edited(doc, *edit))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _edited(doc, edit, path, bad):
    doc = copy.deepcopy(doc)
    if edit == "add":
        _at(doc, path)["nosie"] = bad
    elif edit == "drop":
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = bad
    return doc


def _assert_contract(argv):
    """cli.main(argv) exits 0 or 2, or 1 with an empty stdout and one
    stderr line starting "error: ". A warning is a stderr line of its own,
    as the console script prints it, not an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert rc in (0, 2) or (rc, out.getvalue(), len(lines)) == (1, "", 1) and \
        lines[0].startswith("error: "), (rc, out.getvalue(), lines)


_FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A small stereo dome frame, its config, gravity file, a trajectory and
    a two-record patch map (a 6-DoF and a 5-DoF patch) of valid inputs."""
    d = tmp_path_factory.mktemp("fuzz")
    spec = dict(_dome_spec({"model": "stereo"}), intrinsics=SMALL_INTR)
    (d / "scene.json").write_text(json.dumps(spec))
    assert cli.main(["simulate", "--scene", str(d / "scene.json"), "--seed", "3",
                     "--out", str(d / "dome")]) == 0
    state = init_volume()
    dome = Patch(SurfaceType.ELLIPTIC_PARABOLOID, B.ELLIPSE, [-1.4, -1.1], [0.1, 0.1],
                 Pose6([3.0, 0.1, 0.0], [2.0, 2.0, 0.6]), 1e-4 * np.eye(10))
    sphere = Patch(SurfaceType.SPHERE, B.CIRCLE, [-2.0], [0.1],
                   Pose5([3.0, 0.1], [2.1, 2.0, 0.6]), 1e-4 * np.eye(7))
    for i, patch in enumerate((dome, sphere)):
        state.patches.append(MapPatch(id=i, patch=patch, cell=(0, 0), seed_pixel=(60, 80 + i),
                                      seed_point=patch.pose.t, frame_index=1,
                                      validation=ValidationRecord(0.001, 0, True, True, True)))
    cli.write_patch_map(str(d / "map.json"), state)
    return d


@_FUZZ
@given(doc=_one_edit({
    "intrinsics": SMALL_INTR,
    "noise": {"model": "stereo", "sigma_p": 0.35},
    "camera": {"r": [0.0, 0.1, 0.0], "t": [0.0, 0.0, -0.1]},
    "surfaces": [_dome_spec()["surfaces"][0],
                 {"type": "plane", "normal": [0.0, -1.0, 0.0], "offset": -0.3}],
}))
def test_scene_spec_edits_keep_the_contract(fuzz_dir, doc):
    (fuzz_dir / "edited.json").write_text(json.dumps(doc))
    _assert_contract(["simulate", "--scene", str(fuzz_dir / "edited.json"),
                      "--out", str(fuzz_dir / "sim")])


@_FUZZ
@given(doc=_one_edit({
    "saliency": {"r": 0.12, "l_d": 1.0, "l_f": 0.0, "R": 0.35, "phi_g": 60.0},
    "neighborhood": {"variant": "triangle_mesh", "t_jump": 0.02},
    "coverage": {"w_c": 0.01, "zeta_i": 0.8},
    "n_f": 200, "surface": "paraboloid", "gamma": 0.95, "d_max": 0.02,
    "check_coverage": True, "decimate": 2, "seed": 11,
    "budgets": {"n_s": 10, "work_units": 20, "wall_clock_s": 60.0, "area_target": 5.0},
    "volume": {"v_s": 4.0, "policy": "fd", "c_d": 0.3, "c_a": 0.05, "v_g": 8, "n_g": 2},
}))
def test_map_config_edits_keep_the_contract(fuzz_dir, doc):
    (fuzz_dir / "edited.json").write_text(json.dumps(doc))
    _assert_contract(["map", str(fuzz_dir / "dome_000.opc"), "--config",
                      str(fuzz_dir / "edited.json"), "--out", str(fuzz_dir / "out.json")])


@_FUZZ
@given(doc=_one_edit({"g_per_frame": [[0.0, 0.0, 1.0], [0.0, 0.1, 1.0]]}) |
       _one_edit({"g": [0.0, 0.0, 1.0]}))
def test_gravity_edits_keep_the_contract(fuzz_dir, doc):
    (fuzz_dir / "edited.json").write_text(json.dumps(doc))
    _assert_contract(["map", str(fuzz_dir / "dome_000.opc"), "--gravity",
                      str(fuzz_dir / "edited.json"), "--out", str(fuzz_dir / "out.json")])


@pytest.mark.parametrize("command", ["simulate", "track"])
@_FUZZ
@given(doc=_one_edit([{"t": [0.0, 0.0, 0.0]}, {"r": [0.0, 0.1, 0.0], "t": [0.2, 0.0, 0.2]},
                      {"r": [0.0, 0.2, 0.0], "t": [0.4, 0.0, 0.4]}]))
def test_trajectory_edits_keep_the_contract(fuzz_dir, command, doc):
    (fuzz_dir / "edited.json").write_text(json.dumps(doc))
    traj = ["--trajectory", str(fuzz_dir / "edited.json")]
    if command == "simulate":
        _assert_contract(["simulate", "--scene", str(fuzz_dir / "scene.json"), *traj,
                          "--out", str(fuzz_dir / "sim")])
    else:
        _assert_contract(["track", *traj, "--policy", "fd", "--c-d", "0.15"])


@pytest.mark.parametrize("command", ["validate", "track"])
@_FUZZ
@given(edit=st.data())
def test_patch_map_edits_keep_the_contract(fuzz_dir, command, edit):
    doc = edit.draw(_one_edit(json.loads((fuzz_dir / "map.json").read_text())))
    (fuzz_dir / "edited.json").write_text(json.dumps(doc))
    pmap = ["--map", str(fuzz_dir / "edited.json")]
    if command == "validate":
        _assert_contract(["validate", *pmap, "--cloud", str(fuzz_dir / "dome_000.opc")])
    else:
        traj = fuzz_dir / "traj.json"
        traj.write_text(json.dumps([{"t": [0.0, 0.0, 0.2 * i]} for i in range(3)]))
        _assert_contract(["track", "--trajectory", str(traj), "--policy", "fd", "--c-d", "0.15",
                          *pmap])


@_FUZZ
@given(edit=st.data())
def test_opc2_header_edits_keep_the_contract(fuzz_dir, edit):
    """One token of the header replaced by a bad one, dropped or added."""
    data = (fuzz_dir / "dome_000.opc").read_bytes()
    lines = data.split(b"\n", 4)
    header = [ln.decode().split() for ln in lines[:4]]
    i = edit.draw(st.integers(0, 3))
    j = edit.draw(st.integers(0, len(header[i])))
    bad = edit.draw(st.sampled_from(["x", "", "-1", "0", "2", "0.5", "nan", "inf", "1e308",
                                     str(2**63), "stereo", "none"]))
    how = edit.draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "add" or j == len(header[i]):
        header[i].insert(j, bad)
    elif how == "drop":
        del header[i][j]
    else:
        header[i][j] = bad
    lines[:4] = [" ".join(tokens).encode() for tokens in header]
    (fuzz_dir / "edited.opc").write_bytes(b"\n".join(lines))
    _assert_contract(["map", str(fuzz_dir / "edited.opc"), "--out", str(fuzz_dir / "out.json")])
