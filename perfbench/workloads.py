"""The benchmark's workloads on the rocky-ramp scene, and their output checks.

All three render the scene of the mapping tests: a curved ramp with five
rock caps seen by a Kinect-like 640x480 camera pitched down by pi/4, with
stereo noise. Set-up renders every input frame from the workload seed; an
op is one unit of work on those inputs:

- ramp_walk: one frame of an 8-frame walk (0.08 m per frame along world +z,
  volume under the fd policy): volume_update, remap_patches when it fires,
  then map_step at the paper-default n_f=50. The per-frame fixed cost
  (normals, saliency) with a growing map; the exact residual runs on 50
  points per seed, so it barely shows.
- rock_fits: map_step with n_f=6000 on a fresh volume, on one of four
  noisy frames at the fixed pose. The per-seed fit and exact residual over
  ~1.8k points per seed dominate next to normals.
- opc_files: `patchscape map` of an OPC1 frame file written during set-up,
  in-process through cli.main. Cloud file parsing dominates; it is absent
  elsewhere. `patchscape validate` of that map against the frame checks
  the op, untimed.

Calls into patchscape go through module attributes (mapping.map_step,
sensor.sample_scene, cli.main) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from patchscape import cli, mapping, sensor
from patchscape.patch import BoundaryType, Patch, SurfaceType, patch_frame
from patchscape.pose import Pose5, Pose6, exp_map, rxy_for_zdir, rxy_from_r, rxy_to_r
from patchscape.validate import principal_curvatures

RAMP_R = np.array([3 * np.pi / 4, 0.0, 0.0])
RAMP_T = np.array([0.0, 0.44, 1.22])
RAMP_K = (-1.0, -0.8)
ROCK_AB = [(-0.55, -0.35), (0.3, -0.45), (-0.25, 0.4), (0.55, 0.35), (0.0, -0.05)]
CAM_POSE = Pose6(np.array([-np.pi / 4, 0.0, 0.0]), np.zeros(3))
WORLD_DOWN = np.array([0.0, 1.0, 0.0])
WORLD_FORWARD = np.array([0.0, 0.0, 1.0])
G_CAM = exp_map(CAM_POSE.r).T @ WORLD_DOWN
ROCKY_SALIENCY = mapping.SaliencyConfig(r=0.15, l_d=0.83, l_f=0.83, phi_g=60.0)

WALK_STEP_M = 0.08
WALK_FRAMES = 8
ROCK_FRAMES = 4


def _paraboloid(t, r, kx, ky, dx, dy) -> Patch:
    s = SurfaceType.ELLIPTIC_PARABOLOID if kx * ky > 0 else SurfaceType.HYPERBOLIC_PARABOLOID
    return Patch(s, BoundaryType.ELLIPSE, np.array([kx, ky]), np.array([dx, dy]),
                 Pose6(r, np.asarray(t, float)), None)


def rocky_scene() -> List[Patch]:
    """Curved ramp with five rock caps lifted through it, leaning toward the camera.

    The same scene as the mapping tests; its geometry is fixed, only the
    noise draws come from the workload seed.
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


SCENE = rocky_scene()


def walk_pose(j: int) -> Pose6:
    return Pose6(CAM_POSE.r, np.array([0.0, 0.0, WALK_STEP_M * j]))


def render(pose: Pose6, *stream: int):
    """One noisy frame; the noise draw is fixed by the stream ids."""
    return sensor.sample_scene(SCENE, sensor.KINECT_640, camera_pose=pose,
                               noise=sensor.StereoNoise(), rng=np.random.default_rng(stream))


# ---------------------------------------------------------------------------
# Output checks and quality
# ---------------------------------------------------------------------------


@dataclass
class OpOutput:
    seeds: int
    admitted: int
    errors: List[str]  # failed output checks; any makes the op a failure
    digest: tuple  # admitted (id, cell, k, t), compared traced vs untraced
    k_errs: List[float]


def curvature_errors(patches, R_vw: np.ndarray, t_vw: np.ndarray) -> List[float]:
    """|k - k_true| of each principal curvature against the nearest scene surface.

    Patches are in the volume frame; (R_vw, t_vw) carries the volume to
    the world. The nearest surface is the one whose boundary holds the
    patch origin with the smallest gap along its normal; curvatures flip
    sign when the patch normal points against the surface normal.
    """
    errs: List[float] = []
    for p in patches:
        R_p, t_p = patch_frame(p)
        R, t = R_vw @ R_p, R_vw @ t_p + t_vw
        best = None
        for surf in SCENE:
            R_s, t_s = patch_frame(surf)
            q = R_s.T @ (t - t_s)
            if (q[0] / surf.d[0]) ** 2 + (q[1] / surf.d[1]) ** 2 > 1.0:
                continue
            gap = abs(q[2] - 0.5 * (surf.k[0] * q[0] ** 2 + surf.k[1] * q[1] ** 2))
            if best is None or gap < best[0]:
                best = (gap, R_s[:, 2], surf.k)
        if best is None:
            continue
        sign = 1.0 if R[:, 2] @ best[1] >= 0.0 else -1.0
        k = np.sort(sign * principal_curvatures(p))
        errs.extend(np.abs(k - np.sort(best[2])).tolist())
    return errs


def check_patches(records, n_seeds: int, n_dropped: int, d_max: float) -> List[str]:
    """Gate and accounting checks shared by every workload.

    records are (id, passed, residual) of the admitted patches. No
    workload sets a budget, so every seed is admitted or dropped.
    """
    errors = []
    for pid, passed, res in records:
        if not passed:
            errors.append(f"patch {pid} admitted without passing its gates")
        if not res <= d_max:
            errors.append(f"patch {pid} admitted with residual {res} > d_max {d_max}")
    if n_seeds != len(records) + n_dropped:
        errors.append(f"{n_seeds} seeds != {len(records)} admitted + {n_dropped} dropped")
    return errors


def _step_output(res: mapping.MapStepResult, volume: mapping.VolumeState, d_max) -> OpOutput:
    adm = res.admitted
    errors = check_patches(
        [(mp.id, mp.validation.passed, mp.validation.residual) for mp in adm],
        res.n_seeds, sum(res.drops.values()), d_max,
    )
    digest = tuple(
        (mp.id, mp.cell, tuple(np.asarray(mp.patch.k)), tuple(mp.patch.pose.t)) for mp in adm
    )
    pw = volume.pose_world
    k_errs = curvature_errors([mp.patch for mp in adm], exp_map(pw.r), np.asarray(pw.t))
    return OpOutput(res.n_seeds, len(adm), errors, digest, k_errs)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs made in setup(); op(state, i) is the timed unit of work and
    inspect(raw) checks its outputs outside the timed region."""

    name = ""
    config = mapping.MapConfig()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def new_state(self) -> Dict:
        return {}

    def op(self, state: Dict, i: int):
        raise NotImplementedError

    def inspect(self, raw) -> OpOutput:
        res, volume = raw
        return _step_output(res, volume, self.config.d_max)


class RampWalk(Workload):
    name = "ramp_walk"
    config = mapping.MapConfig(saliency=ROCKY_SALIENCY)

    def setup(self):
        self.poses = [walk_pose(j) for j in range(WALK_FRAMES)]
        self.frames = [render(p, self.seed, 0, j) for j, p in enumerate(self.poses)]

    def op(self, state, i):
        # the walk restarts on a fresh volume every WALK_FRAMES ops
        j = i % WALK_FRAMES
        if j == 0:
            state["volume"] = mapping.init_volume(
                camera_world=self.poses[0], policy=mapping.MovePolicy.FD
            )
        vol, T = mapping.volume_update(
            state["volume"], self.poses[j], g=WORLD_DOWN, forward=WORLD_FORWARD
        )
        if T is not None:
            vol = mapping.remap_patches(vol, T)
        state["volume"] = vol
        res = mapping.map_step(vol, self.frames[j], G_CAM, config=self.config,
                               rng_seed=(self.seed, 0, i))
        return res, vol


class RockFits(Workload):
    name = "rock_fits"
    config = mapping.MapConfig(saliency=ROCKY_SALIENCY, n_f=6000)

    def setup(self):
        self.frames = [render(CAM_POSE, self.seed, 1, k) for k in range(ROCK_FRAMES)]

    def op(self, state, i):
        vol = mapping.init_volume(camera_world=CAM_POSE)
        res = mapping.map_step(vol, self.frames[i % ROCK_FRAMES], G_CAM, config=self.config,
                               rng_seed=(self.seed, 1, i))
        return res, vol


class OpcFiles(Workload):
    name = "opc_files"
    config = mapping.MapConfig(saliency=ROCKY_SALIENCY, n_f=50, decimate=2)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self):
        cli.write_cloud(self._path("frame.opc"), render(walk_pose(0), self.seed, 2, 0),
                        sensor.StereoNoise())
        s = self.config.saliency
        spec = {"saliency": {"r": s.r, "l_d": s.l_d, "l_f": s.l_f, "phi_g": s.phi_g},
                "n_f": self.config.n_f, "decimate": self.config.decimate}
        with open(self._path("config.json"), "w") as f:
            json.dump(spec, f)
        with open(self._path("gravity.json"), "w") as f:
            json.dump({"g": G_CAM.tolist()}, f)

    def _cli(self, argv) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejects argv by exiting
                code = e.code
        return code, out.getvalue()

    def op(self, state, i):
        map_seed = int(np.random.SeedSequence([self.seed, 2, i]).generate_state(1)[0])
        return self._cli(["map", self._path("frame.opc"), "--config", self._path("config.json"),
                          "--gravity", self._path("gravity.json"), "--out", self._path("map.json"),
                          "--stats", self._path("stats.csv"), "--seed", str(map_seed)])

    def _check_validate(self, ids) -> List[str]:
        """`patchscape validate` of the op's map: exit 0 or 2, one line per patch.

        It runs outside the timed op, and only on maps that hold patches:
        it reads the whole cloud file again, which would halve the ops a
        run can time, and its cost grows with the patches the map admitted.
        """
        code, out = self._cli(["validate", "--map", self._path("map.json"),
                               "--cloud", self._path("frame.opc"),
                               "--config", self._path("config.json")])
        errors = [] if code in (0, 2) else [f"validate exited {code}"]
        lines = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
        if [ln.get("id") for ln in lines] != ids:
            errors.append(f"validate printed {len(lines)} lines for {len(ids)} patches")
        return errors

    def inspect(self, raw) -> OpOutput:
        map_code, _ = raw
        if map_code != 0:
            return OpOutput(0, 0, [f"map exited {map_code}"], (), [])
        with open(self._path("map.json")) as f:
            doc = json.load(f)
        with open(self._path("stats.csv"), newline="") as f:
            (row,) = list(csv.DictReader(f))
        recs = doc["patches"]
        seeds = int(row["seeds"])
        dropped = sum(int(v) for k, v in row.items() if k.startswith("drop_"))
        errors = check_patches(
            [(r["id"], all(r["validation"]["gates"].values()), r["validation"]["residual"])
             for r in recs],
            seeds, dropped, self.config.d_max,
        )
        if int(row["admitted"]) != len(recs):
            errors.append(f"stats report {row['admitted']} admitted, map holds {len(recs)}")
        if recs:
            errors += self._check_validate([r["id"] for r in recs])
        patches = [_patch_from_record(r) for r in recs]
        digest = tuple((r["id"], tuple(r["seed_pixel"]), tuple(r["k"]), tuple(r["t"]))
                       for r in recs)
        # the map's world is the camera frame of its first frame
        vw = doc["volume_world"]
        R_cam = exp_map(walk_pose(0).r)
        R_vw = R_cam @ exp_map(np.asarray(vw["r"], float))
        t_vw = R_cam @ np.asarray(vw["t"], float) + walk_pose(0).t
        return OpOutput(seeds, len(recs), errors, digest, curvature_errors(patches, R_vw, t_vw))


def _patch_from_record(rec: dict) -> Patch:
    """Patch of a patch-map record: 6-DoF pose, or 5-DoF for revolute types."""
    s, b = SurfaceType(rec["surface"]), BoundaryType(rec["boundary"])
    r, t = np.asarray(rec["r"], float), np.asarray(rec["t"], float)
    try:
        return Patch(s, b, rec["k"], rec["d"], Pose6(r, t))
    except ValueError:
        return Patch(s, b, rec["k"], rec["d"], Pose5(rxy_from_r(r), t))


WORKLOADS = {w.name: w for w in (RampWalk, RockFits, OpcFiles)}
