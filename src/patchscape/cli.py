"""Command line front end and the textual file formats behind it.

Five subcommands: simulate (render organized clouds of a synthetic
scene), fit (one patch at a pixel), map (the full per-frame pipeline
over a frame sequence), track (volume policy replay over a trajectory),
and validate (re-run the gates of a stored map against a cloud). fit
and validate run map_step's own seed code from patchscape.mapping
(neighborhood, fit_sample, gate_patch) under a MapConfig built from the
fit flags or the config file, whose omitted values keep MapConfig's
defaults.

All numbers are serialized with 17 significant digits so files are
byte-identical across runs and round-trip 64-bit floats exactly. Clouds
use the OPC1 text format; patch maps, scene specs, configs, and remap
logs are JSON. Diagnostics go to stderr; stdout stays machine readable.
Exit codes: 0 success, 1 bad input, 2 gate failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, fields, is_dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import mapping as _mapping
from .fit import fit_patch
from .mapping import (
    MapBudgets,
    MapConfig,
    MovePolicy,
    SaliencyConfig,
    ValidationRecord,
    fit_sample,
    gate_patch,
    init_volume,
    map_step,
    neighborhood,
    remap_patches,
    volume_update,
)
from .patch import BoundaryType, Patch, SurfaceType, transform_patch
from .pose import Pose5, Pose6, pose_inverse, rxy_from_r, rxy_to_r
from .sensor import (
    CameraIntrinsics,
    ConstantNoise,
    LinearNoise,
    OrganizedCloud,
    QuadraticNoise,
    ScenePlane,
    StereoNoise,
    intrinsics_preset,
    sample_scene,
)
# not called here; perfbench/layers.py still traces these names in this module
from .validate import coverage_eval, curvature_gate, residual  # noqa: F401


# ---------------------------------------------------------------------------
# Deterministic 17-significant-digit JSON
# ---------------------------------------------------------------------------


def _g17(x: float) -> str:
    if math.isnan(x):
        return "null"
    return "%.17g" % x


def json_dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits.

    The stdlib writer formats floats with repr, which is round-trip safe
    but not the pinned 17-digit form; this one keeps files byte-stable
    under any interpreter.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (np.ndarray, list, tuple)):
        items = [json_dumps(v, indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + json_dumps(v, indent + 2)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_line(obj) -> str:
    """Single-line variant for log records, one JSON document per line."""
    if isinstance(obj, dict):
        return "{" + ", ".join(
            json.dumps(str(k)) + ": " + json_line(v) for k, v in obj.items()
        ) + "}"
    if isinstance(obj, (np.ndarray, list, tuple)):
        return "[" + ", ".join(json_line(v) for v in obj) + "]"
    return json_dumps(obj)


# ---------------------------------------------------------------------------
# OPC1 organized cloud files
# ---------------------------------------------------------------------------

_UT = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


_NOISE = {cls.kind: cls for cls in (ConstantNoise, LinearNoise, QuadraticNoise, StereoNoise)}


def _noise(kind: str, params):
    """Noise model of a kind, None for "none".

    params gives the model's fields by name (a dict) or in field order (a
    sequence); fields it leaves out keep the model's defaults.
    """
    if kind == "none":
        return None
    if kind not in _NOISE:
        raise ValueError(f"unknown noise model: {kind}")
    cls = _NOISE[kind]
    if not isinstance(params, dict):
        params = dict(zip((f.name for f in fields(cls)), params))
    return cls(**{
        f.name: float(params[f.name])
        for f in fields(cls) if f.name in params or f.default is MISSING
    })


def _noise_tag(noise) -> str:
    if noise is None:
        return "none"
    return " ".join([noise.kind] + [_g17(getattr(noise, f.name)) for f in fields(noise)])


def write_cloud(path: str, cloud: OrganizedCloud, noise=None) -> None:
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
        cvs = cloud.cov.reshape(-1, 3, 3)
        for c, good in zip(cvs, ok):
            if good and np.isfinite(c).all():
                lines.append(" ".join(_g17(c[i, j]) for i, j in _UT))
            else:
                lines.append("nan")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_cloud(path: str) -> Tuple[OrganizedCloud, object]:
    with open(path) as f:
        lines = [ln.strip() for ln in f]
    if not lines or not lines[0].startswith("OPC1 "):
        raise ValueError(f"{path}: not an OPC1 cloud file")
    _, w, h = lines[0].split()
    w, h = int(w), int(h)
    vals = lines[1].split()
    if vals[0] != "intrinsics":
        raise ValueError(f"{path}: missing intrinsics line")
    intr = CameraIntrinsics(
        fx=float(vals[1]), fy=float(vals[2]), cx=float(vals[3]), cy=float(vals[4]),
        width=w, height=h, baseline=float(vals[5]),
    )
    tag = lines[2].split()
    noise = _noise(tag[1], tag[2:])
    has_cov = bool(int(lines[3].split()[1]))
    n = w * h
    body = [ln for ln in lines[4:] if ln]
    expect = n * (2 if has_cov else 1)
    if len(body) != expect:
        raise ValueError(f"{path}: expected {expect} records, found {len(body)}")
    pts = np.full((n, 3), np.nan)
    for i, ln in enumerate(body[:n]):
        if ln != "nan":
            pts[i] = [float(t) for t in ln.split()]
    cov = None
    if has_cov:
        cov = np.full((n, 3, 3), np.nan)
        for i, ln in enumerate(body[n:]):
            if ln != "nan":
                u = [float(t) for t in ln.split()]
                for v, (a, b) in zip(u, _UT):
                    cov[i, a, b] = v
                    cov[i, b, a] = v
        cov = cov.reshape(h, w, 3, 3)
    return OrganizedCloud(points=pts.reshape(h, w, 3), cov=cov, intrinsics=intr), noise


# ---------------------------------------------------------------------------
# Patch map files
# ---------------------------------------------------------------------------


def _pose_vectors(patch: Patch) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(patch.pose, Pose5):
        return rxy_to_r(patch.pose.rxy), np.asarray(patch.pose.t, float)
    return np.asarray(patch.pose.r, float), np.asarray(patch.pose.t, float)


def patch_record(mp: _mapping.MapPatch) -> dict:
    r, t = _pose_vectors(mp.patch)
    return {
        "id": mp.id,
        "surface": mp.patch.s.value,
        "boundary": mp.patch.b.value,
        "k": mp.patch.k,
        "d": mp.patch.d,
        "r": r,
        "t": t,
        "sigma": None if mp.patch.sigma is None else mp.patch.sigma,
        "seed_pixel": list(mp.seed_pixel),
        "frame_index": mp.frame_index,
        "validation": _validation_fields(mp.validation),
    }


def _validation_fields(v: ValidationRecord) -> dict:
    return {
        "residual": v.residual,
        "bad_cells": v.bad_cells,
        "gates": {
            "curvature": bool(v.curvature_ok),
            "residual": bool(v.residual_ok),
            "coverage": bool(v.coverage_ok),
        },
    }


def _patch_from_record(rec: dict) -> Patch:
    s = SurfaceType(rec["surface"])
    b = BoundaryType(rec["boundary"])
    r = np.asarray(rec["r"], float)
    t = np.asarray(rec["t"], float)
    sigma = None if rec.get("sigma") is None else np.asarray(rec["sigma"], float)
    try:
        return Patch(s, b, rec["k"], rec["d"], Pose6(r, t), sigma)
    except ValueError:
        return Patch(s, b, rec["k"], rec["d"], Pose5(rxy_from_r(r), t), sigma)


def write_patch_map(path: str, state: _mapping.VolumeState) -> None:
    doc = {
        "format": "patch-map",
        "frame": "volume",
        "camera_in_volume": {"r": state.c_t.r, "t": state.c_t.t},
        "volume_world": {"r": state.pose_world.r, "t": state.pose_world.t},
        "v_s": state.v_s,
        "patches": [patch_record(mp) for mp in state.patches],
    }
    with open(path, "w") as f:
        f.write(json_dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# Scene specs
# ---------------------------------------------------------------------------


def _pose6(d: dict) -> Pose6:
    """Pose6 of a JSON {"r": [...], "t": [...]}; a missing r is no rotation."""
    return Pose6(np.asarray(d.get("r", [0.0, 0.0, 0.0]), float), np.asarray(d["t"], float))


def _pose_from_spec(d: dict):
    if "rxy" in d:
        return Pose5(np.asarray(d["rxy"], float), np.asarray(d["t"], float))
    return _pose6(d)


def load_scene_spec(path: str):
    """Parse a scene spec into (surfaces, intrinsics, camera, noise)."""
    with open(path) as f:
        spec = json.load(f)
    intr = spec.get("intrinsics", "kinect-640")
    if isinstance(intr, str):
        intr = intrinsics_preset(intr)
    else:
        intr = CameraIntrinsics(**intr)
    cam = _pose6(spec.get("camera") or {"t": [0.0, 0.0, 0.0]})
    noise = spec.get("noise")
    noise = None if noise is None else _noise(noise["model"], noise)
    surfaces = []
    for entry in spec["surfaces"]:
        kind = entry.get("type", "patch")
        if kind == "plane":
            surfaces.append(ScenePlane(np.asarray(entry["normal"], float), float(entry["offset"])))
        elif kind == "patch":
            surfaces.append(
                Patch(
                    SurfaceType(entry["surface"]),
                    BoundaryType(entry["boundary"]),
                    np.asarray(entry["k"], float),
                    np.asarray(entry["d"], float),
                    _pose_from_spec(entry["pose"]),
                    None,
                )
            )
        else:
            raise ValueError(f"unknown surface type: {kind}")
    return surfaces, intr, cam, noise


def _scene_truth(surfaces) -> List[dict]:
    out = []
    for s in surfaces:
        if isinstance(s, ScenePlane):
            out.append({"type": "plane", "normal": s.normal, "offset": s.offset})
        else:
            r, t = _pose_vectors(s)
            out.append(
                {
                    "type": "patch",
                    "surface": s.s.value,
                    "boundary": s.b.value,
                    "k": s.k,
                    "d": s.d,
                    "r": r,
                    "t": t,
                }
            )
    return out


# ---------------------------------------------------------------------------
# Map config files
# ---------------------------------------------------------------------------


def load_map_config(path: Optional[str]):
    """Config JSON -> (MapConfig, MapBudgets, initial VolumeState, seed or None).

    Only the keys the spec gives are set; the rest keep the MapConfig,
    MapBudgets and init_volume defaults. Each MapConfig value is cast to
    the type of its field's default, and nested configs are built from
    their objects. An unknown key or a bad value raises ValueError.
    """
    spec = {}
    if path is not None:
        with open(path) as f:
            spec = json.load(f)
    if not isinstance(spec, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name: f.default for f in fields(MapConfig)}
    unknown = set(spec) - set(known) - {"budgets", "volume", "seed"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    try:
        cfg = MapConfig(**{
            k: type(known[k])(**v) if is_dataclass(known[k]) else type(known[k])(v)
            for k, v in spec.items() if k in known
        })
        budgets = MapBudgets(**spec.get("budgets", {}))
        volume = init_volume(**spec.get("volume", {}))
    except TypeError as e:
        raise ValueError(str(e)) from e
    return cfg, budgets, volume, spec.get("seed")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _seed_or_env(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("PATCHSCAPE_SEED", "0"))


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def cmd_simulate(args) -> int:
    try:
        surfaces, intr, cam, noise = load_scene_spec(args.scene)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        return _fail(f"bad scene spec: {e}")
    if args.no_noise:
        noise = None
    seed = _seed_or_env(args.seed)

    poses = [cam] * args.frames
    if args.trajectory is not None:
        try:
            with open(args.trajectory) as f:
                traj = json.load(f)
            poses = [_pose6(p) for p in traj]
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            return _fail(f"bad trajectory: {e}")

    frame_paths = []
    for i, pose in enumerate(poses):
        cloud = sample_scene(
            surfaces, intr, camera_pose=pose, noise=noise, rng=np.random.default_rng((seed, i))
        )
        path = f"{args.out}_{i:03d}.opc"
        write_cloud(path, cloud, noise)
        frame_paths.append(path)

    truth = {
        "seed": seed,
        "noise": _noise_tag(noise),
        "frames": frame_paths,
        "camera_per_frame": [{"r": p.r, "t": p.t} for p in poses],
        "surfaces": _scene_truth(surfaces),
    }
    with open(f"{args.out}_truth.json", "w") as f:
        f.write(json_dumps(truth) + "\n")
    print("\n".join(frame_paths))
    return 0


def cmd_fit(args) -> int:
    try:
        cloud, _ = read_cloud(args.cloud)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    col, row = args.pixel
    try:
        cfg = MapConfig(
            saliency=SaliencyConfig(r=args.radius), n_f=args.n_f, surface=args.surface,
            gamma=args.gamma, d_max=args.d_max,
        )
        nb = neighborhood(cfg.neighborhood, cloud, np.array([row, col]), cfg.saliency.r)
    except ValueError as e:
        return _fail(str(e))
    if len(nb.points) < 13:
        return _fail(f"only {len(nb.points)} neighbors within {cfg.saliency.r} m")
    fit_pts, fit_cvs = fit_sample(nb, cfg.n_f, np.random.default_rng(_seed_or_env(args.seed)))
    try:
        fit = fit_patch(
            fit_pts,
            fit_cvs,
            surface=cfg.surface,
            plane_boundary=BoundaryType(args.boundary),
            gamma=cfg.gamma,
            viewpoint=np.zeros(3),
            side_wall=True,
        )
    except (ValueError, np.linalg.LinAlgError) as e:
        return _fail(f"fit failed: {e}")

    rec = _mapping.MapPatch(
        id=0,
        patch=fit.patch,
        cell=(0, 0),
        seed_pixel=(row, col),
        seed_point=cloud.points[row, col],
        frame_index=0,
        validation=gate_patch(fit.patch, fit_pts, nb.points, cfg),
    )
    out = patch_record(rec)
    out["gamma"] = cfg.gamma
    print(json_dumps(out))
    return 0 if rec.validation.passed else 2


def cmd_map(args) -> int:
    try:
        cfg, budgets, state, cfg_seed = load_map_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return _fail(f"bad config: {e}")
    seed = _seed_or_env(args.seed if args.seed is not None else cfg_seed)

    gravities = None
    if args.gravity is not None:
        try:
            with open(args.gravity) as f:
                gspec = json.load(f)
            if "g_per_frame" in gspec:
                gravities = [np.asarray(g, float) for g in gspec["g_per_frame"]]
            else:
                gravities = [np.asarray(gspec["g"], float)]
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            return _fail(f"bad gravity file: {e}")

    stats_rows = []
    for i, frame in enumerate(args.frames):
        try:
            cloud, _ = read_cloud(frame)
        except (OSError, ValueError) as e:
            return _fail(str(e))
        if gravities is None:
            g = np.array([0.0, 1.0, 0.0])
        else:
            g = gravities[min(i, len(gravities) - 1)]
        res = map_step(
            state, cloud, g, budgets=budgets, config=cfg, rng_seed=(seed, i)
        )
        row = {
            "frame": i,
            "seeds": res.n_seeds,
            "fits": res.n_attempts,
            "admitted": len(res.admitted),
        }
        row.update({f"drop_{k}": v for k, v in res.drops.items()})
        row.update({f"t_{k}_s": round(res.timings.get(k, 0.0), 6) for k in
                    ("saliency", "seeds", "fit_validate", "total")})
        stats_rows.append(row)

    write_patch_map(args.out, state)
    if args.stats is not None and stats_rows:
        with open(args.stats, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(stats_rows[0]))
            writer.writeheader()
            writer.writerows(stats_rows)
    print(args.out)
    return 0


def cmd_track(args) -> int:
    if args.policy not in [p.value for p in MovePolicy]:
        return _fail(f"unknown policy: {args.policy}")
    policy = MovePolicy(args.policy)
    try:
        with open(args.trajectory) as f:
            traj = json.load(f)
        poses = [_pose6(p) for p in traj]
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        return _fail(f"bad trajectory: {e}")
    if not poses:
        return _fail("trajectory is empty")

    g = np.asarray(args.g, float)
    fwd = np.asarray(args.forward, float)
    state = init_volume(poses[0], policy=policy, c_d=args.c_d, c_a=args.c_a)

    if args.map is not None:
        try:
            with open(args.map) as f:
                doc = json.load(f)
            for rec in doc["patches"]:
                patch = _patch_from_record(rec)
                _, t = _pose_vectors(patch)
                state.patches.append(
                    _mapping.MapPatch(
                        id=int(rec["id"]),
                        patch=patch,
                        cell=_mapping._cell_of(t, state.v_s, state.grid.v_g) or (0, 0),
                        seed_pixel=tuple(rec["seed_pixel"]),
                        seed_point=t.copy(),
                        frame_index=int(rec["frame_index"]),
                        validation=ValidationRecord(
                            residual=float(rec["validation"]["residual"]),
                            bad_cells=int(rec["validation"]["bad_cells"]),
                            curvature_ok=rec["validation"]["gates"]["curvature"],
                            residual_ok=rec["validation"]["gates"]["residual"],
                            coverage_ok=rec["validation"]["gates"]["coverage"],
                        ),
                    )
                )
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            return _fail(f"bad patch map: {e}")

    lines = []
    for i, pose in enumerate(poses):
        kwargs = {} if policy in (MovePolicy.FV, MovePolicy.FC) else {"g": g, "forward": fwd}
        state, T = volume_update(state, pose, **kwargs)
        culled: List[int] = []
        if T is not None:
            before = {mp.id for mp in state.patches}
            state = remap_patches(state, T, cull_excess=args.cull)
            culled = sorted(before - {mp.id for mp in state.patches})
        lines.append(
            json_line(
                {
                    "frame": i,
                    "fired": T is not None,
                    "T": None if T is None else {"r": T.r, "t": T.t},
                    "culled": culled,
                }
            )
        )
    lines.append(
        json_line(
            {
                "final": {
                    "pose_world": {"r": state.pose_world.r, "t": state.pose_world.t},
                    "camera_in_volume": {"r": state.c_t.r, "t": state.c_t.t},
                    "patch_ids": [mp.id for mp in state.patches],
                }
            }
        )
    )
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w") as f:
            f.write(text)
        print(args.out)
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    try:
        with open(args.map) as f:
            doc = json.load(f)
        cloud, _ = read_cloud(args.cloud)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return _fail(str(e))
    try:
        cfg, _, _, _ = load_map_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return _fail(f"bad config: {e}")

    to_cam = pose_inverse(_pose6(doc.get("camera_in_volume", {"t": [0.0, 0.0, 0.0]})))
    any_fail = False
    for rec in doc.get("patches", []):
        patch, _ = transform_patch(_patch_from_record(rec), to_cam)
        entry = {"id": rec["id"]}
        try:
            pixel = np.array(rec["seed_pixel"], dtype=int)
            nb = neighborhood(cfg.neighborhood, cloud, pixel, cfg.saliency.r)
            v = gate_patch(patch, nb.points, nb.points, cfg)
            entry.update(_validation_fields(v))
            entry["passed"] = v.passed
        except ValueError as e:
            entry.update({"error": str(e), "passed": False})
        any_fail |= not entry["passed"]
        print(json_line(entry))
    return 2 if any_fail else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="patchscape",
        description="Curved-patch mapping toolkit: simulate, fit, map, track, validate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="render organized clouds of a synthetic scene")
    s.add_argument("--scene", required=True, help="scene spec JSON")
    s.add_argument("--frames", type=int, default=1)
    s.add_argument("--trajectory", help="JSON list of per-frame camera poses")
    s.add_argument("--no-noise", action="store_true", help="disable the spec's noise model")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True, help="output prefix")
    s.set_defaults(func=cmd_simulate)

    defaults = MapConfig()
    f = sub.add_parser("fit", help="fit one bounded patch at a pixel")
    f.add_argument("--cloud", required=True, help="OPC1 cloud file")
    f.add_argument("--pixel", type=int, nargs=2, metavar=("U", "V"), required=True)
    f.add_argument("--radius", type=float, default=defaults.saliency.r)
    f.add_argument("--surface", default=defaults.surface,
                   choices=["paraboloid", "plane", "sphere", "cylinder"])
    f.add_argument("--boundary", default="ellipse",
                   choices=[b.value for b in BoundaryType])
    f.add_argument("--gamma", type=float, default=defaults.gamma)
    f.add_argument("--n-f", type=int, default=defaults.n_f)
    f.add_argument("--d-max", type=float, default=defaults.d_max)
    f.add_argument("--seed", type=int, default=None)
    f.set_defaults(func=cmd_fit)

    m = sub.add_parser("map", help="run the mapping pipeline over frames")
    m.add_argument("frames", nargs="*", help="OPC1 frame files in order")
    m.add_argument("--gravity", help="JSON {g: [...]} or {g_per_frame: [[...], ...]}, camera frame")
    m.add_argument("--config", help="pipeline config JSON")
    m.add_argument("--out", required=True, help="patch map output path")
    m.add_argument("--stats", help="per-frame stats CSV path")
    m.add_argument("--seed", type=int, default=None)
    m.set_defaults(func=cmd_map)

    t = sub.add_parser("track", help="replay volume move policies over a trajectory")
    t.add_argument("--trajectory", required=True, help="JSON list of camera poses (world)")
    t.add_argument("--policy", required=True, help="fv | fc | fd | ff")
    t.add_argument("--c-d", type=float, default=0.3)
    t.add_argument("--c-a", type=float, default=0.05)
    t.add_argument("--g", type=float, nargs=3, default=[0.0, 1.0, 0.0], help="gravity, world")
    t.add_argument("--forward", type=float, nargs=3, default=[0.0, 0.0, 1.0])
    t.add_argument("--map", help="preload patches from a patch map file")
    t.add_argument("--cull", action="store_true", help="cull per-cell overflow on remap")
    t.add_argument("--out", help="log path (stdout when omitted)")
    t.set_defaults(func=cmd_track)

    v = sub.add_parser("validate", help="re-run the gates of a patch map against a cloud")
    v.add_argument("--map", required=True)
    v.add_argument("--cloud", required=True)
    v.add_argument("--config", help="same config JSON the map was built with")
    v.set_defaults(func=cmd_validate)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
