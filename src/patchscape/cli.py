"""Command line front end and the file formats behind it.

Five subcommands: simulate (render organized clouds of a synthetic
scene), fit (one patch at a pixel), map (the full per-frame pipeline
over a frame sequence), track (volume policy replay over a trajectory),
and validate (re-run the gates of a stored map against a cloud). fit
and validate run map_step's own seed code from patchscape.mapping
(neighborhood, fit_sample, gate_patch) under a MapConfig built from the
fit flags or the config file, whose omitted values keep MapConfig's
defaults. validate gates the residual over the whole neighborhood of a
patch's seed pixel, while map_step gates it over the n_f points it
fitted, so the residual validate reports for a patch can differ from the
one its map stores, and a patch admitted just under d_max can fail
validate on the frame it came from.

Every random draw comes from one seed: --seed when given, else the
config's "seed" (map only), else 0.

A patch map holds "format", "frame", "camera_in_volume" {r, t},
"volume_world" {r, t}, "v_s" and "patches", a list of records with "id",
"surface", "boundary", "k", "d", "r" (the full rotation vector), "t",
"sigma", "seed_pixel" [row, col], "frame_index" and "validation"
{"residual", "bad_cells", "gates": {"curvature", "residual", "coverage"}}.
read_patch_map is its one reader, for validate and track --map alike. It
needs every record key but "sigma", with JSON integers for the id, frame
index, bad cells and seed pixel; without "camera_in_volume" the camera
is at the volume origin. A revolute surface and boundary pair
(patchscape.patch.is_revolute) reads back as a 5-DoF pose with r_xy =
r[:2], so the record round-trips bit for bit; such a record whose r[2]
is not 0 is a bad patch map.

JSON numbers and the text header of a cloud file are written with 17
significant digits, so files are byte-identical across runs and
round-trip 64-bit floats exactly. Clouds use the OPC2 format; patch maps,
scene specs, configs, and remap logs are JSON. Diagnostics go to stderr;
stdout stays machine readable. Exit codes: 0 success, 1 bad input, 2 gate
failure.

Bad input has one outcome in every subcommand: one stderr line
"error: <what>: <message>", nothing on stdout, and exit 1. <what> names
the input at fault (bad scene spec, bad trajectory, bad config, bad
gravity file, bad patch map) or the step (fit failed); it is left out
where the message already names the fault, as the path of a cloud or of
an output file that cannot be written does. Every number read from a
JSON input must be a JSON number: a string, true, false or null never
stands in for one, and an integer past the float range is no float.
Poses, gravity vectors, the numbers of a scene spec and a patch-map
record's k, d, r, t and sigma must also be finite, and a rotation vector
short enough that its squared norm is finite; a config field checks its
own range. map checks that its output paths can be written before it
reads the first frame.

An OPC2 file starts with four ASCII header lines, "OPC2 <width> <height>",
"intrinsics <fx> <fy> <cx> <cy> <baseline>", "noise <kind> <field>..." and
"cov <0|1>", each ended by a newline. A binary body follows: width * height
point rows of 3 little-endian float64 values "x y z" in row-major pixel
order and, when cov is 1, as many covariance rows in the same order, each
the upper triangle "xx xy xz yy yz zz" as 6 float64 values. A pixel with
no return is an all-NaN point row; a covariance row is all NaN when its
point or any of its entries is not finite. The body's size is exact, so a
reader checks it against the header before parsing. These rows are an
OrganizedCloud's own packed layout (patchscape.sensor.COV_UPPER):
write_cloud writes its rows as they are, and read_cloud reads the body
with one readinto into a single array whose point and covariance parts
are the cloud's points and cov, views of the stored rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from inspect import isfunction
from typing import (
    List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints,
)

import numpy as np

from . import mapping as _mapping
from .fit import MIN_FIT_POINTS, SURFACES, fit_patch
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
from .patch import BoundaryType, Patch, SurfaceType, is_revolute, patch_rotvec, transform_patch
from .pose import Pose5, Pose6, pose_inverse
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


def json_dumps(obj, indent: Optional[int] = 0) -> str:
    """JSON text with floats at 17 significant digits.

    The stdlib writer formats floats with repr, which is round-trip safe
    but not the pinned 17-digit form; this one keeps files byte-stable
    under any interpreter. An object opens one line per key, indent
    spaces in; indent None writes the whole document on one line, as log
    records take it.
    """
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
        return "[" + ", ".join(json_dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, dict):
        if indent is None:
            return "{" + ", ".join(
                json.dumps(str(k)) + ": " + json_dumps(v, None) for k, v in obj.items()
            ) + "}"
        pad = " " * indent
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + json_dumps(v, indent + 2)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_json(path: str, kind: type):
    """The JSON document of a file; ValueError unless its top level is a kind."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, kind):
        raise ValueError(f"the top level is not a JSON {'list' if kind is list else 'object'}")
    return doc


# ---------------------------------------------------------------------------
# OPC2 organized cloud files
# ---------------------------------------------------------------------------

_NOISE = {cls.kind: cls for cls in (ConstantNoise, LinearNoise, QuadraticNoise, StereoNoise)}


def _noise(kind: str, params):
    """Noise model of a kind, None for "none".

    params gives the model's fields by name (a dict) or in field order (a
    sequence); fields it leaves out keep the model's defaults. A name the
    model lacks, or a value past its last field, is ValueError.
    """
    if kind != "none" and kind not in _NOISE:
        raise ValueError(f"unknown noise model: {kind}")
    cls = _NOISE.get(kind)
    names = [f.name for f in fields(cls)] if cls else []
    if not isinstance(params, dict):
        if len(params) > len(names):
            raise ValueError(f"noise model {kind} takes {len(names)} value(s), got {len(params)}")
        params = dict(zip(names, params))
    extra = [name for name in params if name not in names]
    if extra:
        raise ValueError(f"noise model {kind} has no {', '.join(extra)}")
    if cls is None:
        return None
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"noise model {kind} needs {', '.join(missing)}")
    return cls(**{name: float(v) for name, v in params.items()})


def _noise_tag(noise) -> str:
    if noise is None:
        return "none"
    return " ".join([noise.kind] + [_g17(getattr(noise, f.name)) for f in fields(noise)])


def _rows(rows: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Little-endian float64 rows, the rows that are not ok all NaN."""
    return np.ascontiguousarray(np.where(ok[:, None], rows, np.nan), dtype="<f8")


def write_cloud(path: str, cloud: OrganizedCloud, noise=None) -> None:
    intr = cloud.intrinsics
    lines = [
        f"OPC2 {intr.width} {intr.height}",
        "intrinsics "
        + " ".join(_g17(v) for v in (intr.fx, intr.fy, intr.cx, intr.cy, intr.baseline)),
        "noise " + _noise_tag(noise),
        f"cov {int(cloud.cov is not None)}",
    ]
    pts = cloud.points.reshape(-1, 3)
    ok = np.isfinite(pts).all(axis=1)
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        f.write(_rows(pts, ok))
        if cloud.cov is not None:
            cvs = cloud.cov.reshape(-1, 6)
            f.write(_rows(cvs, ok & np.isfinite(cvs).all(axis=1)))


def _header(lines: List[str], i: int, key: str, n: int, more: bool = False) -> List[str]:
    """Values after key on header line i; ValueError unless there are n (with more, at least n)."""
    vals = lines[i].split()
    count = len(vals) - 1
    if vals[:1] != [key] or count < n or count > n and not more:
        raise ValueError(f"header line {i + 1} needs {key!r} and {'at least ' if more else ''}"
                         f"{n} value(s)")
    return vals[1:]


def _read_body(f, path: str, count: int) -> np.ndarray:
    """The rest of f as count float64 values, read with one readinto;
    ValueError unless it holds exactly count * 8 bytes. The rest's size is
    checked first, so a header that asks for more values than the file
    holds allocates nothing."""
    expect = count * 8
    if not f.seekable():  # a pipe tells its size only once it is read
        f = io.BytesIO(f.read())
    start = f.tell()
    found = f.seek(0, io.SEEK_END) - start
    f.seek(start)
    if found == expect:
        vals = np.empty(count, dtype="<f8")
        found = f.readinto(vals) + len(f.read())
        if found == expect:
            return vals.astype(float, copy=False)
    raise ValueError(f"{path}: expected {expect} body bytes, found {found}")


def read_cloud(path: str) -> Tuple[OrganizedCloud, object]:
    """(cloud, noise model or None) of an OPC2 file; ValueError naming path
    when it is malformed. The cloud's points and cov are views of the one
    array its body is read into."""
    with open(path, "rb") as f:
        head = [f.readline() for _ in range(4)]
        try:
            lines = [ln.decode("ascii").strip() for ln in head]
        except UnicodeDecodeError:
            raise ValueError(f"{path}: the header is not ASCII text") from None
        if lines[0].startswith("OPC1 "):
            raise ValueError(f"{path}: an OPC1 text cloud; this version reads OPC2 binary clouds")
        if not lines[0].startswith("OPC2 "):
            raise ValueError(f"{path}: not an OPC2 cloud file")
        try:
            w, h = (int(v) for v in _header(lines, 0, "OPC2", 2))
            fx, fy, cx, cy, baseline = (float(v) for v in _header(lines, 1, "intrinsics", 5))
            kind, *params = _header(lines, 2, "noise", 1, more=True)
            noise = _noise(kind, params)
            (cov_flag,) = _header(lines, 3, "cov", 1)
            if cov_flag not in ("0", "1"):
                raise ValueError(f"cov must be 0 or 1, got {cov_flag}")
            has_cov = cov_flag == "1"
            intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h,
                                    baseline=baseline)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        n = w * h
        vals = _read_body(f, path, n * (9 if has_cov else 3))
    cov = vals[3 * n:].reshape(h, w, 6) if has_cov else None
    return OrganizedCloud(points=vals[:3 * n].reshape(h, w, 3), cov=cov, intrinsics=intr), noise


# ---------------------------------------------------------------------------
# Patch map files
# ---------------------------------------------------------------------------


def _patch_fields(p: Patch) -> dict:
    """A patch's shape and pose as JSON fields; r is the full rotation vector."""
    return {"surface": p.s.value, "boundary": p.b.value, "k": p.k, "d": p.d,
            "r": patch_rotvec(p), "t": p.pose.t}


def patch_record(mp: _mapping.MapPatch) -> dict:
    return {
        "id": mp.id,
        **_patch_fields(mp.patch),
        "sigma": mp.patch.sigma,
        "seed_pixel": list(mp.seed_pixel),
        "frame_index": mp.frame_index,
        "validation": _validation_fields(mp.validation),
    }


def _validation_fields(v: ValidationRecord) -> dict:
    gates = {g: bool(getattr(v, f"{g}_ok")) for g in _mapping._GATES}
    return {"residual": v.residual, "bad_cells": v.bad_cells, "gates": gates}


def _patch_from_record(key: str, rec: dict) -> Patch:
    """The Patch of the patch-map record at key, exactly as written.

    k, d, r, t and each row of sigma must be a list of finite JSON
    numbers, and sigma must be square. A revolute pair takes the 5-DoF
    pose whose r_xy is r[:2], which patch_rotvec wrote with r[2] = 0; a
    record with any other r[2] is ValueError.
    """
    s, b = SurfaceType(rec["surface"]), BoundaryType(rec["boundary"])
    r, t = _rotation(f"{key}.r", rec["r"], 3), _numbers(f"{key}.t", rec["t"], 3)
    sigma = rec.get("sigma")
    if sigma is not None:
        if not isinstance(sigma, list):
            raise ValueError(f"{key}.sigma must be a list of rows")
        sigma = np.array([_numbers(f"{key}.sigma[{i}]", row, len(sigma))
                          for i, row in enumerate(sigma)])
    if not is_revolute(s, b):
        pose = Pose6(r, t)
    elif r[2] == 0.0:
        pose = Pose5(r[:2], t)
    else:
        raise ValueError(f"a {s.value}/{b.value} patch needs r = [rx, ry, 0], got {rec['r']}")
    return Patch(s, b, _numbers(f"{key}.k", rec["k"]), _numbers(f"{key}.d", rec["d"]), pose,
                 sigma)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def write_patch_map(path: str, state: _mapping.VolumeState) -> None:
    doc = {
        "format": "patch-map",
        "frame": "volume",
        "camera_in_volume": {"r": state.c_t.r, "t": state.c_t.t},
        "volume_world": {"r": state.pose_world.r, "t": state.pose_world.t},
        "v_s": state.v_s,
        "patches": [patch_record(mp) for mp in state.patches],
    }
    _write_text(path, json_dumps(doc) + "\n")


# the keys every patch-map record holds; "sigma" may be absent
_RECORD_KEYS = ("id", "surface", "boundary", "k", "d", "r", "t", "seed_pixel", "frame_index",
                "validation")


def _require(key: str, obj, names) -> None:
    """ValueError naming key and the first of names that obj lacks."""
    for name in names:
        if name not in obj:
            raise ValueError(f'{key} has no "{name}"')


def read_patch_map(path: str) -> Tuple[Pose6, List[_mapping.MapPatch]]:
    """(camera_in_volume, patches) of a patch-map file; ValueError, KeyError
    or TypeError when it is malformed. A record stores neither the volume
    cell nor the seed point: cell is None, seed_point the patch origin."""
    doc = _load_json(path, dict)
    _require("the top level", doc, ("patches",))
    patches = []
    for i, rec in enumerate(doc["patches"]):
        key = f"patches[{i}]"
        if not isinstance(rec, dict):
            raise ValueError(f"{key} is not a JSON object")
        _require(key, rec, _RECORD_KEYS)
        v = rec["validation"]
        _require(f"{key}.validation", v, ("residual", "bad_cells", "gates"))
        _require(f"{key}.validation.gates", v["gates"], _mapping._GATES)
        pixel = tuple(_json_value(f"{key}.seed_pixel", int, x) for x in rec["seed_pixel"])
        if len(pixel) != 2:
            raise ValueError(f"{key}.seed_pixel must be [row, col]")
        patch = _patch_from_record(key, rec)
        patches.append(_mapping.MapPatch(
            id=_json_value(f"{key}.id", int, rec["id"]),
            patch=patch,
            cell=None,
            seed_pixel=pixel,
            seed_point=patch.pose.t.copy(),
            frame_index=_json_value(f"{key}.frame_index", int, rec["frame_index"]),
            validation=ValidationRecord(
                _json_value(f"{key}.validation.residual", float, v["residual"]),
                _json_value(f"{key}.validation.bad_cells", int, v["bad_cells"]),
                *(_json_value(f"{key}.validation.gates.{g}", bool, v["gates"][g])
                  for g in _mapping._GATES),
            ),
        ))
    return _pose6("camera_in_volume", doc.get("camera_in_volume", {"t": [0.0, 0.0, 0.0]})), patches


# ---------------------------------------------------------------------------
# Scene specs
# ---------------------------------------------------------------------------


def _number(key: str, value) -> float:
    """A finite JSON number as a float; ValueError, naming key, for any
    other value, a string, true or null included."""
    x = _json_value(key, float, value)
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite")
    return x


def _numbers(key: str, value, n: Optional[int] = None) -> np.ndarray:
    """A JSON list of finite JSON numbers, n of them unless n is None, as floats."""
    if not isinstance(value, list) or n is not None and len(value) != n:
        raise ValueError(f"{key} must be a list of {'' if n is None else f'{n} '}JSON numbers")
    return np.array([_number(f"{key}[{i}]", v) for i, v in enumerate(value)], dtype=float)


def _rotation(key: str, value, n: int) -> np.ndarray:
    """A rotation vector (n = 3) or its xy part (n = 2) of n finite JSON
    numbers whose squared norm, which pose.exp_map takes, is finite too."""
    r = _numbers(key, value, n)
    if not math.isfinite(sum(v * v for v in r.tolist())):
        raise ValueError(f"{key} is too long for a rotation vector")
    return r


def _pose6(key: str, d) -> Pose6:
    """Pose6 of a JSON {"r": [...], "t": [...]}; a missing r is no rotation."""
    if not isinstance(d, dict):
        raise ValueError("a pose is not a JSON object")
    return Pose6(_rotation(f"{key}.r", d.get("r", [0.0, 0.0, 0.0]), 3),
                 _numbers(f"{key}.t", d["t"], 3))


def _pose_from_spec(key: str, d):
    if isinstance(d, dict) and "rxy" in d:
        return Pose5(_rotation(f"{key}.rxy", d["rxy"], 2), _numbers(f"{key}.t", d["t"], 3))
    return _pose6(key, d)


def load_scene_spec(path: str):
    """Parse a scene spec into (surfaces, intrinsics, camera, noise)."""
    spec = _load_json(path, dict)
    intr = spec.get("intrinsics", "kinect-640")
    if isinstance(intr, str):
        intr = intrinsics_preset(intr)
    else:
        intr = _json_value("intrinsics", CameraIntrinsics, intr)
    cam = _pose6("camera", spec.get("camera") or {"t": [0.0, 0.0, 0.0]})
    noise = spec.get("noise")
    if noise is not None:
        noise = _noise(noise["model"], {k: _json_value(f"noise.{k}", float, v)
                                        for k, v in noise.items() if k != "model"})
    surfaces = []
    for i, entry in enumerate(spec["surfaces"]):
        key = f"surfaces[{i}]"
        if not isinstance(entry, dict):
            raise ValueError("a surface is not a JSON object")
        kind = entry.get("type", "patch")
        if kind == "plane":
            surfaces.append(ScenePlane(_numbers(f"{key}.normal", entry["normal"], 3),
                                       _number(f"{key}.offset", entry["offset"])))
        elif kind == "patch":
            surfaces.append(
                Patch(
                    SurfaceType(entry["surface"]),
                    BoundaryType(entry["boundary"]),
                    _numbers(f"{key}.k", entry["k"]),
                    _numbers(f"{key}.d", entry["d"]),
                    _pose_from_spec(f"{key}.pose", entry["pose"]),
                    None,
                )
            )
        else:
            raise ValueError(f"unknown surface type: {kind}")
    return surfaces, intr, cam, noise


def _read_trajectory(path: str) -> List[Pose6]:
    """Camera poses of a trajectory file, a JSON list of {"r", "t"} objects."""
    return [_pose6(f"[{i}]", p) for i, p in enumerate(_load_json(path, list))]


def _read_gravity(path: Optional[str]) -> List[np.ndarray]:
    """Camera-frame gravity per frame from a JSON {"g": [...]} or
    {"g_per_frame": [[...], ...]}, whose last vector serves every later
    frame; without a file, +y for every frame."""
    if path is None:
        return [np.array([0.0, 1.0, 0.0])]
    spec = _load_json(path, dict)
    if "g_per_frame" in spec:
        gravities = [_numbers(f"g_per_frame[{i}]", g, 3)
                     for i, g in enumerate(spec["g_per_frame"])]
        if not gravities:
            raise ValueError("g_per_frame is empty")
    else:
        gravities = [_numbers("g", spec["g"], 3)]
    for g in gravities:
        _mapping._unit_vector(g, "gravity")
    return gravities


def _scene_truth(surfaces) -> List[dict]:
    out = []
    for s in surfaces:
        if isinstance(s, ScenePlane):
            out.append({"type": "plane", "normal": s.normal, "offset": s.offset})
        else:
            out.append({"type": "patch", **_patch_fields(s)})
    return out


# ---------------------------------------------------------------------------
# Map config files
# ---------------------------------------------------------------------------


_JSON_KIND = {  # config field type: (JSON values it takes, their name)
    bool: (bool, "true or false"),
    int: (int, "a JSON integer"),
    float: ((int, float), "a JSON number"),
    str: (str, "a JSON string"),
}


def _json_value(key: str, kind, value):
    """A JSON value as a field of type kind, without coercion that would
    change it (int(8.9), bool("false"), float(true)).

    kind is a dataclass or function, called with the fields of a JSON
    object typed by its annotations; an Enum, built from its value; bool,
    int, float or str; or Optional of one, which also takes null.
    ValueError for any other kind, and for a float field given an integer
    past the float range.
    """
    if get_origin(kind) is Union:
        if value is None:
            return None
        (kind,) = (a for a in get_args(kind) if a is not type(None))
    if is_dataclass(kind) or isfunction(kind):
        hints = get_type_hints(kind)
        hints.pop("return", None)
        return kind(**_config_fields(key, hints, value))
    if isinstance(kind, type) and issubclass(kind, Enum):
        values = [m.value for m in kind]
        if value not in values:
            raise ValueError(f"{key} must be one of {values}")
        return kind(value)
    if kind not in _JSON_KIND:
        raise ValueError(f"{key} cannot be set in a config")
    accepted, name = _JSON_KIND[kind]
    # bool is an int subclass: JSON true must not pass as 1 or 1.0
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{key} must be {name}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{key} must be finite") from None


def _config_fields(key: str, kinds: dict, spec) -> dict:
    """Keyword arguments from a JSON object, each value typed by kinds[name]."""
    if not isinstance(spec, dict):
        raise ValueError(f"{key or 'config'} must be a JSON object")
    unknown = set(spec) - set(kinds)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}" + (f" in {key}" if key else ""))
    return {k: _json_value(f"{key}.{k}" if key else k, kinds[k], v) for k, v in spec.items()}


def load_map_config(path: Optional[str]):
    """Config JSON -> (MapConfig, MapBudgets, initial VolumeState, seed or None).

    Only the keys the spec gives are set; the rest keep the MapConfig,
    MapBudgets and init_volume defaults. Values are checked at every
    level, nested configs included: int fields take only JSON integers,
    bool fields only true or false, float fields only JSON numbers and
    str fields only strings; an Enum field takes one of its values. An
    unknown key or a bad value raises ValueError.
    """
    spec = {} if path is None else _load_json(path, dict)
    kinds = {**get_type_hints(MapConfig), "budgets": MapBudgets, "volume": init_volume,
             "seed": Optional[int]}
    try:
        vals = _config_fields("", kinds, spec)
        budgets = vals.pop("budgets", None) or MapBudgets()
        volume = vals.pop("volume", None) or init_volume()
        seed = vals.pop("seed", None)
        cfg = MapConfig(**vals)
    except (TypeError, OverflowError) as e:
        raise ValueError(str(e)) from e
    return cfg, budgets, volume, seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


class _BadInput(Exception):
    """Bad input to a subcommand; main prints it as one error line and exits 1."""


def _checked(what: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), a bad-input exception it raises re-raised as
    _BadInput(what + its message)."""
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError, KeyError, TypeError, np.linalg.LinAlgError) as e:
        raise _BadInput(f"{what}{e}") from e


def cmd_simulate(args) -> int:
    surfaces, intr, cam, noise = _checked("bad scene spec: ", load_scene_spec, args.scene)
    if args.no_noise:
        noise = None

    poses = [cam] * args.frames
    if args.trajectory is not None:
        poses = _checked("bad trajectory: ", _read_trajectory, args.trajectory)

    frame_paths = []
    for i, pose in enumerate(poses):
        # a noise model the camera cannot take fails here
        cloud = _checked("bad scene spec: ", sample_scene, surfaces, intr, camera_pose=pose,
                         noise=noise, rng=np.random.default_rng((args.seed, i)))
        path = f"{args.out}_{i:03d}.opc"
        _checked("", write_cloud, path, cloud, noise)
        frame_paths.append(path)

    truth = {
        "seed": args.seed,
        "noise": _noise_tag(noise),
        "frames": frame_paths,
        "camera_per_frame": [{"r": p.r, "t": p.t} for p in poses],
        "surfaces": _scene_truth(surfaces),
    }
    _checked("", _write_text, f"{args.out}_truth.json", json_dumps(truth) + "\n")
    print("\n".join(frame_paths))
    return 0


def cmd_fit(args) -> int:
    cloud, _ = _checked("", read_cloud, args.cloud)
    col, row = args.pixel
    cfg = _checked("", lambda: MapConfig(
        saliency=SaliencyConfig(r=args.radius), n_f=args.n_f, surface=args.surface,
        gamma=args.gamma, d_max=args.d_max,
    ))
    nb = _checked("", neighborhood, cfg.neighborhood, cloud, np.array([row, col]), cfg.saliency.r)
    if len(nb.points) < MIN_FIT_POINTS:
        raise _BadInput(f"only {len(nb.points)} neighbors within {cfg.saliency.r} m")
    fit_pts, fit_cvs = fit_sample(nb, cfg.n_f, np.random.default_rng(args.seed))
    fit = _checked("fit failed: ", fit_patch, fit_pts, fit_cvs, surface=cfg.surface,
                   plane_boundary=BoundaryType(args.boundary), gamma=cfg.gamma)

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
    # a solve stopped at the iteration cap is reported, not hidden
    out.update(converged=fit.converged, iterations=fit.iterations, chi2=fit.chi2)
    print(json_dumps(out))
    return 0 if rec.validation.passed else 2


def _check_writable(path: str) -> None:
    """The OSError that writing path would raise, if any, without changing
    it: an existing file keeps its bytes, and a missing one is not left."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _write_stats(path: str, rows: List[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_map(args) -> int:
    cfg, budgets, state, cfg_seed = _checked("bad config: ", load_map_config, args.config)
    seed = args.seed if args.seed is not None else (cfg_seed or 0)
    gravities = _checked("bad gravity file: ", _read_gravity, args.gravity)
    for path in (args.out, args.stats):
        if path is not None:
            _checked("", _check_writable, path)

    stats_rows = []
    for i, frame in enumerate(args.frames):
        t0 = time.perf_counter()
        cloud, _ = _checked("", read_cloud, frame)
        t_read = time.perf_counter() - t0
        g = gravities[min(i, len(gravities) - 1)]
        res = map_step(state, cloud, g, budgets=budgets, config=cfg, rng_seed=(seed, i))
        row = {
            "frame": i,
            "seeds": res.n_seeds,
            "fits": res.n_attempts,
            "admitted": len(res.admitted),
        }
        row.update({f"drop_{k}": v for k, v in res.drops.items()})
        row["t_read_s"] = round(t_read, 6)
        row.update({f"t_{k}_s": round(res.timings.get(k, 0.0), 6) for k in
                    ("saliency", "seeds", "fit_validate", "total")})
        stats_rows.append(row)

    _checked("", write_patch_map, args.out, state)
    if args.stats is not None and stats_rows:
        _checked("", _write_stats, args.stats, stats_rows)
    print(args.out)
    return 0


def cmd_track(args) -> int:
    if args.policy not in [p.value for p in MovePolicy]:
        raise _BadInput(f"unknown policy: {args.policy}")
    poses = _checked("bad trajectory: ", _read_trajectory, args.trajectory)
    if not poses:
        raise _BadInput("trajectory is empty")
    state = _checked("", init_volume, poses[0], policy=args.policy, c_d=args.c_d, c_a=args.c_a)

    if args.map is not None:
        _, patches = _checked("bad patch map: ", read_patch_map, args.map)
        for mp in patches:
            inside, ij = _mapping._cells(state, mp.patch.pose.t[None])
            if len(inside):  # outside the grid it is dropped, as remap_patches drops it
                mp.cell = tuple(ij[0].tolist())
                state.patches.append(mp)

    lines = []
    for i, pose in enumerate(poses):
        state, T = _checked("", volume_update, state, pose, args.g, args.forward)
        culled: List[int] = []
        if T is not None:
            before = {mp.id for mp in state.patches}
            state = remap_patches(state, T, cull_excess=args.cull)
            culled = sorted(before - {mp.id for mp in state.patches})
        lines.append(json_dumps({
            "frame": i,
            "fired": T is not None,
            "T": None if T is None else {"r": T.r, "t": T.t},
            "culled": culled,
        }, indent=None))
    lines.append(json_dumps({
        "final": {
            "pose_world": {"r": state.pose_world.r, "t": state.pose_world.t},
            "camera_in_volume": {"r": state.c_t.r, "t": state.c_t.t},
            "patch_ids": [mp.id for mp in state.patches],
        }
    }, indent=None))
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _checked("", _write_text, args.out, text)
        print(args.out)
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    cam, patches = _checked("bad patch map: ", read_patch_map, args.map)
    cloud, _ = _checked("", read_cloud, args.cloud)
    cfg, _, _, _ = _checked("bad config: ", load_map_config, args.config)

    to_cam = pose_inverse(cam)
    any_fail = False
    for mp in patches:
        patch, _ = transform_patch(mp.patch, to_cam)
        entry = {"id": mp.id}
        try:
            nb = neighborhood(cfg.neighborhood, cloud, np.array(mp.seed_pixel), cfg.saliency.r)
            v = gate_patch(patch, nb.points, nb.points, cfg)
            entry.update(_validation_fields(v))
            entry["passed"] = v.passed
        except ValueError as e:
            entry.update({"error": str(e), "passed": False})
        any_fail |= not entry["passed"]
        print(json_dumps(entry, indent=None))
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
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output prefix")
    s.set_defaults(func=cmd_simulate)

    defaults = MapConfig()
    f = sub.add_parser("fit", help="fit one bounded patch at a pixel")
    f.add_argument("--cloud", required=True, help="OPC2 cloud file")
    f.add_argument("--pixel", type=int, nargs=2, metavar=("U", "V"), required=True)
    f.add_argument("--radius", type=float, default=defaults.saliency.r)
    f.add_argument("--surface", default=defaults.surface, choices=SURFACES)
    f.add_argument("--boundary", default="ellipse",
                   choices=[b.value for b in BoundaryType])
    f.add_argument("--gamma", type=float, default=defaults.gamma)
    f.add_argument("--n-f", type=int, default=defaults.n_f)
    f.add_argument("--d-max", type=float, default=defaults.d_max)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=cmd_fit)

    m = sub.add_parser("map", help="run the mapping pipeline over frames")
    m.add_argument("frames", nargs="*", help="OPC2 frame files in order")
    m.add_argument("--gravity", help="JSON {g: [...]} or {g_per_frame: [[...], ...]}, camera frame")
    m.add_argument("--config", help="pipeline config JSON")
    m.add_argument("--out", required=True, help="patch map output path")
    m.add_argument("--stats", help="per-frame stats CSV path; t_saliency_s covers decimation, "
                   "the moment image and DtFP, t_seeds_s the seed walk and the normals it solves")
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
    try:
        return args.func(args)
    except _BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
