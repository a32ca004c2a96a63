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

Every random draw comes from one non-negative seed: --seed when given,
else the config's "seed" (map only), else 0.

Every JSON input (scene spec, trajectory, gravity file, map config and
patch map) is read by _json_value from one schema, an annotated function
or dataclass whose parameters are a JSON object's keys. At every level an
object rejects unknown keys and names a required key it lacks (<key> has
no "<name>"); a number must be a finite JSON number (a string, a bool,
null, NaN or an integer past the float range never is one), and an int
field takes only JSON integers; null stands only for an Optional field;
and a rotation vector's squared norm, which pose.exp_map takes, must be
finite. The type a schema builds checks its own range.

A patch has one JSON shape, "surface", "boundary", "k", "d", "r" (the full
rotation vector) and "t", read by _patch in a scene spec's "surfaces" (so
the surfaces simulate writes to _truth.json read back) and in a patch map
alike. A revolute pair (patchscape.patch.is_revolute) reads back as a
5-DoF pose with r_xy = r[:2], so a patch round-trips bit for bit; its r[2]
must be 0. A patch map holds "format", "frame", "camera_in_volume" {r, t}
(the volume origin when absent), "volume_world" {r, t}, "v_s" and
"patches", records of a patch's fields and "id", "sigma" (optional),
"seed_pixel" [row, col], "frame_index" and "validation" {"residual",
"bad_cells", "gates": {"curvature", "residual", "coverage"}}.
read_patch_map reads it for validate and track --map alike.

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
an output file that cannot be written does. map checks that its output
paths can be written before it reads the first frame.

An OPC2 file starts with four ASCII header lines, "OPC2 <width> <height>",
"intrinsics <fx> <fy> <cx> <cy> <baseline>", "noise <kind> <field>..." and
"cov <0|1>", each ended by a newline. A binary body follows: width * height
point rows of 3 little-endian float64 values "x y z" in row-major pixel
order and, when cov is 1, as many covariance rows in the same order, each
the upper triangle "xx xy xz yy yz zz" as 6 float64 values. A pixel with
no return is an all-NaN point row (read_cloud reads a row with a finite z
but a non-finite x or y as one); a covariance row is all NaN when its
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
import functools
import inspect
import io
import json
import math
import os
import sys
import time
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from typing import (
    List, Literal, NewType, Optional, Sequence, Tuple, Union, get_args, get_origin,
    get_type_hints,
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


# ---------------------------------------------------------------------------
# The typed JSON reader
# ---------------------------------------------------------------------------


_JSON_KIND = {  # a scalar field's type: (JSON values it takes, their name)
    bool: (bool, "true or false"),
    int: (int, "a JSON integer"),
    float: ((int, float), "a JSON number"),
    str: (str, "a JSON string"),
}

Vec3 = Tuple[float, float, float]
# a rotation vector, whose squared norm pose.exp_map takes
Rotvec = NewType("Rotvec", Vec3)


class _Tagged:
    """Kind of a JSON object whose tag key names the schema in kinds that
    reads its other keys; an object without the tag takes default."""

    tag: str
    kinds: dict
    default: Optional[str] = None


def _where(key: str) -> str:
    return key or "the top level"


def _sub(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


@functools.lru_cache(maxsize=None)
def _schema(kind) -> Tuple[dict, tuple, tuple]:
    """(types, keys, rest) of a schema: the type of each parameter, the
    parameters a JSON key names, and the positional-only ones."""
    params = inspect.signature(kind).parameters.values()
    return (get_type_hints(kind), tuple(p for p in params if p.kind is not p.POSITIONAL_ONLY),
            tuple(p for p in params if p.kind is p.POSITIONAL_ONLY))


def _json_value(key: str, kind, value):
    """A JSON value read as kind, without coercion that would change it
    (int(8.9), bool("false"), float(true)); ValueError naming key, its path
    in the document ("" at the top level), when it does not fit. kind is:
    - a schema, a dataclass or function called with a JSON object's keys,
      each read as its parameter's annotation; a positional-only parameter
      takes the keys no other one names, read as its own kind;
    - a _Tagged subclass, an Enum (built from its value) or a Literal;
    - List[X], a fixed-length Tuple (Vec3) or Rotvec;
    - Optional[X], which also takes null, or Union[str, X];
    - bool, int, float or str.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        kinds = [a for a in args if a is not type(None)]
        return _json_value(key, str if isinstance(value, str) and str in kinds else kinds[-1],
                           value)
    if origin is list or origin is tuple:
        if not isinstance(value, list) or origin is tuple and len(value) != len(args):
            size = f" of {len(args)} values" if origin is tuple else ""
            raise ValueError(f"{_where(key)} must be a JSON list{size}")
        items = [_json_value(f"{key}[{i}]", args[i if origin is tuple else 0], v)
                 for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if kind is Rotvec:
        r = _json_value(key, Vec3, value)
        if not math.isfinite(sum(v * v for v in r)):
            raise ValueError(f"{key} is too long for a rotation vector")
        return r
    if origin is Literal or isinstance(kind, type) and issubclass(kind, Enum):
        values = list(args) if origin is Literal else [m.value for m in kind]
        if value not in values:
            raise ValueError(f"{key} must be one of {values}")
        return value if origin is Literal else kind(value)
    tagged = isinstance(kind, type) and issubclass(kind, _Tagged)
    if (tagged or is_dataclass(kind) or inspect.isfunction(kind)) and not isinstance(value, dict):
        raise ValueError(f"{_where(key)} is not a JSON object")
    if tagged:
        if kind.tag not in value and kind.default is None:
            raise ValueError(f'{_where(key)} has no "{kind.tag}"')
        tag = value.get(kind.tag, kind.default)
        if tag not in list(kind.kinds):
            raise ValueError(f"{_sub(key, kind.tag)} must be one of {list(kind.kinds)}")
        return _json_value(key, kind.kinds[tag], {k: v for k, v in value.items() if k != kind.tag})
    if is_dataclass(kind) or inspect.isfunction(kind):
        types, named, rest = _schema(kind)
        names = [p.name for p in named]
        unknown = [] if rest else sorted(set(value) - set(names))
        if unknown:
            raise ValueError(f"unknown keys {unknown}" + (f" in {key}" if key else ""))
        for p in named:
            if p.default is p.empty and p.name not in value:
                raise ValueError(f'{_where(key)} has no "{p.name}"')
        ours = {k: _json_value(_sub(key, k), types[k], v) for k, v in value.items() if k in names}
        others = {k: v for k, v in value.items() if k not in names}
        positional = [_json_value(key, types[p.name], others) for p in rest]
        try:
            return kind(*positional, **ours)
        except ValueError as e:  # the constructor's own check: name the record
            if not key:
                raise
            raise ValueError(f"{key}: {e}") from None
    if kind not in _JSON_KIND:
        raise ValueError(f"{key} cannot be read from JSON")
    accepted, name = _JSON_KIND[kind]
    # bool is an int subclass: JSON true must not pass as 1 or 1.0
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{key} must be {name}")
    if kind is int or kind is float:
        try:
            x = float(value)
        except OverflowError:  # a JSON integer past the float range
            x = math.inf
        if not math.isfinite(x):
            raise ValueError(f"{key} must be finite")
        return x if kind is float else value
    return value


def _read_json(path: str, kind):
    """The JSON document of a file, read as kind."""
    with open(path) as f:
        return _json_value("", kind, json.load(f))


# ---------------------------------------------------------------------------
# OPC2 organized cloud files
# ---------------------------------------------------------------------------

_NOISE = {cls.kind: cls for cls in (ConstantNoise, LinearNoise, QuadraticNoise, StereoNoise)}


def _noise(kind: str, params: List[str]):
    """Noise model of an OPC2 header's noise line, None for "none".

    params gives the model's fields in field order; fields it leaves out
    keep the model's defaults. A value past the last field, or a missing
    field without a default, is ValueError.
    """
    if kind != "none" and kind not in _NOISE:
        raise ValueError(f"unknown noise model: {kind}")
    cls = _NOISE.get(kind)
    names = fields(cls) if cls else ()
    if len(params) > len(names):
        raise ValueError(f"noise model {kind} takes {len(names)} value(s), got {len(params)}")
    missing = [f.name for f in names[len(params):] if f.default is MISSING]
    if missing:
        raise ValueError(f"noise model {kind} needs {', '.join(missing)}")
    return cls(*(float(v) for v in params)) if cls else None


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
    pts = vals[:3 * n].reshape(n, 3)
    finite = np.isfinite(pts)
    no_return = finite[:, 2] & ~(finite[:, 0] & finite[:, 1])
    if no_return.any():  # a finite z alone would pass valid_mask
        pts[no_return] = np.nan
        if has_cov:
            vals[3 * n:].reshape(n, 6)[no_return] = np.nan
    cov = vals[3 * n:].reshape(h, w, 6) if has_cov else None
    return OrganizedCloud(points=pts.reshape(h, w, 3), cov=cov, intrinsics=intr), noise


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


# ---------------------------------------------------------------------------
# Input schemas, one per JSON input
# ---------------------------------------------------------------------------

_ORIGIN = Pose6(np.zeros(3), np.zeros(3))


def _pose(t: Vec3, r: Rotvec = (0.0, 0.0, 0.0)) -> Pose6:
    """A camera or volume pose; without r, no rotation."""
    return Pose6(r, t)


def _patch(surface: SurfaceType, boundary: BoundaryType, k: List[float], d: List[float],
           r: Rotvec, t: Vec3) -> Patch:
    """A patch as _patch_fields writes it. A revolute pair takes the 5-DoF
    pose whose r_xy is r[:2], which patch_rotvec writes with r[2] = 0; any
    other r[2] is ValueError."""
    if not is_revolute(surface, boundary):
        pose = Pose6(r, t)
    elif r[2] == 0.0:
        pose = Pose5(r[:2], t)
    else:
        raise ValueError(f"a {surface.value}/{boundary.value} patch needs r = [rx, ry, 0], "
                         f"got {list(r)}")
    return Patch(surface, boundary, k, d, pose)


def _gates(curvature: bool, residual: bool, coverage: bool) -> Tuple[bool, bool, bool]:
    return curvature, residual, coverage


def _validation(residual: float, bad_cells: int, gates: _gates) -> ValidationRecord:
    return ValidationRecord(residual, bad_cells, *gates)


def _map_record(patch: _patch, /, id: int, seed_pixel: Tuple[int, int], frame_index: int,
                validation: _validation,
                sigma: Optional[List[List[float]]] = None) -> _mapping.MapPatch:
    """A patch-map record: a patch's fields and the record's own. It stores
    neither the volume cell nor the seed point: cell is None, seed_point
    the patch origin. sigma, when given, is a square list of rows."""
    if sigma is not None:
        if any(len(row) != len(sigma) for row in sigma):
            raise ValueError("sigma must be a square list of rows")
        patch = replace(patch, sigma=np.array(sigma, dtype=float))
    return _mapping.MapPatch(id=id, patch=patch, cell=None, seed_pixel=seed_pixel,
                             seed_point=patch.pose.t.copy(), frame_index=frame_index,
                             validation=validation)


def _patch_map(patches: List[_map_record], format: Literal["patch-map"] = "patch-map",
               frame: Literal["volume"] = "volume", camera_in_volume: _pose = _ORIGIN,
               volume_world: Optional[_pose] = None, v_s: Optional[float] = None):
    """(camera_in_volume, patches); the other keys are checked, not used."""
    return camera_in_volume, patches


def _plane(normal: Vec3, offset: float) -> ScenePlane:
    return ScenePlane(normal, offset)


class _SceneSurface(_Tagged):
    tag, kinds, default = "type", {"patch": _patch, "plane": _plane}, "patch"


class _NoiseSpec(_Tagged):
    tag, kinds = "model", {"none": lambda: None, **_NOISE}


def _scene_spec(surfaces: List[_SceneSurface],
                intrinsics: Union[str, CameraIntrinsics] = "kinect-640",
                camera: Optional[_pose] = None, noise: Optional[_NoiseSpec] = None):
    """(surfaces, intrinsics, camera, noise) of a scene spec: intrinsics is
    CameraIntrinsics' fields or a preset name, camera a pose (the origin
    when absent or null), and noise {"model": kind, field: value, ...}."""
    if isinstance(intrinsics, str):
        intrinsics = intrinsics_preset(intrinsics)
    return surfaces, intrinsics, _ORIGIN if camera is None else camera, noise


def _gravity(g: Optional[Vec3] = None,
             g_per_frame: Optional[List[Vec3]] = None) -> List[np.ndarray]:
    """Camera-frame gravity per frame: g for every frame, or g_per_frame,
    whose last vector serves every later frame. Each must be finite and
    nonzero."""
    if (g is None) == (g_per_frame is None):
        raise ValueError('a gravity file holds one of "g" and "g_per_frame"')
    gravities = [g] if g_per_frame is None else g_per_frame
    if not gravities:
        raise ValueError("g_per_frame is empty")
    for v in gravities:
        _mapping._unit_vector(v, "gravity")
    return [np.array(v) for v in gravities]


def _map_config(config: MapConfig, /, budgets: MapBudgets = MapBudgets(),
                volume: Optional[init_volume] = None, seed: Optional[int] = None):
    """(MapConfig, MapBudgets, initial VolumeState, seed or None); every key
    but budgets, volume (init_volume's arguments) and seed is a MapConfig
    field. The seed must be non-negative, as numpy's seeds are."""
    if seed is not None and seed < 0:
        raise ValueError("seed must be non-negative")
    return config, budgets, init_volume() if volume is None else volume, seed


def read_patch_map(path: str) -> Tuple[Pose6, List[_mapping.MapPatch]]:
    """(camera_in_volume, patches) of a patch-map file; ValueError, or
    OSError, when it cannot be read."""
    return _read_json(path, _patch_map)


def load_scene_spec(path: str):
    """Parse a scene spec into (surfaces, intrinsics, camera, noise)."""
    return _read_json(path, _scene_spec)


def _scene_truth(surfaces) -> List[dict]:
    """A scene's surfaces as a scene spec's "surfaces"."""
    return [{"type": "plane", "normal": s.normal, "offset": s.offset}
            if isinstance(s, ScenePlane) else {"type": "patch", **_patch_fields(s)}
            for s in surfaces]


def load_map_config(path: Optional[str]):
    """Config JSON -> (MapConfig, MapBudgets, initial VolumeState, seed or
    None); the keys it leaves out keep MapConfig's, MapBudgets' and
    init_volume's defaults."""
    return _map_config(MapConfig()) if path is None else _read_json(path, _map_config)


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


def _read_trajectory(path: str) -> List[Pose6]:
    """The camera poses of a --trajectory file, a JSON list of at least one pose."""
    poses = _checked("bad trajectory: ", _read_json, path, List[_pose])
    if not poses:
        raise _BadInput("bad trajectory: it holds no pose")
    return poses


def cmd_simulate(args) -> int:
    if args.frames < 1:
        raise _BadInput("--frames must be at least 1")
    surfaces, intr, cam, noise = _checked("bad scene spec: ", load_scene_spec, args.scene)
    if args.no_noise:
        noise = None

    poses = [cam] * args.frames if args.trajectory is None else _read_trajectory(args.trajectory)

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
    gravities = ([np.array([0.0, 1.0, 0.0])] if args.gravity is None  # +y for every frame
                 else _checked("bad gravity file: ", _read_json, args.gravity, _gravity))
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
        row.update({f"t_{k}_s": round(v, 6) for k, v in res.timings.items()})
        stats_rows.append(row)

    _checked("", write_patch_map, args.out, state)
    if args.stats is not None and stats_rows:
        _checked("", _write_stats, args.stats, stats_rows)
    print(args.out)
    return 0


def cmd_track(args) -> int:
    if args.policy not in [p.value for p in MovePolicy]:
        raise _BadInput(f"unknown policy: {args.policy}")
    poses = _read_trajectory(args.trajectory)
    state = _checked("", init_volume, poses[0], policy=args.policy, c_d=args.c_d, c_a=args.c_a)

    if args.map is not None:
        _, patches = _checked("bad patch map: ", read_patch_map, args.map)
        for mp in patches:
            inside, key = _mapping._cells(state, mp.patch.pose.t[None, [0, 2]])
            if len(inside):  # outside the grid it is dropped, as remap_patches drops it
                mp.cell = divmod(int(key[0]), state.v_g)
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
        except (ValueError, OverflowError) as e:  # huge extents overflow the coverage grid
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
    s.add_argument("--frames", type=int, default=1,
                   help="frames at the scene's camera pose, at least 1; --trajectory overrides it")
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
                   "the moment image and DtFP, t_seeds_s the seed walk and the normals it "
                   "solves, t_neighborhood_s the neighborhoods and fit draws, t_fit_s the "
                   "batched fits, t_gates_s the batched gates and the admissions, and "
                   "t_fit_validate_s the sum of those three")
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise _BadInput("--seed must be non-negative")
        return args.func(args)
    except _BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
