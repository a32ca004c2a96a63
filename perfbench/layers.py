"""Which patchscape functions the traced run wraps, and the per-layer metrics.

Each target lists the module attributes its callers look it up through:
map_step finds fit_patch, residual and friends in patchscape.mapping's
namespace, the CLI finds its own imports in patchscape.cli's, and modules
reach pose functions through ``patchscape.pose``. Metrics over timed ops are
per op ("/op" units) so that runs with different op counts compare; the
set-up layers (sample_scene, write_cloud) are totals over set-up.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from spans import Target, Tracer, self_times

SETUP = "setup"  # op id of the spans recorded while inputs are generated

DROP_REASONS = (
    "cell_full", "too_few_points", "fit_failed", "curvature", "residual", "coverage", "budget",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(args, kwargs, result=None):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _both(attr):
    return (f"patchscape.mapping:{attr}", f"patchscape.cli:{attr}")


TARGETS = (
    Target("sensor.sample_scene", ("patchscape.sensor:sample_scene",)),
    Target("mapping.median_decimate", ("patchscape.mapping:median_decimate",)),
    Target(
        "mapping.integral_normals", ("patchscape.mapping:integral_normals",),
        after=lambda a, k, r: {"px": int(r[0].shape[0] * r[0].shape[1])},
    ),
    Target(
        "mapping.saliency_filter", ("patchscape.mapping:saliency_filter",),
        after=lambda a, k, r: {"salient_px": int(r.sum())},
    ),
    Target(
        "mapping.select_seeds", ("patchscape.mapping:select_seeds",),
        after=lambda a, k, r: {"seeds": len(r)},
    ),
    Target("mapping.neighborhood", _both("neighborhood"),
           after=lambda a, k, r: {"pts": len(r.points)}),
    Target(
        "mapping.volume_update", ("patchscape.mapping:volume_update",),
        after=lambda a, k, r: {"remaps": int(r[1] is not None)},
    ),
    Target(
        "mapping.remap_patches", ("patchscape.mapping:remap_patches",),
        before=lambda a, k: {"patches_in": len(_arg(a, k, 0, "state").patches)},
        after=lambda a, k, r: {"patches_out": len(r.patches)},
    ),
    Target(
        "mapping.map_step", _both("map_step"),
        after=lambda a, k, r: {
            "seeds": r.n_seeds, "admitted": len(r.admitted), "drops": dict(r.drops),
        },
    ),
    Target(
        "fit.fit_patch", _both("fit_patch"),
        after=lambda a, k, r: {
            "pts": len(_arg(a, k, 0, "points")), "converged": bool(r.converged),
        },
    ),
    Target("fit.wlm_minimize", ("patchscape.fit:wlm_minimize",),
           after=lambda a, k, r: {"iterations": r.iterations}),
    Target(
        "validate.residual", _both("residual"),
        after=lambda a, k, r: {"pts": len(_arg(a, k, 1, "points")), "value": float(r)},
    ),
    Target("validate.closest_point_exact", ("patchscape.validate:closest_point_exact",),
           span=False),
    Target(
        "validate.coverage_eval", _both("coverage_eval"),
        after=lambda a, k, r: {"cells": r.shape[0] * r.shape[1], "passed": bool(r.passed)},
    ),
    Target("validate.curvature_gate", _both("curvature_gate"),
           after=lambda a, k, r: {"passed": bool(r)}),
    Target("patch.transform_patch", _both("transform_patch")),
    Target("patch.projected_area", ("patchscape.mapping:projected_area",)),
    Target("pose.compose_chain", ("patchscape.pose:compose_chain",)),
    Target("pose.log_map", ("patchscape.pose:log_map",)),
    Target("pose.exp_map", ("patchscape.pose:exp_map",)),
    Target("cli.read_cloud", ("patchscape.cli:read_cloud",), after=_file_bytes),
    Target("cli.write_cloud", ("patchscape.cli:write_cloud",), after=_file_bytes),
    Target("cli.write_patch_map", ("patchscape.cli:write_patch_map",)),
    Target("cli.cmd_map", ("patchscape.cli:cmd_map",)),
    Target("cli.cmd_validate", ("patchscape.cli:cmd_validate",)),
)

_SETUP_LAYERS = ("sensor.sample_scene", "cli.write_cloud")
_OP_LAYERS = tuple(t.name for t in TARGETS if t.span and t.name not in _SETUP_LAYERS)

# (name, unit, better) of every per-layer metric the traced run reports
METRICS = (
    [(f"{n}.calls", "1/op", "lower") for n in _OP_LAYERS]
    + [(f"{n}.s", "s/op", "lower") for n in _OP_LAYERS]
    + [(f"{n}.calls", "count", "lower") for n in _SETUP_LAYERS]
    + [(f"{n}.s", "s", "lower") for n in _SETUP_LAYERS]
    + [(f"mapping.drops.{r}", "1/op", "lower") for r in DROP_REASONS]
    + [
        ("mapping.integral_normals.px", "px/op", "lower"),
        ("mapping.saliency_filter.salient_px", "px/op", "lower"),
        ("mapping.select_seeds.seeds", "1/op", "higher"),
        ("mapping.neighborhood.pts_p50", "pts", "lower"),
        ("mapping.volume_update.remaps", "1/op", "lower"),
        ("mapping.remap_patches.patches_in", "1/op", "higher"),
        ("mapping.remap_patches.patches_out", "1/op", "higher"),
        ("mapping.map_step.self_s", "s/op", "lower"),
        ("mapping.map_step.admitted", "1/op", "higher"),
        ("mapping.map_step.seed_yield", "ratio", "higher"),
        ("mapping.map_step.residual_normals_share", "ratio", "lower"),
        ("fit.fit_patch.pts_p50", "pts", "lower"),
        ("fit.fit_patch.converged_ratio", "ratio", "higher"),
        ("fit.wlm_minimize.iterations", "1/call", "lower"),
        ("fit.k_err_p50", "1/m", "lower"),
        ("validate.residual.pts", "pts/op", "lower"),
        ("validate.residual.us_per_pt", "us", "lower"),
        ("validate.residual.pass_ratio", "ratio", "higher"),
        ("validate.closest_point_exact.calls", "1/op", "lower"),
        ("validate.coverage_eval.cells", "1/op", "lower"),
        ("validate.coverage_eval.pass_ratio", "ratio", "higher"),
        ("validate.curvature_gate.pass_ratio", "ratio", "higher"),
        ("cli.read_cloud.mb_per_s", "MiB/s", "higher"),
        ("cli.write_cloud.mb_per_s", "MiB/s", "higher"),
        ("trace.ops", "count", "higher"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class _Layer:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.attrs: List[dict] = []

    def total(self, key) -> float:
        return sum(a[key] for a in self.attrs if key in a)

    def values(self, key) -> list:
        return [a[key] for a in self.attrs if key in a]


def aggregate(tracer: Tracer, op_ids: Sequence) -> Dict[tuple, _Layer]:
    """Sum spans and counts by (phase, name); phase is "op" or SETUP."""
    timed = set(op_ids)
    out: Dict[tuple, _Layer] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        phase = "op" if span.op in timed else SETUP if span.op == SETUP else None
        if phase is None:
            continue
        layer = out.setdefault((phase, span.name), _Layer())
        layer.calls += 1
        layer.s += span.end - span.start
        layer.self_s += self_s
        layer.attrs.append(span.attrs)
    for (name, op), n in tracer.counts.items():
        if op in timed:
            out.setdefault(("op", name), _Layer()).calls += n
    return out


def per_layer(tracer: Tracer, op_ids: Sequence, d_max: float) -> Dict[str, float]:
    """Every METRICS value except fit.k_err_p50 and the trace.* figures.

    A layer with no calls reads 0 throughout, ratios included.
    """
    agg = aggregate(tracer, op_ids)
    n = max(len(op_ids), 1)

    def op(name) -> _Layer:
        return agg.get(("op", name), _Layer())

    def setup(name) -> _Layer:
        return agg.get((SETUP, name), _Layer())

    m: Dict[str, float] = {}
    for name in _OP_LAYERS:
        m[f"{name}.calls"] = op(name).calls / n
        m[f"{name}.s"] = op(name).s / n
    for name in _SETUP_LAYERS:
        m[f"{name}.calls"] = setup(name).calls
        m[f"{name}.s"] = setup(name).s
    step = op("mapping.map_step")
    for reason in DROP_REASONS:
        m[f"mapping.drops.{reason}"] = sum(d.get(reason, 0) for d in step.values("drops")) / n
    fit, res = op("fit.fit_patch"), op("validate.residual")
    cov, gate = op("validate.coverage_eval"), op("validate.curvature_gate")
    remap = op("mapping.remap_patches")
    m.update({
        "mapping.integral_normals.px": op("mapping.integral_normals").total("px") / n,
        "mapping.saliency_filter.salient_px": op("mapping.saliency_filter").total("salient_px") / n,
        "mapping.select_seeds.seeds": op("mapping.select_seeds").total("seeds") / n,
        "mapping.neighborhood.pts_p50": _p50(op("mapping.neighborhood").values("pts")),
        "mapping.volume_update.remaps": op("mapping.volume_update").total("remaps") / n,
        "mapping.remap_patches.patches_in": remap.total("patches_in") / n,
        "mapping.remap_patches.patches_out": remap.total("patches_out") / n,
        "mapping.map_step.self_s": step.self_s / n,
        "mapping.map_step.admitted": step.total("admitted") / n,
        "mapping.map_step.seed_yield": _ratio(step.total("admitted"), step.total("seeds")),
        "mapping.map_step.residual_normals_share": _ratio(
            res.self_s + op("mapping.integral_normals").self_s, step.s
        ),
        "fit.fit_patch.pts_p50": _p50(fit.values("pts")),
        "fit.fit_patch.converged_ratio": _ratio(sum(fit.values("converged")), fit.calls),
        "fit.wlm_minimize.iterations": _ratio(
            op("fit.wlm_minimize").total("iterations"), op("fit.wlm_minimize").calls
        ),
        "validate.residual.pts": res.total("pts") / n,
        "validate.residual.us_per_pt": 1e6 * _ratio(res.s, res.total("pts")),
        "validate.residual.pass_ratio": _ratio(
            sum(v <= d_max for v in res.values("value")), res.calls
        ),
        "validate.closest_point_exact.calls": op("validate.closest_point_exact").calls / n,
        "validate.coverage_eval.cells": cov.total("cells") / n,
        "validate.coverage_eval.pass_ratio": _ratio(sum(cov.values("passed")), cov.calls),
        "validate.curvature_gate.pass_ratio": _ratio(sum(gate.values("passed")), gate.calls),
        "cli.read_cloud.mb_per_s": _ratio(
            op("cli.read_cloud").total("bytes") / 2**20, op("cli.read_cloud").s
        ),
        "cli.write_cloud.mb_per_s": _ratio(
            setup("cli.write_cloud").total("bytes") / 2**20, setup("cli.write_cloud").s
        ),
    })
    return {k: float(v) for k, v in m.items()}
