"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

The tracer and metric tests are fast; the smoke runs start the benchmark as
a subprocess for one op of each workload and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import layers
import reference
import run
from spans import Span, Target, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture
def fake_module():
    """A module whose outer() calls inner() twice through the module attribute."""
    mod = types.ModuleType("perfbench_fake_layer")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_a_nested_call(fake_module):
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]: self time 10 - 2 - 3
    targets = [Target("outer", ("perfbench_fake_layer:outer",)),
               Target("inner", ("perfbench_fake_layer:inner",))]
    with Tracer(targets, clock=_ticks(0.0, 1.0, 3.0, 4.0, 7.0, 10.0)) as tracer:
        tracer.op = 0
        assert fake_module.outer() == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert self_times(tracer.spans) == [5.0, 2.0, 3.0]
    agg = layers.aggregate(tracer, [0])
    assert agg[("op", "outer")].self_s == 5.0 and agg[("op", "inner")].calls == 2
    # uninstall restores the original functions
    assert fake_module.outer.__name__ == "outer" and not hasattr(fake_module.outer, "__wrapped__")


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, 0), Span("a", 1.0, 5.0, 0, 0), Span("b", 3.0, 6.0, 0, 0),
             Span("c", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_untraced_calls_record_nothing(fake_module):
    with Tracer([Target("outer", ("perfbench_fake_layer:outer",))]) as tracer:
        fake_module.outer()
    assert tracer.spans == []


def test_missing_and_uncalled_names_report_zero_calls(fake_module):
    targets = [Target("gone", ("perfbench_fake_layer:gone", "no_such_module_xyz:fn")),
               Target("inner", ("perfbench_fake_layer:inner",)),
               Target("count", ("perfbench_fake_layer:outer",), span=False)]
    with Tracer(targets) as tracer:
        tracer.op = 0
    assert tracer.missing == ["perfbench_fake_layer:gone", "no_such_module_xyz:fn"]
    agg = layers.aggregate(tracer, [0])
    assert agg == {}

    with Tracer(layers.TARGETS) as tracer:
        tracer.op = 0
    assert tracer.missing == []
    metrics = layers.per_layer(tracer, [0], d_max=0.01)
    assert metrics and all(v == 0.0 for v in metrics.values())


def test_per_layer_names_match_the_metric_table():
    with Tracer(layers.TARGETS) as tracer:
        pass
    got = set(layers.per_layer(tracer, [0], 0.01)) | {
        "fit.k_err_p50", "trace.ops", "trace.ops_per_s", "trace.untraced_ops_per_s",
        "trace.overhead",
    }
    assert got == {name for name, _, _ in layers.METRICS}


def test_op_ratio_uses_the_reference_blocks_around_the_op():
    loop = run._Loop()
    loop.durations, loop.refs = [4.0, 6.0], [[0.2], [0.5, 0.7], [0.4]]
    assert loop.ratios == pytest.approx([4.0 / 0.4, 6.0 / 0.5])


def test_reference_kernel_reuses_its_buffers():
    ref = reference.Reference()
    buffers = [ref.prods, ref.rows, ref.ii, ref.corner, ref.box, ref.parsed]
    before = [b.__array_interface__["data"][0] for b in buffers]
    first, second = ref._arrays(), ref._arrays()
    assert first == second and ref() > 0.0
    assert [b.__array_interface__["data"][0] for b in buffers] == before


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def _bench(*argv, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0][2:]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["rock_fits", "opc_files"])
def test_one_op_smoke_run(workload):
    report, result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1"))
    assert result["attempted"] == 1 and result["failed"] == 0 and result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert report["environment"]["nproc"] >= 1


def test_ramp_walk_smoke_is_deterministic_and_unperturbed_by_tracing():
    plain, plain_result = _result(
        _bench("--workload", "ramp_walk", "--seed", "4", "--seconds", "1", "--trace", "0"))
    traced, traced_result = _result(
        _bench("--workload", "ramp_walk", "--seed", "4", "--seconds", "1", "--trace", "1"))
    assert plain_result["correct"] and traced_result["correct"]
    assert set(traced_result["metrics"]) == {name for name, _, _ in layers.METRICS}
    assert traced_result["metrics"]["mapping.map_step.calls"]["value"] == 1.0
    assert plain["digest"] == traced["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "rock_fits", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
