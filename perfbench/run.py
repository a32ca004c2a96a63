"""Per-frame mapping benchmark for patchscape.

    python3 perfbench/run.py --workload rock_fits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere in a checkout; it imports patchscape from the checkout's
src/ and exits 2 without a result when that is missing. One process, pinned
to one CPU, with OpenBLAS/OpenMP threads capped at one. Set-up renders the
workload's inputs from --seed and runs one untimed warm-up op; then ops run
until the next one would end past --seconds, each followed by passes of a
fixed reference kernel (reference.py) whose mean time is the run's unit of
time, "ref". The last stdout line is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
op times in refs; with --trace 1 every op runs twice on
identical inputs, wrapped and unwrapped, and the metrics are per layer,
plus tracing overhead. The lines before it give the environment, the
sample counts and every metric with its unit. See perfbench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import List  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("ramp_walk", "rock_fits", "opc_files")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REF_SHARE = 0.2  # reference kernel time after each op, as a share of the op's time

# (name, unit) of the end-to-end metrics the untraced run reports last
END_TO_END = (
    ("op_ref.p50", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _pin_and_cap_threads() -> tuple:
    """Pin the process to one CPU and cap native thread pools at one thread.

    The CPUs of a shared virtual machine differ in speed from moment to
    moment; a process the scheduler moves between them runs its ops at a
    speed that depends on where they landed. Pinned, an op and the
    reference kernel timed around it share a CPU. patchscape's work runs on
    one thread either way: eigh on 3x3 matrices does not use BLAS threads.
    Returns (usable CPUs, the CPU pinned to); must precede numpy's import.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(cpus), cpus[0]


def _environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _percentile(values, p):
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def _tail(durations) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(durations)
    best = {}
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = {f"op_s.p{p:g}": _percentile(durations, p)}
    return best


def _run_op(wl, state, i):
    """Time one op, then check it outside the timed region.

    Returns (seconds, OpOutput or None, error or None). An op that raises
    or fails a check is a failed op; nothing is retried.
    """
    t0 = time.perf_counter()
    try:
        raw = wl.op(state, i)
    except Exception as e:  # a failing op is measured and counted, not fatal
        return time.perf_counter() - t0, None, f"op {i} raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    try:
        out = wl.inspect(raw)
    except Exception as e:
        return dt, None, f"op {i} output unreadable: {type(e).__name__}: {e}"
    return dt, out, ("; ".join(f"op {i}: {m}" for m in out.errors) or None)


class _Loop:
    """Op results of the timed loop, plus the untraced twins in a traced run.

    An untraced run times a block of reference kernel passes, REF_SHARE of
    an op's time long, before the first op and after each op: refs[i] is
    the block before op i, refs[i + 1] the one after it.
    """

    def __init__(self):
        self.durations, self.outputs, self.errors = [], [], []
        self.twin_durations = []
        self.refs = []

    @property
    def ratios(self) -> List[float]:
        """Each op's time in refs: over the mean pass time of the blocks around it."""
        means = [statistics.fmean(block) for block in self.refs]
        return [d / (0.5 * (a + b)) for d, a, b in zip(self.durations, means, means[1:])]

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def _ref_block(reference, seconds: float) -> List[float]:
    passes = [reference()]
    while sum(passes) < seconds:
        passes.append(reference())
    return passes


def _measure(wl, seconds, tracer, reference=None, op_s_hint=0.0) -> _Loop:
    """Time ops until the next would end past the deadline.

    With a reference kernel, op_s_hint (the warm-up op's time) sizes the
    block of passes timed before the first op.
    """
    loop = _Loop()
    state = wl.new_state()
    twin = wl.new_state() if tracer is not None else None
    deadline = time.perf_counter() + seconds
    if reference is not None:
        loop.refs.append(_ref_block(reference, REF_SHARE * op_s_hint))
    i = 0
    while True:
        if tracer is None:
            dt, out, err = _run_op(wl, state, i)
            if reference is not None:
                loop.refs.append(_ref_block(reference, REF_SHARE * dt))
        else:
            # the traced and untraced copies take turns going first
            runs = {}
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                tracer.op = i if traced else None
                runs[traced] = _run_op(wl, state if traced else twin, i)
                tracer.op = None
            dt, out, err = runs[True]
            twin_dt, twin_out, twin_err = runs[False]
            loop.twin_durations.append(twin_dt)
            err = err or twin_err
            if err is None and out.digest != twin_out.digest:
                err = f"op {i}: tracing changed the admitted set"
        loop.durations.append(dt)
        loop.outputs.append(out)
        loop.errors.append(err)
        i += 1
        after = loop.twin_durations or [sum(b) for b in loop.refs[1:]] or [0.0] * len(loop.durations)
        spent = [a + b for a, b in zip(loop.durations, after)]
        if time.perf_counter() + statistics.median(spent) > deadline:
            return loop


def _digest(outputs) -> str:
    h = hashlib.sha256(repr([o.digest if o else None for o in outputs]).encode())
    return h.hexdigest()[:16]


def _quality(loop) -> dict:
    outs = [o for o in loop.outputs if o is not None]
    seeds = sum(o.seeds for o in outs)
    admitted = sum(o.admitted for o in outs)
    k_errs = [e for o in outs for e in o.k_errs]
    return {
        "seeds": seeds,
        "admitted": admitted,
        "seed_yield": admitted / seeds if seeds else 0.0,
        "k_err_p50": statistics.median(k_errs) if k_errs else 0.0,
    }


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")


def run_one(args) -> int:
    nproc, cpu = _pin_and_cap_threads()
    if not os.path.isfile(os.path.join(SRC, "patchscape", "__init__.py")):
        print(f"perfbench: no patchscape sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import patchscape

    if not os.path.abspath(patchscape.__file__).startswith(SRC + os.sep):
        print(f"perfbench: patchscape imported from {patchscape.__file__}", file=sys.stderr)
        return 2
    import layers
    import reference
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer(layers.TARGETS) if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if tracer is not None:
            tracer.install()
            tracer.op = layers.SETUP
        try:
            wl.setup()
            if tracer is not None:
                tracer.op = None
            # warm-up op: lazy imports, allocator, caches. Unchecked, so that
            # set-up does not depend on whether opc_files' map needs validating
            t0 = time.perf_counter()
            try:
                wl.op(wl.new_state(), 0)
            except Exception:
                pass  # the timed ops fail the same way, and count it
            warm_s = time.perf_counter() - t0
            setup_s = time.perf_counter() - _T_START
            ref = None
            if tracer is None:
                ref = reference.Reference()
                ref()  # warm-up, outside set-up: the kernel is the benchmark's
            loop = _measure(wl, args.seconds, tracer, ref, warm_s)
        finally:
            if tracer is not None:
                tracer.uninstall()

    n = len(loop.durations)
    ok = n - loop.failed
    busy = sum(loop.durations)
    quality = _quality(loop)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(nproc, cpu),
        "samples": {"ops": n, "ok": ok, "failed": loop.failed, **quality,
                    "op_s": [round(d, 4) for d in loop.durations],
                    "ref_s": [[round(r, 4) for r in after_op] for after_op in loop.refs]},
        "digest": _digest(loop.outputs),
        "failures": [e for e in loop.errors if e][:5],
    }
    if tracer is None:
        ratios = loop.ratios
        metrics = {
            "op_ref.p50": statistics.median(ratios),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / n,
        }
        # figures a user sees that vary too much between seeds to bound
        tail = _tail(loop.durations)
        extra = {
            "op_s.p50": statistics.median(loop.durations),
            "ops_per_s": ok / busy,
            "ops_per_ref": ok / sum(ratios),
            "ref_s.mean": statistics.fmean(p for block in loop.refs for p in block),
            "patches_per_s": quality["admitted"] / busy,
            "seed_yield": quality["seed_yield"],
            "k_err_p50": quality["k_err_p50"],
            "failed_frac": loop.failed / n,
            **tail,
        }
        units = {**dict(END_TO_END), "op_s.p50": "s", "ops_per_s": "1/s", "ops_per_ref": "1/ref", "ref_s.mean": "s",
                 "patches_per_s": "1/s", "seed_yield": "ratio",
                 "k_err_p50": "1/m", "failed_frac": "ratio", **dict.fromkeys(tail, "s")}
    else:
        op_ids = list(range(n))
        metrics = layers.per_layer(tracer, op_ids, wl.config.d_max)
        traced_s, untraced_s = sum(loop.durations), sum(loop.twin_durations)
        metrics.update({
            "fit.k_err_p50": quality["k_err_p50"],
            "trace.ops": n,
            "trace.ops_per_s": n / traced_s,
            "trace.untraced_ops_per_s": n / untraced_s,
            "trace.overhead": traced_s / untraced_s - 1.0,
        })
        units = {name: unit for name, unit, _ in layers.METRICS}
        extra = {}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        tracer.write_jsonl(spans_path)
        report.update({"spans": len(tracer.spans), "spans_file": spans_path,
                       "missing_targets": tracer.missing, "hook_errors": tracer.hook_errors})

    print(f"# {json.dumps(report)}")
    print(f"# {args.workload}: {n} ops (p50 over {n} samples), {loop.failed} failed")
    _print_metrics({**metrics, **extra}, units)
    result = {
        "correct": loop.failed == 0,
        "attempted": n,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload != "all":
        return run_one(args)
    # one process per workload, so set-up and peak memory stay separate
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
