"""wavetomo benchmark: seeded workloads timed end to end with tracing off,
and per-layer metrics from a separate traced run.

    python3 benchmarks/run.py --workload recon_full_2d --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is the
result, {"correct", "attempted", "failed", "metrics"}; the line before it is
a detail record ({"detail": ...}) with the environment, the raw samples, the
check outcomes and, for a traced run, the ROADMAP aim-1 numbers.  Traced runs
also write their spans to .bench_out/.  See benchmarks/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# one BLAS thread keeps runs steady and never exceeds nproc
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("data_fit", "ratio"),
    ("recon_err", "ratio"),
    ("field_err", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def tail(samples):
    """(value, percentile, count): the highest percentile of the samples with
    at least 10 samples beyond it, or the maximum when there are fewer than 11."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * k / (n - 1), n


def git_commit():
    # the ceiling keeps git from finding a repository above a bare checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def measure(workload, inputs, seconds):
    """Repeat the timed solve until ``seconds`` have passed, at least once."""
    solves = []
    start = time.perf_counter()
    while not solves or time.perf_counter() - start < seconds:
        solves.append(workload.solve(inputs))
    return solves


def iterations(ops):
    return sum(len(getattr(op.result, "iter_seconds", ())) for op in ops)


def run_plain(workload, cfg, seconds, workdir):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        inputs = workload.setup(cfg, workdir)
        setup_s.append(time.perf_counter() - tic)
    solves = measure(workload, inputs, seconds)
    failed, quality, extra = workload.check(inputs, solves)
    samples = [s for _, ops in solves for s in workload.iter_seconds(ops)]
    tail_s, tail_pct, n = tail(samples) if samples else (math.nan, math.nan, 0)
    values = {
        "setup_s": statistics.median(setup_s),
        "solve_s": statistics.median(wall for wall, _ in solves),
        "iter_ms_p50": 1e3 * statistics.median(samples) if samples else math.nan,
        "iter_ms_tail": 1e3 * tail_s,
        **quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s_samples": setup_s,
        "solve_s_samples": [wall for wall, _ in solves],
        "iter_ms_tail_percentile": tail_pct,
        "iter_samples": n,
        "checks": extra,
    }
    attempted = sum(len(ops) for _, ops in solves)
    return values, END_TO_END, attempted, failed, detail


def run_traced(workload, cfg, workdir, seed):
    from layers import METRICS, install, layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    tracer.run = "setup"
    try:
        inputs = workload.setup(cfg, workdir)
    finally:
        tracer.restore()
    untraced = workload.solve(inputs)
    install(tracer)
    try:
        tracer.run = "solve"
        traced = workload.solve(inputs)
        tracer.run = "check"
        failed, quality, extra = workload.check(inputs, [untraced, traced])
    finally:
        tracer.restore()
    tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")

    grid = inputs.grid
    info = {
        "iterations": iterations(traced[1]),
        "n_tx": getattr(getattr(inputs, "mset", None), "n_tx", 1),
        "grid_shape": grid.shape,
        "measurement_bytes": inputs.measurement_bytes,
        "analytic_warnings": extra["analytic_warnings"],
        "solve_s": untraced[0],
        "traced_solve_s": traced[0],
    }
    values = layer_metrics(tracer.spans, info)
    refine = cfg.get("generation", {}).get("grid_refine")
    aim1 = {
        "solve_grid": "x".join(map(str, grid.shape)),
        "generation_grid": "x".join(str(n * refine) for n in grid.shape) if refine else None,
        "G_apply_ms": values["greens.G.apply_ms"],
        "generation_G_apply_ms": values["greens.G.gen_apply_ms"],
        "G_applies_per_transmitter_gradient": values["adjoint.G_applies_per_gradient"],
        "G_applies_per_gradient_iteration": values["adjoint.G_applies_per_iter"],
        "fista_iteration_s": {
            "forward": values["recon.iter_forward_s"],
            "backward": values["recon.iter_backward_s"],
            "tv_prox": values["recon.iter_tv_s"],
            "monitoring": values["recon.iter_monitor_s"],
        },
        "solve_s": untraced[0],
        **quality,
    }
    detail = {"checks": extra, "aim1": aim1,
              "spans_file": f".bench_out/spans-{workload.name}-seed{seed}.json"}
    attempted = len(untraced[1]) + len(traced[1])
    return values, METRICS, attempted, failed, detail


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "wavetomo" / "__init__.py").is_file():
        print(f"wavetomo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cfg = workload.config(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            values, names, attempted, failed, detail = run_traced(
                workload, cfg, workdir, args.seed)
        else:
            values, names, attempted, failed, detail = run_plain(
                workload, cfg, args.seconds, workdir)

    metrics = {}
    for name, unit in names:
        v = float(values[name])
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": unit}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, config=cfg, environment=environment(),
                  attempted=attempted, failed=failed, failed_frac=failed / attempted)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
