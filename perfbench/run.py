"""Outside-in benchmark of the stencil_lab pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Runs from the root of a source checkout and imports the package from
``src/``. One caller drives the public API in a closed loop: each op starts
when the previous one returns, and CLI calls run as one subprocess at a
time. A run does fixed work, ``round(seconds * ops_per_second)`` ops, so
``wall_s`` compares like with like across commits.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each op
untraced and then again traced, and prints the per-layer metrics of the
traced ops and the tracing overhead. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment and, when traced, the
spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
TIME_LIMIT_S = 160  # a run must end within 180 s; setup probes follow the timed phase

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, one setup probe (the benchmark's own test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and its label;
    the maximum (p100) when a run has ten ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(tiny: bool, seed: int, probes: int) -> list[float]:
    """Fresh interpreters, each timed from spawn until it is ready: every
    stencil_lab module imported and the untimed input preparation done. The
    child reads the same system-wide monotonic clock. One uncounted probe
    first fills the bytecode and page caches."""
    code = (
        "import sys; sys.path[:0] = {paths!r}; import checks, workloads, tracing, time; "
        "ctx = workloads.Context({seed}, {tiny}, checks.Tally(), tracing.Tracer(False), None, None); "
        "workloads.prepare(ctx); print(repr(time.monotonic()))"
    ).format(paths=[str(HERE), str(SRC)], seed=seed, tiny=tiny)
    samples = []
    for _ in range(probes + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}: {proc.stderr[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples[1:]


def environment(args, tracer_on: bool) -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = {
                "size": (index / "size").read_text().strip(),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
        except OSError:
            continue
    cpu_model = ""
    try:
        cpu_model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "traced": tracer_on,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads_in_use": openblas_threads(),
        "blas_threads_note": "set before numpy is imported; CLI children and setup probes inherit it",
    }


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        paths = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines() if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """Identifies the program when the checkout is not a git repository."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "stencil_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_ops(wl, ctx, n_ops: int, deadline: float, instrument=None) -> dict:
    """The timed phase: n_ops ops back to back, one caller. With
    `instrument`, each op runs untraced and then again traced, back to
    back, so drift in machine speed hits both alike."""
    latencies, cpu, traced = [], [], []
    for i in range(n_ops):
        cpu0 = cpu_seconds()
        latencies.append(timed_op(wl, ctx, i))
        cpu.append(cpu_seconds() - cpu0)
        if instrument is not None:
            ctx.tracer.enabled = True
            with instrument(ctx.tracer):
                traced.append(timed_op(wl, ctx, i))
            ctx.tracer.enabled = False
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{wl.name}: past the run's time limit after {i + 1} of {n_ops} ops")
    return {"latencies": latencies, "cpu_s": sum(cpu), "traced": traced}


def timed_op(wl, ctx, i: int) -> float:
    ctx.tracer.op_id = i
    t0 = time.perf_counter()
    with ctx.tracer.span("op"):
        wl.op(ctx, i)
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (SRC / "stencil_lab" / "__init__.py").is_file():
        print(f"error: no stencil_lab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(HERE), str(SRC)]

    import checks
    import tracing
    import workloads

    import stencil_lab

    if Path(stencil_lab.__file__).resolve().parent != (SRC / "stencil_lab").resolve():
        print(f"error: imported stencil_lab from {stencil_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    n_ops = max(2, round(args.seconds * wl.ops_per_second))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tally = checks.Tally()
    tracer = tracing.Tracer(False)
    ctx = workloads.Context(args.seed, tiny, tally, tracer, workdir, ROOT)
    workloads.prepare(ctx)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        run = run_ops(wl, ctx, n_ops, deadline, tracing.instrument if args.trace else None)
        children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = run["latencies"]
    tail, tail_pct = percentile_tail(latencies)
    if args.trace:
        setup = []
        values = tracing.per_layer_metrics(tracer, tally, sum(run["traced"]), sum(latencies))
        units = tracing.PER_LAYER_UNITS
    else:
        setup = setup_seconds(tiny, args.seed, 1 if tiny else SETUP_PROBES)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "cpu_s": run["cpu_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_ratio": (tally.total_attempted - tally.total_failed) / tally.total_attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "environment": environment(args, bool(args.trace)),
        "ops": n_ops,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": 10 if len(latencies) > 10 else 0,
        "latencies_s": latencies,
        "setup_samples_s": setup,
        "children_peak_rss_mb": children_rss_kb * 1024 / 1e6,
        "metrics": values,
        "kernel_counts_note": "simulate.dense.computed_* and regression.design_bytes are computed from sizes, not measured",
        "checks": {"attempted": dict(tally.attempted), "failed": dict(tally.failed), "failures": tally.failures},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"ops {n_ops}; op_tail_s is p{tail_pct:.1f} of the untraced ops; checked calls {tally.total_attempted}, "
          f"failed {tally.total_failed} {dict(tally.failed)}; children peak RSS {record['children_peak_rss_mb']:.1f} MB")
    print(json.dumps({
        "correct": tally.invariants_hold,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
