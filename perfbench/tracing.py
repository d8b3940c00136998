"""Spans recorded by the benchmark around each call into a layer of
``stencil_lab``, and the per-layer metrics derived from them.

Nothing here changes the program: while an op is traced, the public
functions the benchmark and the presets call are swapped for wrappers that
open a span and count the work done. Spans stay in memory and are written
out when the run ends. A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import contextlib
import time

SOLVERS = ("pg", "nag", "admm", "ref")
ENGINES = ("dense", "spectral")
ANALYSES = ("symbol", "max_wave_speed", "cn_dispersion", "modal_energies")
PRESETS = ("table1", "convergence", "energy", "dispersion", "nonstandard", "noisy", "solver_bench")
CLI_COMMANDS = ("gen-data", "learn", "simulate", "dispersion")

_METHOD_KEY = {"PG": "pg", "NAG": "nag", "ADMM": "admm", "REF": "ref", "REFERENCE": "ref"}


def _per_layer_units() -> dict[str, str]:
    units = {
        "training.busy_s": "s", "training.calls": "count", "training.samples": "count",
        "regression.assemble.busy_s": "s", "regression.rows": "count",
        "regression.design_bytes": "B", "regression.lipschitz.busy_s": "s",
    }
    for m in SOLVERS:
        units.update({f"solvers.{m}.busy_s": "s", f"solvers.{m}.calls": "count", f"solvers.{m}.iters": "count",
                      f"solvers.{m}.at_cap": "count", f"solvers.{m}.errors": "count", f"solvers.{m}.ok_ratio": "1"})
    for e in ENGINES:
        units.update({f"simulate.{e}.busy_s": "s", f"simulate.{e}.calls": "count",
                      f"simulate.{e}.steps": "count", f"simulate.{e}.us_per_step": "us"})
    units.update({"simulate.dense.computed_flops": "flop", "simulate.dense.computed_bytes": "B"})
    units.update({f"analysis.{a}.busy_s": "s" for a in ANALYSES})
    units.update({f"experiments.{p}.busy_s": "s" for p in PRESETS})
    units["experiments.bytes_written"] = "B"
    units["cli.cold_start_s"] = "s"
    units.update({f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS})
    units["cli.errors"] = "count"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    """Spans as (name, start, end, parent index, op id) plus named counters.
    A disabled tracer records nothing and costs one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in self.spans]


def _traced(tracer: Tracer, fn, name_of, after=None):
    def wrapper(*args, **kwargs):
        name = name_of(*args, **kwargs)
        tracer.count(f"{name}.calls")
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(f"{name}.errors")
                raise
        if after is not None:
            after(name, result, *args, **kwargs)
        return result

    return wrapper


def _patch_targets(tracer: Tracer):
    from stencil_lab import analysis, experiments, regression, simulate, solvers, training

    def after_training(name, ts, cfg, *args, **kwargs):
        tracer.count("training.samples", cfg.n_sims)

    def after_assemble(name, system, *args, **kwargs):
        rows, cols = system.A.shape
        tracer.count("regression.rows", rows)
        tracer.peak("regression.design_bytes", rows * cols * 8)

    def after_solve(name, report, method, system, cs, opts=None):
        tracer.count(f"{name}.iters", report.iterations)
        key = method.upper()
        if key in ("PG", "NAG", "ADMM"):
            cap = (opts if opts is not None else solvers.SolverOptions()).resolve_max_iters(key)
            tracer.count(f"{name}.at_cap", int(report.iterations >= cap))

    def after_simulate(name, result, init, cfg, *args, **kwargs):
        tracer.count(f"{name}.steps", cfg.n_steps)
        if name == "simulate.dense":
            tracer.peak("simulate.dense.max_N", cfg.grid.N)

    def engine_of(init, cfg, snapshot_every=None, engine="dense"):
        return f"simulate.{engine}"

    training_name = lambda *a, **k: "training.generate"
    assemble_name = lambda *a, **k: "regression.assemble"
    solve_name = lambda method, *a, **k: f"solvers.{_METHOD_KEY.get(method.upper(), method.lower())}"
    targets = [
        ((training, experiments), "generate_training_set", training_name, after_training),
        ((training, experiments), "generate_operator_training_set", training_name, after_training),
        ((regression, experiments), "assemble_regression", assemble_name, after_assemble),
        ((solvers,), "lipschitz_estimate", lambda *a, **k: "regression.lipschitz", None),
        ((solvers, experiments), "solve", solve_name, after_solve),
        ((simulate, experiments, analysis), "simulate", engine_of, after_simulate),
    ]
    for fn_name in ANALYSES:
        targets.append(((analysis, experiments), fn_name, (lambda n: lambda *a, **k: f"analysis.{n}")(fn_name), None))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap the layers' public functions for traced wrappers, then restore."""
    saved = []
    try:
        for modules, attr, name_of, after in _patch_targets(tracer):
            for module in modules:
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _traced(tracer, original, name_of, after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def per_layer_metrics(tracer: Tracer, tally, trace_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload does not use the layer."""
    busy = tracer.self_times()
    c = tracer.counters
    m: dict[str, float] = {
        "training.busy_s": busy.get("training.generate", 0.0),
        "training.calls": c.get("training.generate.calls", 0),
        "training.samples": c.get("training.samples", 0),
        "regression.assemble.busy_s": busy.get("regression.assemble", 0.0),
        "regression.rows": c.get("regression.rows", 0),
        "regression.design_bytes": c.get("regression.design_bytes", 0),
        "regression.lipschitz.busy_s": busy.get("regression.lipschitz", 0.0),
    }
    for s in SOLVERS:
        name = f"solvers.{s}"
        m.update({
            f"{name}.busy_s": busy.get(name, 0.0),
            f"{name}.calls": c.get(f"{name}.calls", 0),
            f"{name}.iters": c.get(f"{name}.iters", 0),
            f"{name}.at_cap": c.get(f"{name}.at_cap", 0),
            f"{name}.errors": c.get(f"{name}.errors", 0),
            f"{name}.ok_ratio": tally.ok_ratio(name),
        })
    for e in ENGINES:
        name = f"simulate.{e}"
        steps = c.get(f"{name}.steps", 0)
        m.update({
            f"{name}.busy_s": busy.get(name, 0.0),
            f"{name}.calls": c.get(f"{name}.calls", 0),
            f"{name}.steps": steps,
            f"{name}.us_per_step": 1e6 * busy.get(name, 0.0) / steps if steps else 0.0,
        })
    m.update(dense_kernel_counts(int(c.get("simulate.dense.max_N", 0))))
    m.update({f"analysis.{a}.busy_s": busy.get(f"analysis.{a}", 0.0) for a in ANALYSES})
    m.update({f"experiments.{p}.busy_s": busy.get(f"experiments.{p}", 0.0) for p in PRESETS})
    m["experiments.bytes_written"] = c.get("experiments.bytes_written", 0)
    help_runs = sorted(tracer.durations("cli.help"))
    m["cli.cold_start_s"] = help_runs[len(help_runs) // 2] if help_runs else 0.0
    m.update({f"cli.{cmd}.wall_s": sum(tracer.durations(f"cli.{cmd}")) for cmd in CLI_COMMANDS})
    m["cli.errors"] = c.get("cli.errors", 0)
    m["trace.wall_s"] = trace_wall_s
    m["trace.overhead_s"] = trace_wall_s - untraced_wall_s
    return m


def dense_kernel_counts(N: int) -> dict[str, float]:
    """Computed, not measured: one dense CN step on the 2N x 2N system is a
    matvec with (I + dt/2 B) plus forward and back substitution with the LU
    factors, each 2 (2N)^2 flops, reading two (2N)^2 float64 matrices."""
    n2 = (2 * N) ** 2
    return {
        "simulate.dense.computed_flops": 4 * n2,
        "simulate.dense.computed_bytes": 2 * n2 * 8 + 3 * 2 * N * 8,
    }
