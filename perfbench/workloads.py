"""The four workloads. Each op of a workload has the same composition, and
every output an op produces is checked (see checks.py). Inputs come from
the run's seed: op ``i`` of a run with seed ``s`` draws from
``np.random.default_rng([s, i])`` or trains on seed ``s * 1_000_003 + i``.

Every call into ``stencil_lab`` goes through a module attribute (for
example ``training.generate_training_set``) so that a traced run sees it.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

# every module, cli included, so that setup_s covers importing the whole package
from stencil_lab import analysis, cli, core, experiments, regression, simulate, solvers, training  # noqa: F401

import checks
import tracing

DEFAULT_N = 64


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


@dataclass
class Context:
    """What an op needs besides its index: the run's seed and size, the
    tally of checked calls, the tracer, and a scratch directory."""

    seed: int
    tiny: bool
    tally: checks.Tally
    tracer: tracing.Tracer
    workdir: Path | None
    root: Path | None


def check_default_data(ctx: Context) -> None:
    """Output stability: the package default training set is byte-identical."""
    ts = training.generate_training_set(experiments.default_training_config(seed=experiments.DEFAULT_SEED))
    checks.check_sha256(ctx.tally, "training.default_sha256", checks.training_sha256(ts), checks.DEFAULT_DATA_SHA256)


def _solve_and_check(ctx: Context, system, R: int, methods) -> None:
    w_star = checks.oracle_solution(system)
    constraints = regression.build_skew_constraints(R)
    for method in methods:
        try:
            report = solvers.solve(method, system, constraints)
        except core.NumericalError as exc:
            checks.check_solve(ctx.tally, method, w_star, None, str(exc))
        else:
            checks.check_solve(ctx.tally, method, w_star, report.w_final, None)


# learn-large: training and regression at a fine grid -------------------------

def learn_large_op(ctx: Context, i: int) -> None:
    N, n_sims = (256, 4) if ctx.tiny else (4096, 64)
    grid = core.Grid1D(N=N)
    ts = training.generate_training_set(
        training.TrainingConfig(n_sims=n_sims, m_max=5, grid=grid, seed=op_seed(ctx.seed, i)))
    box = 100.0 * N / DEFAULT_N  # the convergence preset widens the box like this
    for R in (1, 3):
        system = regression.assemble_regression(ts, R=R, M=box)
        _solve_and_check(ctx, system, R, ("admm", "ref"))


# solve-sweep: every solver at every radius on default-size data ---------------

def solve_sweep_op(ctx: Context, i: int) -> None:
    n_sims = 20 if ctx.tiny else 200
    cfg = training.TrainingConfig(n_sims=n_sims, m_max=5, grid=core.Grid1D(N=DEFAULT_N), seed=op_seed(ctx.seed, i))
    ts = training.generate_training_set(cfg)
    for R in (1, 2, 3, 4):
        system = regression.assemble_regression(ts, R=R)
        _solve_and_check(ctx, system, R, ("pg", "nag", "admm", "ref"))


# cn-long: both Crank-Nicolson engines and the diagnostics --------------------

def _random_fields(rng: np.random.Generator, N: int) -> core.FieldPair:
    return core.FieldPair(E=rng.standard_normal(N), H=rng.standard_normal(N))


def _check_analysis(ctx: Context, stencil, dt: float, grid, init, final) -> None:
    problems = []
    thetas = 2.0 * np.pi * np.arange(1, grid.N // 2 + 1) / grid.N
    mu = analysis.symbol(stencil, thetas).values
    scale = float(np.max(np.abs(mu)))
    if np.max(np.abs(mu.real)) > 1e-12 * scale:
        problems.append("skew symbol has a real part")
    c_max = analysis.max_wave_speed(stencil)
    if not scale * (1 - 1e-12) <= c_max <= np.sum(np.abs(stencil.w)) * (1 + 1e-12):
        problems.append(f"c_max {c_max:.6g} outside [max|mu| {scale:.6g}, sum|w|]")
    amp = analysis.cn_dispersion(stencil, dt, thetas).amplification
    if np.max(np.abs(amp - 1.0)) > 1e-12:
        problems.append(f"CN amplification off 1 by {np.max(np.abs(amp - 1.0)):.3g}")
    before = analysis.modal_energies(init, grid)
    after = analysis.modal_energies(final, grid)
    total = core.discrete_energy(init, grid)
    if abs(before.sum() - total) > 1e-12 * total:
        problems.append("modal energies do not sum to the discrete energy")
    if np.max(np.abs(after - before)) > checks.ENERGY_DRIFT_TOL * total:
        problems.append(f"modal energy changed by {np.max(np.abs(after - before)) / total:.3g} of the total")
    ctx.tally.record("analysis", problems)


def cn_long_op(ctx: Context, i: int) -> None:
    big_N, big_steps, N, steps = (256, 200, 64, 20) if ctx.tiny else (4096, 2000, 512, 300)
    rng = np.random.default_rng([ctx.seed, i])
    a = rng.uniform(-1.0, 1.0, size=3)  # w_{+l} = a_l / dx, w_{-l} = -w_{+l}, w_0 = 0

    def skew(grid):
        return core.Stencil(w=np.concatenate([-a[::-1], [0.0], a]) / grid.dx, dx=grid.dx)

    grid = core.Grid1D(N=big_N)
    stencil = skew(grid)
    init = _random_fields(rng, big_N)
    cfg = simulate.SimConfig(dt=0.5 * grid.dx, n_steps=big_steps, grid=grid, stencil=stencil)
    long_run = simulate.simulate(init, cfg, engine="spectral")
    checks.check_simulation(ctx.tally, "spectral", long_run)
    _check_analysis(ctx, stencil, cfg.dt, grid, init, long_run.final)

    grid = core.Grid1D(N=N)
    init = _random_fields(rng, N)
    cfg = simulate.SimConfig(dt=0.5 * grid.dx, n_steps=steps, grid=grid, stencil=skew(grid))
    dense = simulate.simulate(init, cfg, engine="dense")
    spectral = simulate.simulate(init, cfg, engine="spectral")
    checks.check_simulation(ctx.tally, "dense", dense)
    checks.check_simulation(ctx.tally, "spectral", spectral)
    checks.check_engines_agree(ctx.tally, dense, spectral)


# presets-cli: the seven presets and the CLI chain ---------------------------

def _preset_config(name: str, out: Path, tiny: bool) -> experiments.ExperimentConfig:
    # A preset is a scripted experiment with its own seed (DEFAULT_SEED); the
    # noisy preset's blow-up is tuned to it, so the run's seed goes to the CLI.
    cfg = experiments.ExperimentConfig(name=name, output_dir=out / name)
    if tiny:  # the noisy preset's blow-up needs its full configuration, so only shrink the study
        cfg = replace(cfg, resolutions=(32, 64), t_final=1.0)
    return cfg


def _check_preset(ctx: Context, name: str, cfg, report: dict | None, error: str | None) -> None:
    if report is None:
        ctx.tally.record(f"experiments.{name}", [f"raised: {error}"])
        return
    problems = []
    manifest_path = cfg.output_dir / "manifest.json"
    if not manifest_path.is_file():
        problems.append("manifest.json missing")
    else:
        missing = [f for f in json.loads(manifest_path.read_text())["outputs"] if not (cfg.output_dir / f).is_file()]
        if missing:
            problems.append(f"manifest lists missing files {missing}")
    if name == "noisy":
        ls, qp = report["runs"]["unconstrained_ls"], report["runs"]["constrained_qp"]
        if ls["status"] != "ok" or not ls["energy_ratio"] >= checks.NOISY_LS_MIN_ENERGY_RATIO:
            problems.append(f"unconstrained LS no longer blows up: {ls.get('status')} x{ls.get('energy_ratio')}")
        if qp["status"] != "ok" or not qp["relative_energy_drift"] <= checks.NOISY_QP_MAX_DRIFT:
            problems.append(f"constrained run not stable: {qp.get('status')} drift {qp.get('relative_energy_drift')}")
    ctx.tally.record(f"experiments.{name}", problems)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_cli(ctx: Context, command: str, *args: str) -> bool:
    """One CLI subprocess, timed from outside; records cli.errors on a
    non-zero exit. `--help` is the cold-start probe."""
    argv = [sys.executable, "-m", "stencil_lab.cli", *([command] if command != "help" else []), *args]
    with ctx.tracer.span(f"cli.{command}"):
        proc = subprocess.run(argv, cwd=ctx.root, env=cli_env(ctx.root), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        ctx.tracer.count("cli.errors")
        ctx.tally.record(f"cli.{command}", [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return False
    return True  # the caller records the checked call


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_chain(ctx: Context, seed: int, out: Path) -> None:
    small = ["--n-sims", "20"] if ctx.tiny else []
    steps = ["--steps", "30"] if ctx.tiny else []
    data, learned = out / "training_data.npz", out / "learn"
    stencil = learned / "stencil.json"
    if run_cli(ctx, "help", "--help"):
        ctx.tally.record("cli.help", [])
    if not run_cli(ctx, "gen-data", "--out", str(out), "--seed", str(seed), *small):
        return
    cfg = experiments.default_training_config(seed=seed)
    if ctx.tiny:
        cfg = replace(cfg, n_sims=20)
    expected = checks.training_sha256(training.generate_training_set(cfg))
    checks.check_sha256(ctx.tally, "cli.gen-data", checks.training_sha256(training.load_training_set(data)), expected)
    if not run_cli(ctx, "learn", "--method", "admm", "--data", str(data), "--out", str(learned)):
        return
    ctx.tally.record("cli.learn", [] if stencil.is_file() else ["stencil.json missing"])
    if run_cli(ctx, "simulate", "--stencil", str(stencil), "--out", str(out / "sim"), *steps):
        energy = np.loadtxt(out / "sim" / "energy.csv", delimiter=",", skiprows=1, usecols=2)
        ctx.tally.record("cli.simulate", checks.energy_problems(energy))
    if run_cli(ctx, "dispersion", "--stencil", str(stencil), "--out", str(out / "disp")):
        report = json.loads((out / "disp" / "report.json").read_text())
        err = report["max_amplification_error"]
        ctx.tally.record("cli.dispersion", [] if err <= 1e-12 else [f"amplification error {err:.3g}"])


def presets_cli_op(ctx: Context, i: int) -> None:
    seed = op_seed(ctx.seed, i)
    out = ctx.workdir / f"pass{i}"
    for name in experiments.EXPERIMENT_NAMES:
        cfg = _preset_config(name, out, ctx.tiny)
        with ctx.tracer.span(f"experiments.{name}"):
            try:
                report, error = experiments.run_experiment(cfg), None
            except core.NumericalError as exc:
                report, error = None, str(exc)
        _check_preset(ctx, name, cfg, report, error)
    ctx.tracer.count("experiments.bytes_written", _dir_bytes(out))
    _cli_chain(ctx, seed, out / "cli")


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[Context, int], None]
    ops_per_second: float  # fixes the work of a run: round(seconds * ops_per_second) ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn-large", learn_large_op, 3.5),
        Workload("solve-sweep", solve_sweep_op, 3.5),
        Workload("cn-long", cn_long_op, 1.7),
        Workload("presets-cli", presets_cli_op, 0.2),
    )
}


def prepare(ctx: Context) -> None:
    """Untimed preparation shared by every workload (part of setup_s)."""
    check_default_data(ctx)
