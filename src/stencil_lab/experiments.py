"""Scripted experiment presets: stencil comparison table, convergence
study, energy-conservation and dispersion figure data, nonstandard
operator recovery, noisy-training stress test, and the solver benchmark.

Every runner is deterministic given its seed, writes CSV/JSON outputs
plus a manifest.json capturing the full configuration, and returns its
report as a dict.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    cn_dispersion,
    convergence_study,
    symbol,
    write_convergence_csv,
    write_dispersion_csv,
    write_symbol_csv,
)
from .core import (
    Grid1D,
    NumericalError,
    Stencil,
    centered_difference_stencil,
    save_stencil,
)
from .regression import (
    assemble_regression,
    build_skew_constraints,
)
from .simulate import (
    SimConfig,
    SimResult,
    relative_l2_error,
    simulate,
    single_mode_initial_condition,
    write_energy_csv,
    write_final_field_csv,
    write_spacetime_csv,
)
from .solvers import ADMM, NAG, PG, REFERENCE, SolverOptions, SolverReport, solve
from .training import (
    TrainingConfig,
    TrainingSet,
    generate_operator_training_set,
    generate_training_set,
)

DEFAULT_SEED = 20260811

EXPERIMENT_NAMES = ("table1", "convergence", "energy", "dispersion", "nonstandard", "noisy", "solver_bench")


def default_training_config(seed: int = DEFAULT_SEED, noise_std: float = 0.0, grid: Grid1D | None = None) -> TrainingConfig:
    """Standard training setup: N=64 cells on [0, 1], 200 samples with
    modes up to 5."""
    return TrainingConfig(
        n_sims=200,
        m_max=5,
        grid=grid if grid is not None else Grid1D(N=64, L=1.0),
        seed=seed,
        amplitude_std=1.0,
        noise_std=noise_std,
    )


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    name: str
    training: TrainingConfig = field(default_factory=default_training_config)
    radius: int = 1
    lam: float = 1e-6
    box_bound: float = 100.0
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    dt_ratio: float = 0.5
    n_steps: int = 300
    snapshot_every: int = 5
    # convergence study
    resolutions: tuple[int, ...] = (64, 128, 256, 512)
    t_final: float = 10.0
    convergence_dt_ratio: float = 0.2
    # noisy training: sigma tuned so the unconstrained stencil blows up by
    # many orders of magnitude while everything stays float-finite
    noisy_sigma: float = 0.05
    noisy_radius: int = 3
    output_dir: Path = Path("stencil-lab-out")

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment '{self.name}', choose from {EXPERIMENT_NAMES}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def to_dict(self) -> dict:
        t = self.training
        return {
            "name": self.name,
            "training": {
                "n_sims": t.n_sims,
                "m_max": t.m_max,
                "N": t.grid.N,
                "L": t.grid.L,
                "seed": t.seed,
                "amplitude_std": t.amplitude_std,
                "noise_std": t.noise_std,
            },
            "radius": self.radius,
            "lam": self.lam,
            "box_bound": self.box_bound,
            "solver_opts": {
                "max_iters": self.solver_opts.max_iters,
                "tol": self.solver_opts.tol,
                "rho": self.solver_opts.rho,
                "step": self.solver_opts.step,
            },
            "dt_ratio": self.dt_ratio,
            "n_steps": self.n_steps,
            "snapshot_every": self.snapshot_every,
            "resolutions": list(self.resolutions),
            "t_final": self.t_final,
            "convergence_dt_ratio": self.convergence_dt_ratio,
            "noisy_sigma": self.noisy_sigma,
            "noisy_radius": self.noisy_radius,
            "output_dir": str(self.output_dir),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of to_dict; missing keys take their defaults and
        unknown keys raise ValueError."""
        data = dict(data)
        unknown = [k for k in data if k not in {f.name for f in fields(cls)}]
        unknown += [f"training.{k}" for k in data.get("training", {}) if k not in _TRAINING_KEYS]
        opts_keys = {f.name for f in fields(SolverOptions)}
        unknown += [f"solver_opts.{k}" for k in data.get("solver_opts", {}) if k not in opts_keys]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        if "training" in data:
            t = dict(data["training"])
            grid = Grid1D(N=int(t.pop("N", 64)), L=float(t.pop("L", 1.0)))
            data["training"] = TrainingConfig(
                n_sims=int(t.get("n_sims", 200)),
                m_max=int(t.get("m_max", 5)),
                grid=grid,
                seed=int(t.get("seed", DEFAULT_SEED)),
                amplitude_std=float(t.get("amplitude_std", 1.0)),
                noise_std=float(t.get("noise_std", 0.0)),
            )
        if "solver_opts" in data:
            data["solver_opts"] = SolverOptions(**data["solver_opts"])
        if "resolutions" in data:
            data["resolutions"] = tuple(data["resolutions"])
        if "output_dir" in data:
            data["output_dir"] = Path(data["output_dir"])
        return cls(**data)


_TRAINING_KEYS = {"n_sims", "m_max", "N", "L", "seed", "amplitude_std", "noise_std"}


def learn_stencil(
    ts: TrainingSet,
    R: int,
    method: str,
    lam: float = 1e-6,
    M: float = 100.0,
    opts: SolverOptions | None = None,
) -> tuple[Stencil, SolverReport]:
    """Assemble the regression system for the training set and solve it."""
    system = assemble_regression(ts, R=R, lam=lam, M=M)
    report = solve(method, system, build_skew_constraints(R), opts if opts is not None else SolverOptions())
    return Stencil(w=report.w_final, dx=ts.config.grid.dx), report


def fourth_order_centered_difference(grid: Grid1D) -> Stencil:
    """Classical 5-point fourth-order first-derivative stencil
    (1, -8, 0, 8, -1) / (12 dx)."""
    return Stencil(w=np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * grid.dx), dx=grid.dx)


def nonstandard_target(grid: Grid1D) -> Stencil:
    """Skew-symmetric radius-2 target operator used by the recovery
    experiment: (-2, 12, 0, -12, 2) / (12 dx). Deliberately far from the
    fourth-order centered difference while keeping O(1) low-mode wave
    speeds."""
    return Stencil(w=np.array([-2.0, 12.0, 0.0, -12.0, 2.0]) / (12.0 * grid.dx), dx=grid.dx)


def write_manifest(cfg: ExperimentConfig, outputs: list[str]) -> None:
    manifest = {
        "experiment": cfg.name,
        "version": __version__,
        "seed": cfg.training.seed,
        "config": cfg.to_dict(),
        "outputs": sorted(outputs),
    }
    (cfg.output_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_report(cfg: ExperimentConfig, report: dict) -> None:
    (cfg.output_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")


def _energy_drift(result: SimResult) -> float:
    e0 = result.energy_series[0]
    return float(np.max(np.abs(result.energy_series - e0)) / e0)


def run_table1(cfg: ExperimentConfig) -> dict:
    """Learn the radius-R stencil with all four solvers on identical data,
    then compare coefficients, the final-time field error against the
    exact centered-difference run, and the constraint residual."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.training.grid
    ts = generate_training_set(cfg.training)
    system = assemble_regression(ts, R=cfg.radius, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(cfg.radius)

    exact = centered_difference_stencil(grid) if cfg.radius == 1 else fourth_order_centered_difference(grid)
    init = single_mode_initial_condition(grid)
    sim = lambda stencil: simulate(init, SimConfig(dt=cfg.dt_ratio * grid.dx, n_steps=cfg.n_steps, grid=grid, stencil=stencil))
    reference_run = sim(exact)

    rows = []
    offsets = [f"w_{l:+d}" if l else "w_0" for l in range(-cfg.radius, cfg.radius + 1)]

    def add_row(label: str, stencil: Stencil | None, status: str = "ok", report: SolverReport | None = None):
        row: dict = {"method": label, "status": status}
        if stencil is None:
            row.update({name: "" for name in offsets})
            row.update({"err": "", "r_eq": ""})
        else:
            row.update(dict(zip(offsets, (float(v) for v in stencil.w))))
            run = sim(stencil)
            row["err"] = relative_l2_error(run.final.E, reference_run.final.E, grid)
            row["r_eq"] = cs.residual(stencil.w)
            row["energy_drift"] = _energy_drift(run)
        rows.append(row)
        if report is not None:
            report.save_csv(out / f"trace_{label.lower()}.csv")
            report.save_json(out / f"solver_{label.lower()}.json")
        return row

    add_row("exact_fd", exact)
    outputs = ["table1.csv", "report.json"]
    for method in (PG, NAG, ADMM, REFERENCE):
        try:
            report = solve(method, system, cs, cfg.solver_opts)
        except NumericalError as exc:
            add_row(method.lower(), None, status=f"failed: {exc}")
            continue
        stencil = Stencil(w=report.w_final, dx=grid.dx)
        add_row(method.lower(), stencil, report=report)
        save_stencil(stencil, out / f"stencil_{method.lower()}.json")
        outputs += [f"trace_{method.lower()}.csv", f"solver_{method.lower()}.json", f"stencil_{method.lower()}.json"]

    with open(out / "table1.csv", "w", newline="") as fh:
        fieldnames = ["method", "status", *offsets, "err", "r_eq", "energy_drift"]
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

    report = {"rows": rows, "system_shape": [int(v) for v in system.A.shape]}
    _write_report(cfg, report)
    write_manifest(cfg, outputs)
    return report


def run_energy(cfg: ExperimentConfig) -> dict:
    """Energy series under Crank-Nicolson for the exact stencil and each
    learned stencil, at the standard time step and with it doubled."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.training.grid
    ts = generate_training_set(cfg.training)
    init = single_mode_initial_condition(grid)

    stencils = {"exact_fd": centered_difference_stencil(grid)}
    for method in (PG, NAG, ADMM, REFERENCE):
        stencils[method.lower()], _ = learn_stencil(ts, cfg.radius, method, cfg.lam, cfg.box_bound, cfg.solver_opts)

    outputs = ["report.json"]
    drifts = {}
    for label, stencil in stencils.items():
        for tag, ratio in (("", cfg.dt_ratio), ("_dt2x", 2 * cfg.dt_ratio)):
            sim_cfg = SimConfig(dt=ratio * grid.dx, n_steps=cfg.n_steps, grid=grid, stencil=stencil)
            result = simulate(init, sim_cfg)
            name = f"energy_{label}{tag}.csv"
            write_energy_csv(result, sim_cfg, out / name)
            outputs.append(name)
            drifts[f"{label}{tag}"] = _energy_drift(result)

    report = {"relative_energy_drift": drifts, "n_steps": cfg.n_steps, "dt_ratio": cfg.dt_ratio}
    _write_report(cfg, report)
    write_manifest(cfg, outputs)
    return report


def run_dispersion(cfg: ExperimentConfig, n_thetas: int = 512) -> dict:
    """Symbol and Crank-Nicolson dispersion curves for the learned stencil
    and the centered difference of the same radius."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.training.grid
    dt = cfg.dt_ratio * grid.dx
    ts = generate_training_set(cfg.training)
    learned, _ = learn_stencil(ts, cfg.radius, ADMM, cfg.lam, cfg.box_bound, cfg.solver_opts)
    cd = centered_difference_stencil(grid) if cfg.radius == 1 else fourth_order_centered_difference(grid)

    thetas = np.linspace(np.pi / n_thetas, np.pi, n_thetas)
    outputs = ["report.json"]
    amp_errors = {}
    for label, stencil in (("learned", learned), ("centered", cd)):
        curves = cn_dispersion(stencil, dt, thetas)
        write_dispersion_csv(curves, dt, grid.dx, out / f"dispersion_{label}.csv")
        write_symbol_csv(symbol(stencil, np.linspace(-np.pi, np.pi, 2 * n_thetas)), out / f"symbol_{label}.csv")
        outputs += [f"dispersion_{label}.csv", f"symbol_{label}.csv"]
        amp_errors[label] = float(np.max(np.abs(curves.amplification - 1.0)))

    report = {"max_amplification_error": amp_errors, "dt": dt}
    _write_report(cfg, report)
    write_manifest(cfg, outputs)
    return report


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Re-learn the stencil at each resolution (same seed and sampling
    parameters, finer grid) and measure the traveling-wave error at
    t_final with dt proportional to dx."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    base_dx = cfg.training.grid.dx

    def provider(grid: Grid1D) -> Stencil:
        ts = generate_training_set(cfg.training.with_grid(grid))
        # stencil coefficients scale like 1/dx, so the box must widen with
        # the resolution or it would clip the refined stencils
        box = cfg.box_bound * base_dx / grid.dx
        stencil, _ = learn_stencil(ts, cfg.radius, ADMM, cfg.lam, box, cfg.solver_opts)
        return stencil

    rows = convergence_study(
        provider,
        cfg.resolutions,
        T=cfg.t_final,
        dt_ratio=cfg.convergence_dt_ratio,
        L=cfg.training.grid.L,
    )
    write_convergence_csv(rows, out / "convergence.csv")
    report = {
        "rows": [
            {"N_x": r.N_x, "dx": r.dx, "error": r.error, "order": r.order}
            for r in rows
        ]
    }
    _write_report(cfg, report)
    write_manifest(cfg, ["convergence.csv", "report.json"])
    return report


def run_nonstandard(cfg: ExperimentConfig) -> dict:
    """Recover a known skew radius-2 operator from derivative data it
    generated itself, and contrast with the fourth-order centered
    difference of the same radius."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.training.grid
    w_star = nonstandard_target(grid)
    ts = generate_operator_training_set(replace(cfg.training, noise_std=0.0), w_star)
    w_qp, solver_report = learn_stencil(ts, w_star.R, ADMM, cfg.lam, cfg.box_bound, cfg.solver_opts)
    w_cd = fourth_order_centered_difference(grid)

    star_norm = float(np.linalg.norm(w_star.w))
    err_qp = float(np.linalg.norm(w_qp.w - w_star.w)) / star_norm
    err_cd = float(np.linalg.norm(w_cd.w - w_star.w)) / star_norm

    init = single_mode_initial_condition(grid)
    outputs = ["report.json", "stencil_learned.json", "trace_admm.csv"]
    drifts = {}
    for label, stencil in (("target", w_star), ("learned", w_qp), ("centered4", w_cd)):
        sim_cfg = SimConfig(dt=cfg.dt_ratio * grid.dx, n_steps=cfg.n_steps, grid=grid, stencil=stencil)
        result = simulate(init, sim_cfg, snapshot_every=cfg.snapshot_every)
        write_energy_csv(result, sim_cfg, out / f"energy_{label}.csv")
        write_final_field_csv(result, grid, out / f"final_field_{label}.csv")
        outputs += [f"energy_{label}.csv", f"final_field_{label}.csv"]
        drifts[label] = _energy_drift(result)

    save_stencil(w_qp, out / "stencil_learned.json")
    solver_report.save_csv(out / "trace_admm.csv")
    report = {
        "target_coefficients": [float(v) for v in w_star.w],
        "learned_coefficients": [float(v) for v in w_qp.w],
        "relative_error_learned": err_qp,
        "relative_error_centered4": err_cd,
        "relative_energy_drift": drifts,
    }
    _write_report(cfg, report)
    write_manifest(cfg, outputs)
    return report


def run_noisy(cfg: ExperimentConfig) -> dict:
    """Noisy derivative targets: the unconstrained ridge least-squares
    stencil picks up non-skew components and its Crank-Nicolson energy
    grows without bound, while the constrained stencil stays
    energy-stable and close to the clean centered-difference run."""
    if cfg.noisy_sigma <= 0:
        raise ValueError("noisy experiment needs noisy_sigma > 0")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.training.grid
    R = cfg.noisy_radius
    ts = generate_training_set(replace(cfg.training, noise_std=cfg.noisy_sigma))
    system = assemble_regression(ts, R=R, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(R)

    n = system.n_coeffs
    ridge = system.gram + cfg.lam * np.eye(n)
    w_ls = Stencil(np.linalg.solve(ridge, system.atb), grid.dx)
    ls_condition = float(np.linalg.cond(ridge))
    report_qp = solve(ADMM, system, cs, cfg.solver_opts)
    w_qp = Stencil(report_qp.w_final, grid.dx)
    w_cd = centered_difference_stencil(grid)

    def skew_residual(stencil: Stencil) -> float:
        return build_skew_constraints(stencil.R).residual(stencil.w)

    init = single_mode_initial_condition(grid)
    outputs = ["report.json"]
    runs: dict[str, dict] = {}
    for label, stencil in (("centered", w_cd), ("unconstrained_ls", w_ls), ("constrained_qp", w_qp)):
        sim_cfg = SimConfig(dt=cfg.dt_ratio * grid.dx, n_steps=cfg.n_steps, grid=grid, stencil=stencil)
        entry: dict = {"constraint_residual": skew_residual(stencil)}
        try:
            result = simulate(init, sim_cfg, snapshot_every=cfg.snapshot_every)
        except NumericalError as exc:
            entry["status"] = f"failed: {exc}"
        else:
            entry["status"] = "ok"
            entry["energy_ratio"] = float(result.energy_series[-1] / result.energy_series[0])
            entry["relative_energy_drift"] = _energy_drift(result)
            write_energy_csv(result, sim_cfg, out / f"energy_{label}.csv")
            write_final_field_csv(result, grid, out / f"final_field_{label}.csv")
            write_spacetime_csv(result, sim_cfg, out / f"spacetime_{label}.csv")
            outputs += [f"energy_{label}.csv", f"final_field_{label}.csv", f"spacetime_{label}.csv"]
            runs[label] = {"result": result}
        entry["coefficients"] = [float(v) for v in stencil.w]
        runs.setdefault(label, {})["entry"] = entry

    qp_vs_clean = None
    if runs["centered"]["entry"]["status"] == "ok" and runs["constrained_qp"]["entry"]["status"] == "ok":
        qp_vs_clean = relative_l2_error(
            runs["constrained_qp"]["result"].final.E, runs["centered"]["result"].final.E, grid
        )

    report = {
        "sigma": cfg.noisy_sigma,
        "radius": R,
        "ls_gram_condition": ls_condition,
        "runs": {label: data["entry"] for label, data in runs.items()},
        "constrained_vs_clean_centered_error": qp_vs_clean,
    }
    _write_report(cfg, report)
    write_manifest(cfg, outputs)
    return report


def run_solver_bench(cfg: ExperimentConfig) -> dict:
    """Convergence-trace comparison of PG, NAG, and ADMM on the identical
    system, with the reference solve as the optimality baseline."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    ts = generate_training_set(cfg.training)
    system = assemble_regression(ts, R=cfg.radius, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(cfg.radius)

    reports = {method: solve(method, system, cs, cfg.solver_opts) for method in (PG, NAG, ADMM, REFERENCE)}
    outputs = ["report.json"]
    for method, rep in reports.items():
        rep.save_csv(out / f"trace_{method.lower()}.csv")
        outputs.append(f"trace_{method.lower()}.csv")

    f_ref = float(reports[REFERENCE].objective_trace[-1])
    pg, nag, admm = reports[PG], reports[NAG], reports[ADMM]
    pg_final = float(pg.objective_trace[-1])
    crossing = np.nonzero(nag.objective_trace <= pg_final)[0]
    nag_reaches_pg = int(crossing[0]) + 1 if crossing.size else None
    admm_first = float(admm.objective_trace[0])
    nag_20 = float(nag.objective_trace[19]) if nag.iterations >= 20 else float(nag.objective_trace[-1])

    report = {
        "final_objectives": {m: float(r.objective_trace[-1]) for m, r in reports.items()},
        "iterations": {m: r.iterations for m, r in reports.items()},
        "reference_objective": f_ref,
        "nag_reaches_pg_final_at_iteration": nag_reaches_pg,
        "pg_iterations": pg.iterations,
        "admm_first_iterate_objective": admm_first,
        "admm_first_iterate_relative_gap": (admm_first - f_ref) / f_ref,
        "nag_20th_iterate_objective": nag_20,
        "pg_monotone": bool(np.all(np.diff(pg.objective_trace) <= 1e-14 * np.maximum(1.0, np.abs(pg.objective_trace[1:])))),
        "nag_non_monotone_steps": int(np.sum(np.diff(nag.objective_trace) > 0.0)),
    }
    _write_report(cfg, report)
    write_manifest(cfg, outputs)

    if nag_reaches_pg is None or nag_reaches_pg >= pg.iterations:
        raise NumericalError("solver benchmark: NAG failed to reach PG's final objective in fewer iterations")
    if admm_first > nag_20:
        raise NumericalError("solver benchmark: ADMM's first iterate did not beat NAG's 20th iterate")
    return report


_RUNNERS = {
    "table1": run_table1,
    "convergence": run_convergence,
    "energy": run_energy,
    "dispersion": run_dispersion,
    "nonstandard": run_nonstandard,
    "noisy": run_noisy,
    "solver_bench": run_solver_bench,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    return _RUNNERS[cfg.name](cfg)
