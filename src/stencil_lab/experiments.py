"""Scripted experiment presets: stencil comparison table, convergence
study, energy-conservation and dispersion figure data, nonstandard
operator recovery, noisy-training stress test, and the solver benchmark.

Every runner is deterministic given its seed and returns its report as a
dict. It writes its files through a RunDir, which records each file name
and each solver report; report.json and manifest.json come last, and the
manifest's `outputs` and `solves` are derived from those records. Configs
are changed with `merge`, which also backs ExperimentConfig.from_dict.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import cn_dispersion, convergence_study, symbol, write_convergence_csv, write_dispersion_csv, write_symbol_csv
from .core import Grid1D, NumericalError, Stencil, centered_difference_stencil, save_stencil
from .regression import assemble_regression, build_skew_constraints
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
from .training import TrainingConfig, TrainingSet, generate_operator_training_set, generate_training_set

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


def _unknown_keys(base, changes: dict, prefix: str = "") -> list[str]:
    # each level's own unknown keys come before those of its nested fields;
    # anything but a dict for a nested config is rejected at once
    names = {f.name for f in fields(base)}
    unknown = [prefix + key for key in changes if key not in names]
    for key, value in changes.items():
        if key in names and is_dataclass(getattr(base, key)):
            if not isinstance(value, dict):
                raise ValueError(f"config key {prefix}{key} must be an object, got {value!r}")
            unknown += _unknown_keys(getattr(base, key), value, f"{prefix}{key}.")
    return unknown


def merge(base, changes: dict):
    """Copy of the dataclass instance `base` with `changes` applied. A dict
    given for a dataclass field is merged into that field, so a nested
    change keeps the other nested values; anything but a dict there is
    rejected. Raises ValueError naming every unknown key by its dotted
    path (e.g. training.grid.M)."""
    unknown = _unknown_keys(base, changes)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    updates = {}
    for key, value in changes.items():
        current = getattr(base, key)
        updates[key] = merge(current, value) if is_dataclass(current) else value
    return replace(base, **updates)


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
        object.__setattr__(self, "resolutions", tuple(self.resolutions))
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def to_dict(self) -> dict:
        """Plain-JSON form; nested configs become nested dicts."""
        return json.loads(json.dumps(asdict(self), default=str))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of to_dict: `data` merged onto the defaults, so missing
        keys keep their defaults and unknown keys raise ValueError."""
        return merge(cls(name=data.get("name")), data)

    def sim_config(self, stencil: Stencil, dt_ratio: float | None = None) -> SimConfig:
        """n_steps Crank-Nicolson steps of dt = dt_ratio * dx on the
        training grid (dt_ratio defaults to the config's)."""
        grid = self.training.grid
        ratio = self.dt_ratio if dt_ratio is None else dt_ratio
        return SimConfig(dt=ratio * grid.dx, n_steps=self.n_steps, grid=grid, stencil=stencil)


class RunDir:
    """Output directory of one run. It records the name of every file
    written through `path` and every solver report passed to `record`,
    and `finish` derives manifest.json from those records, so the
    manifest cannot list a file the run did not write or miss one it
    did. `header` holds what identifies the run (its name, seed and
    config)."""

    def __init__(self, root: str | Path, **header):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.header = header
        self.outputs: set[str] = set()
        self.solves: dict[str, SolverReport] = {}

    def path(self, name: str) -> Path:
        self.outputs.add(name)
        return self.root / name

    def record(self, label: str, report: SolverReport) -> SolverReport:
        self.solves[label] = report
        return report

    def finish(self, report: dict | None = None) -> dict:
        """Write report.json (when given), then manifest.json; returns the
        manifest."""
        if report is not None:
            self.path("report.json").write_text(json.dumps(report, indent=2) + "\n")
        manifest = {
            **self.header,
            "version": __version__,
            "outputs": sorted(self.outputs),
            "solves": {
                label: {"method": r.method, "iterations": r.iterations, "stop_reason": r.stop_reason}
                for label, r in self.solves.items()
            },
        }
        (self.root / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
        return manifest


def simulate_csvs(run: RunDir, sim_cfg: SimConfig, kinds: tuple[str, ...] = (), suffix: str = "",
                  snapshot_every: int | None = None, engine: str = "dense") -> SimResult:
    """One Crank-Nicolson run from the single-mode initial condition; writes
    `{kind}{suffix}.csv` into `run` for each kind in `kinds` (energy,
    final_field, spacetime)."""
    result = simulate(single_mode_initial_condition(sim_cfg.grid), sim_cfg, snapshot_every=snapshot_every, engine=engine)
    writers = {
        "energy": lambda path: write_energy_csv(result, sim_cfg, path),
        "final_field": lambda path: write_final_field_csv(result, sim_cfg.grid, path),
        "spacetime": lambda path: write_spacetime_csv(result, sim_cfg, path),
    }
    for kind in kinds:
        writers[kind](run.path(f"{kind}{suffix}.csv"))
    return result


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


def _preset_run(cfg: ExperimentConfig) -> RunDir:
    return RunDir(cfg.output_dir, experiment=cfg.name, seed=cfg.training.seed, config=cfg.to_dict())


def _energy_drift(result: SimResult) -> float:
    e0 = result.energy_series[0]
    return float(np.max(np.abs(result.energy_series - e0)) / e0)


def run_table1(cfg: ExperimentConfig) -> dict:
    """Learn the radius-R stencil with all four solvers on identical data,
    then compare coefficients, the final-time field error against the
    exact centered-difference run, and the constraint residual."""
    run = _preset_run(cfg)
    grid = cfg.training.grid
    ts = generate_training_set(cfg.training)
    system = assemble_regression(ts, R=cfg.radius, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(cfg.radius)

    exact = centered_difference_stencil(grid) if cfg.radius == 1 else fourth_order_centered_difference(grid)
    reference_run = simulate_csvs(run, cfg.sim_config(exact))

    rows = []
    offsets = [f"w_{l:+d}" if l else "w_0" for l in range(-cfg.radius, cfg.radius + 1)]

    def add_row(label: str, stencil: Stencil | None, status: str = "ok", result: SimResult | None = None):
        row: dict = {"method": label, "status": status}
        if stencil is None:
            row.update({name: "" for name in offsets})
            row.update({"err": "", "r_eq": ""})
        else:
            row.update(dict(zip(offsets, (float(v) for v in stencil.w))))
            if result is None:
                result = simulate_csvs(run, cfg.sim_config(stencil))
            row["err"] = relative_l2_error(result.final.E, reference_run.final.E, grid)
            row["r_eq"] = cs.residual(stencil.w)
            row["energy_drift"] = _energy_drift(result)
        rows.append(row)

    add_row("exact_fd", exact, result=reference_run)
    for method in (PG, NAG, ADMM, REFERENCE):
        label = method.lower()
        try:
            report = run.record(label, solve(method, system, cs, cfg.solver_opts))
        except NumericalError as exc:
            add_row(label, None, status=f"failed: {exc}")
            continue
        stencil = Stencil(w=report.w_final, dx=grid.dx)
        add_row(label, stencil)
        report.save_csv(run.path(f"trace_{label}.csv"))
        report.save_json(run.path(f"solver_{label}.json"))
        save_stencil(stencil, run.path(f"stencil_{label}.json"))

    with open(run.path("table1.csv"), "w", newline="") as fh:
        fieldnames = ["method", "status", *offsets, "err", "r_eq", "energy_drift"]
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

    report = {"rows": rows, "system_shape": [int(v) for v in system.A.shape]}
    run.finish(report)
    return report


def run_energy(cfg: ExperimentConfig) -> dict:
    """Energy series under Crank-Nicolson for the exact stencil and each
    learned stencil, at the standard time step and with it doubled."""
    run = _preset_run(cfg)
    ts = generate_training_set(cfg.training)

    stencils = {"exact_fd": centered_difference_stencil(cfg.training.grid)}
    for method in (PG, NAG, ADMM, REFERENCE):
        stencils[method.lower()], report = learn_stencil(ts, cfg.radius, method, cfg.lam, cfg.box_bound, cfg.solver_opts)
        run.record(method.lower(), report)

    drifts = {}
    for label, stencil in stencils.items():
        for tag, ratio in (("", cfg.dt_ratio), ("_dt2x", 2 * cfg.dt_ratio)):
            result = simulate_csvs(run, cfg.sim_config(stencil, ratio), ("energy",), f"_{label}{tag}")
            drifts[f"{label}{tag}"] = _energy_drift(result)

    report = {"relative_energy_drift": drifts, "n_steps": cfg.n_steps, "dt_ratio": cfg.dt_ratio}
    run.finish(report)
    return report


def run_dispersion(cfg: ExperimentConfig, n_thetas: int = 512) -> dict:
    """Symbol and Crank-Nicolson dispersion curves for the learned stencil
    and the centered difference of the same radius."""
    run = _preset_run(cfg)
    grid = cfg.training.grid
    dt = cfg.dt_ratio * grid.dx
    ts = generate_training_set(cfg.training)
    learned, report = learn_stencil(ts, cfg.radius, ADMM, cfg.lam, cfg.box_bound, cfg.solver_opts)
    run.record("admm", report)
    cd = centered_difference_stencil(grid) if cfg.radius == 1 else fourth_order_centered_difference(grid)

    thetas = np.linspace(np.pi / n_thetas, np.pi, n_thetas)
    amp_errors = {}
    for label, stencil in (("learned", learned), ("centered", cd)):
        curves = cn_dispersion(stencil, dt, thetas)
        write_dispersion_csv(curves, dt, grid.dx, run.path(f"dispersion_{label}.csv"))
        write_symbol_csv(symbol(stencil, np.linspace(-np.pi, np.pi, 2 * n_thetas)), run.path(f"symbol_{label}.csv"))
        amp_errors[label] = float(np.max(np.abs(curves.amplification - 1.0)))

    report = {"max_amplification_error": amp_errors, "dt": dt}
    run.finish(report)
    return report


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Re-learn the stencil at each resolution (same seed and sampling
    parameters, finer grid) and measure the traveling-wave error at
    t_final with dt proportional to dx."""
    run = _preset_run(cfg)
    base_dx = cfg.training.grid.dx

    def provider(grid: Grid1D) -> Stencil:
        ts = generate_training_set(cfg.training.with_grid(grid))
        # stencil coefficients scale like 1/dx, so the box must widen with
        # the resolution or it would clip the refined stencils
        box = cfg.box_bound * base_dx / grid.dx
        stencil, report = learn_stencil(ts, cfg.radius, ADMM, cfg.lam, box, cfg.solver_opts)
        run.record(f"admm_N{grid.N}", report)
        return stencil

    rows = convergence_study(provider, cfg.resolutions, T=cfg.t_final, dt_ratio=cfg.convergence_dt_ratio, L=cfg.training.grid.L)
    write_convergence_csv(rows, run.path("convergence.csv"))
    report = {"rows": [asdict(r) for r in rows]}
    run.finish(report)
    return report


def run_nonstandard(cfg: ExperimentConfig) -> dict:
    """Recover a known skew radius-2 operator from derivative data it
    generated itself, and contrast with the fourth-order centered
    difference of the same radius."""
    run = _preset_run(cfg)
    grid = cfg.training.grid
    w_star = nonstandard_target(grid)
    ts = generate_operator_training_set(replace(cfg.training, noise_std=0.0), w_star)
    w_qp, solver_report = learn_stencil(ts, w_star.R, ADMM, cfg.lam, cfg.box_bound, cfg.solver_opts)
    run.record("admm", solver_report)
    w_cd = fourth_order_centered_difference(grid)

    star_norm = float(np.linalg.norm(w_star.w))
    err_qp = float(np.linalg.norm(w_qp.w - w_star.w)) / star_norm
    err_cd = float(np.linalg.norm(w_cd.w - w_star.w)) / star_norm

    drifts = {}
    for label, stencil in (("target", w_star), ("learned", w_qp), ("centered4", w_cd)):
        result = simulate_csvs(run, cfg.sim_config(stencil), ("energy", "final_field"), f"_{label}", cfg.snapshot_every)
        drifts[label] = _energy_drift(result)

    save_stencil(w_qp, run.path("stencil_learned.json"))
    solver_report.save_csv(run.path("trace_admm.csv"))
    report = {
        "target_coefficients": [float(v) for v in w_star.w],
        "learned_coefficients": [float(v) for v in w_qp.w],
        "relative_error_learned": err_qp,
        "relative_error_centered4": err_cd,
        "relative_energy_drift": drifts,
    }
    run.finish(report)
    return report


def run_noisy(cfg: ExperimentConfig) -> dict:
    """Noisy derivative targets: the unconstrained ridge least-squares
    stencil picks up non-skew components and its Crank-Nicolson energy
    grows without bound, while the constrained stencil stays
    energy-stable and close to the clean centered-difference run."""
    if cfg.noisy_sigma <= 0:
        raise ValueError("noisy experiment needs noisy_sigma > 0")
    run = _preset_run(cfg)
    grid = cfg.training.grid
    R = cfg.noisy_radius
    ts = generate_training_set(replace(cfg.training, noise_std=cfg.noisy_sigma))
    system = assemble_regression(ts, R=R, lam=cfg.lam, M=cfg.box_bound)

    ridge = system.gram + cfg.lam * np.eye(system.n_coeffs)
    w_ls = Stencil(np.linalg.solve(ridge, system.atb), grid.dx)
    ls_condition = float(np.linalg.cond(ridge))
    report_qp = run.record("constrained_qp", solve(ADMM, system, build_skew_constraints(R), cfg.solver_opts))
    w_qp = Stencil(report_qp.w_final, grid.dx)
    w_cd = centered_difference_stencil(grid)

    entries: dict[str, dict] = {}
    finals = {}
    for label, stencil in (("centered", w_cd), ("unconstrained_ls", w_ls), ("constrained_qp", w_qp)):
        entry: dict = {"constraint_residual": build_skew_constraints(stencil.R).residual(stencil.w)}
        kinds = ("energy", "final_field", "spacetime")
        try:
            result = simulate_csvs(run, cfg.sim_config(stencil), kinds, f"_{label}", cfg.snapshot_every)
        except NumericalError as exc:
            entry["status"] = f"failed: {exc}"
        else:
            entry["status"] = "ok"
            entry["energy_ratio"] = float(result.energy_series[-1] / result.energy_series[0])
            entry["relative_energy_drift"] = _energy_drift(result)
            finals[label] = result.final.E
        entry["coefficients"] = [float(v) for v in stencil.w]
        entries[label] = entry

    qp_vs_clean = None
    if "centered" in finals and "constrained_qp" in finals:
        qp_vs_clean = relative_l2_error(finals["constrained_qp"], finals["centered"], grid)

    report = {
        "sigma": cfg.noisy_sigma,
        "radius": R,
        "ls_gram_condition": ls_condition,
        "runs": entries,
        "constrained_vs_clean_centered_error": qp_vs_clean,
    }
    run.finish(report)
    return report


def run_solver_bench(cfg: ExperimentConfig) -> dict:
    """Convergence-trace comparison of PG, NAG, and ADMM on the identical
    system, with the reference solve as the optimality baseline."""
    run = _preset_run(cfg)
    ts = generate_training_set(cfg.training)
    system = assemble_regression(ts, R=cfg.radius, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(cfg.radius)

    reports = {m: run.record(m.lower(), solve(m, system, cs, cfg.solver_opts)) for m in (PG, NAG, ADMM, REFERENCE)}
    for method, rep in reports.items():
        rep.save_csv(run.path(f"trace_{method.lower()}.csv"))

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
    run.finish(report)

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
