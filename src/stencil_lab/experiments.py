"""Scripted experiment presets: the solver comparison table (with each
stencil's energy-conservation series, the solvers' objective traces and
the dispersion figure data), convergence study, nonstandard operator
recovery, and noisy-training stress test.

Every runner is deterministic given its seed and returns its report as a
dict. Its RunDir formats the CSV and JSON files and records each file
name and each solver report; report.json and manifest.json come last, and
the manifest's `outputs` and `solves` are derived from those records.
Configs are changed with `merge`, which also backs ExperimentConfig.from_dict.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analysis import cn_dispersion, cn_reference_phase_ratio, convergence_study, symbol
from .core import Grid1D, NumericalError, Stencil, centered_difference_stencil, lift
from .regression import RegressionSystem, assemble_regression, build_skew_constraints, check_penalties
from .simulate import (
    SimConfig,
    SimResult,
    max_cn_amplification,
    relative_l2_error,
    simulate,
    single_mode_initial_condition,
)
from .solvers import ADMM, NAG, PG, REFERENCE, TRACE_COLUMNS, SolverOptions, SolverReport, solve
from .training import TrainingConfig, TrainingSet, generate_operator_training_set, generate_training_set

DEFAULT_SEED = 20260811
DISPERSION_SAMPLES = 512  # theta samples of table1's dispersion curves and the `dispersion` subcommand's default
# the presets' defaults that the flat subcommands share: learn's radius, and the
# time step (dt = DT_RATIO dx) and step count of simulate and dispersion
RADIUS, DT_RATIO, N_STEPS = 1, 0.5, 300


def default_training_config(seed: int = DEFAULT_SEED) -> TrainingConfig:
    """Standard training setup: N=64 cells on [0, 1], 200 samples with
    modes up to 5."""
    return TrainingConfig(n_sims=200, m_max=5, grid=Grid1D(N=64, L=1.0), seed=seed)


def _fits(hint, value) -> bool:
    """Whether a JSON value fits a config field's type; an int is taken
    for a float, a list for a tuple and a string for a Path."""
    if isinstance(hint, UnionType):
        return any(_fits(arg, value) for arg in get_args(hint))
    if get_origin(hint) is Literal:
        return value in get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(get_args(hint)[0], v) for v in value)
    if isinstance(value, bool):  # a JSON true is a Python int
        return hint is bool
    return isinstance(value, {float: (int, float), Path: (str, Path)}.get(hint, hint))


def _unknown_keys(base, changes: dict, prefix: str = "") -> list[str]:
    # each level's own unknown keys come before those of its nested fields;
    # anything but a dict for a nested config, or a value of the wrong type
    # for any other field, is rejected at once
    hints = get_type_hints(type(base))
    written = {f.name: f.type for f in fields(base)}  # the annotations as source text
    unknown = [prefix + key for key in changes if key not in hints]
    for key, value in changes.items():
        if key not in hints:
            continue
        if is_dataclass(getattr(base, key)):
            if not isinstance(value, dict):
                raise ValueError(f"config key {prefix}{key} must be an object, got {value!r}")
            unknown += _unknown_keys(getattr(base, key), value, f"{prefix}{key}.")
        elif not _fits(hints[key], value):
            raise ValueError(f"config key {prefix}{key}: invalid value {value!r} (expected {written[key]})")
    return unknown


def merge(base, changes: dict):
    """Copy of the dataclass instance `base` with `changes` applied. A dict
    given for a dataclass field is merged into that field, so a nested
    change keeps the other nested values; anything but a dict there is
    rejected, and so is a value that does not fit its field's type (for a
    Literal: one of its values). An int given for a float field is stored
    as a float, as the defaults are. Raises ValueError naming every unknown
    key by its dotted path (e.g. training.grid.M). On an ExperimentConfig
    it also rejects a new name and every setting the preset does not read.
    The CLI fills its flat subcommands' settings with it, too."""
    unknown = _unknown_keys(base, changes)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if isinstance(base, ExperimentConfig):
        if changes.get("name", base.name) != base.name:
            raise ValueError(f"cannot rename experiment {base.name} to {changes['name']}; build the config from the new name")
        unread = [key for key in changes if key not in base.settings()]
        if unread:
            raise ValueError(f"experiment {base.name} does not read setting(s): {', '.join(unread)}")
    hints = get_type_hints(type(base))
    updates = {}
    for key, value in changes.items():
        current = getattr(base, key)
        if is_dataclass(current):
            value = merge(current, value)
        elif type(value) is int and float in (hints[key], *get_args(hints[key])):
            value = float(value)
        updates[key] = value
    return replace(base, **updates)


# the fields every preset reads; PRESETS names the other settings each one reads
_COMMON_SETTINGS = ("name", "training", "lam", "box_bound", "solver_opts", "output_dir")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    name: str
    # None, here and below: unset. A setting the preset reads then takes its
    # default from PRESETS, and one it does not read stays None. Each
    # annotation is the type `merge` takes; only radius and dt_ratio also
    # take null (the preset's default) from a config file.
    training: TrainingConfig | None = None
    radius: int | None = None
    lam: float = RegressionSystem.lam
    box_bound: float = RegressionSystem.M
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    dt_ratio: float | None = None
    n_steps: int = None
    snapshot_every: int = None
    # convergence study
    resolutions: tuple[int, ...] = None
    t_final: float = None
    output_dir: Path = Path("stencil-lab-out")

    def __post_init__(self):
        if self.name not in PRESETS:
            raise ValueError(f"unknown experiment '{self.name}', choose from {EXPERIMENT_NAMES}")
        for key, value in {"training": default_training_config(), **PRESETS[self.name][1]}.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if not (np.isfinite(self.dt_ratio) and self.dt_ratio > 0):  # every preset reads it
            raise ValueError(f"dt_ratio must be positive and finite, got {self.dt_ratio}")
        check_penalties(self.lam, self.box_bound)  # before any data is generated
        if self.resolutions is not None:
            object.__setattr__(self, "resolutions", tuple(self.resolutions))
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def settings(self) -> tuple[str, ...]:
        """The fields this preset reads, name included."""
        return (*_COMMON_SETTINGS, *PRESETS[self.name][1])

    def to_dict(self) -> dict:
        """Plain-JSON form of the settings the preset reads; nested configs
        become nested dicts."""
        data = {key: value for key, value in asdict(self).items() if key in self.settings()}
        return json.loads(json.dumps(data, default=str))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of to_dict: `data` merged onto the defaults, so missing
        keys keep their defaults, and unknown keys and settings the preset
        does not read raise ValueError."""
        return merge(cls(name=data.get("name")), data)

    def sim_config(self, stencil: Stencil, dt_ratio: float | None = None) -> SimConfig:
        """n_steps Crank-Nicolson steps of dt = dt_ratio * dx on the
        training grid (dt_ratio defaults to the config's)."""
        grid = self.training.grid
        ratio = self.dt_ratio if dt_ratio is None else dt_ratio
        return SimConfig(dt=ratio * grid.dx, n_steps=self.n_steps, grid=grid, stencil=stencil)


class RunDir:
    """Output directory of one run, which formats its CSV and JSON files,
    stencil files (Stencil.to_dict) included; only the training .npz has a
    writer of its own (save_training_set, at a path from `path`). It
    records the name of every file written through `path` and every solver
    report passed to `record`, and `finish` derives manifest.json from
    those records, so the manifest cannot list a file the run did not write
    or miss one it did. A solve's record is its trace CSV, its stencil file
    and its entry in the manifest's `solves`. `header` holds what
    identifies the run (its name, seed and config), in its JSON form. The
    directory is made at the first `path`, so a run that fails its checks
    before writing leaves none."""

    def __init__(self, root: str | Path, **header):
        self.root = Path(root)
        self.header = json.loads(json.dumps(header, default=str))
        self.outputs: set[str] = set()
        self.solves: dict[str, SolverReport] = {}

    def path(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.outputs.add(name)
        return self.root / name

    def record(self, label: str, report: SolverReport) -> SolverReport:
        self.solves[label] = report
        return report

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """A header row, then one row per item of `rows`. A float cell (an
        np.float64 too) is written as repr(float(v)), which reads back bit
        for bit, None as an empty cell, and an int or str as it is."""
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) if isinstance(v, float) else "" if v is None else v for v in row] for row in rows)

    def write_json(self, name: str, data) -> None:
        self.path(name).write_text(json.dumps(data, indent=2) + "\n")

    def write_trace(self, name: str, report: SolverReport) -> None:
        """The report's traces, one row per iteration."""
        traces = [getattr(report, field) for field, _ in TRACE_COLUMNS]
        self.write_csv(name, ["iter", *(column for _, column in TRACE_COLUMNS)], zip(range(1, report.iterations + 1), *traces))

    def finish(self, report: dict | None = None) -> dict:
        """Write report.json (when given), then manifest.json; returns the
        manifest."""
        if report is not None:
            self.write_json("report.json", report)
        manifest = {
            **self.header,
            "version": __version__,
            "outputs": sorted(self.outputs),
            "solves": {
                label: {"method": r.method, "iterations": r.iterations, "stop_reason": r.stop_reason}
                for label, r in self.solves.items()
            },
        }
        self.write_json("manifest.json", manifest)
        return manifest


def simulate_csvs(run: RunDir, sim_cfg: SimConfig, kinds: tuple[str, ...] = (), suffix: str = "",
                  snapshot_every: int | None = None, engine: str = "dense") -> SimResult:
    """One Crank-Nicolson run from the single-mode initial condition; writes
    `{kind}{suffix}.csv` for each of `kinds` (energy, final_field, spacetime)."""
    result = simulate(single_mode_initial_condition(sim_cfg.grid), sim_cfg, snapshot_every=snapshot_every, engine=engine)
    dt, x, e = sim_cfg.dt, sim_cfg.grid.x, result.energy_series
    snapshots = zip(result.snapshot_steps, result.snapshots)
    tables = {
        "energy": (["step", "t", "energy", "energy_minus_initial"], ([k, k * dt, e[k], e[k] - e[0]] for k in range(e.size))),
        "final_field": (["x", "E", "H"], zip(x, result.final.E, result.final.H)),
        "spacetime": (["t", "x", "E"], ([k * dt, *xe] for k, f in snapshots for xe in zip(x, f.E))),
    }
    for kind in kinds:
        run.write_csv(f"{kind}{suffix}.csv", *tables[kind])
    return result


def dispersion_csvs(run: RunDir, stencil: Stencil, dt: float, n_thetas: int, suffix: str = "") -> float:
    """Write `dispersion{suffix}.csv`, the CN dispersion curves at n_thetas
    angles in (0, pi], and `symbol{suffix}.csv`, the symbol at 2 n_thetas
    angles in [-pi, pi]; returns the largest |amplification - 1|."""
    if n_thetas < 1:
        raise ValueError(f"the dispersion curves need at least one theta sample, got {n_thetas}")
    thetas = np.linspace(np.pi / n_thetas, np.pi, n_thetas)
    curves = cn_dispersion(stencil, dt, thetas)
    run.write_csv(f"dispersion{suffix}.csv", ["theta", "amplification", "phase_ratio", "reference_phase_ratio"],
                  zip(thetas, curves.amplification, curves.phase_ratio, cn_reference_phase_ratio(dt, stencil.dx, thetas)))
    mu = symbol(stencil, np.linspace(-np.pi, np.pi, 2 * n_thetas))
    run.write_csv(f"symbol{suffix}.csv", ["theta", "re_mu", "im_mu"], zip(mu.thetas, mu.values.real, mu.values.imag))
    return float(np.max(np.abs(curves.amplification - 1.0)))


def learn_stencil(
    ts: TrainingSet,
    R: int,
    method: str,
    lam: float = RegressionSystem.lam,
    M: float = RegressionSystem.M,
    opts: SolverOptions | None = None,
) -> tuple[Stencil, SolverReport]:
    """Assemble the regression system for the training set and solve it."""
    system = assemble_regression(ts, R=R, lam=lam, M=M)
    report = solve(method, system, build_skew_constraints(R), opts if opts is not None else SolverOptions())
    return Stencil(w=report.w_final, dx=ts.config.grid.dx), report


def nonstandard_target(grid: Grid1D) -> Stencil:
    """Skew-symmetric radius-2 target operator used by the recovery
    experiment: (-2, 12, 0, -12, 2) / (12 dx). Deliberately far from the
    fourth-order centered difference while keeping O(1) low-mode wave
    speeds."""
    return Stencil(w=lift([-12.0, 2.0]) / (12.0 * grid.dx), dx=grid.dx)


def _preset_run(cfg: ExperimentConfig) -> RunDir:
    return RunDir(cfg.output_dir, experiment=cfg.name, seed=cfg.training.seed, config=cfg.to_dict())


def energy_drift(result: SimResult) -> float:
    """max_k |E_k - E_0| / E_0 over the run's energy series."""
    e0 = result.energy_series[0]
    return float(np.max(np.abs(result.energy_series - e0)) / e0)


def run_table1(cfg: ExperimentConfig) -> dict:
    """Learn the radius-R stencil with all four solvers on identical data,
    then compare coefficients, the final-time field error against the run
    of the order-2R centered difference, the constraint residual, and the
    energy drift of each stencil's runs at dt and at 2 dt, whose series go
    to energy_{label}.csv and energy_{label}_dt2x.csv. The centered
    difference and the ADMM stencil also get their symbol and CN
    dispersion curves at dt (see dispersion_csvs). When every solve
    succeeds, the report also compares the solvers' objective traces, and
    after the files are written it raises NumericalError unless NAG reaches
    PG's final objective in fewer iterations and ADMM's first iterate beats
    NAG's 20th."""
    run = _preset_run(cfg)
    grid = cfg.training.grid
    ts = generate_training_set(cfg.training)
    system = assemble_regression(ts, R=cfg.radius, lam=cfg.lam, M=cfg.box_bound)
    cs = build_skew_constraints(cfg.radius)

    rows, drifts, finals, reports, amp_errors = [], {}, {}, {}, {}
    offsets = [f"w_{l:+d}" if l else "w_0" for l in range(-cfg.radius, cfg.radius + 1)]

    def add_row(label: str, stencil: Stencil):
        results = {tag: simulate_csvs(run, cfg.sim_config(stencil, ratio), ("energy",), f"_{label}{tag}")
                   for tag, ratio in (("", cfg.dt_ratio), ("_dt2x", 2 * cfg.dt_ratio))}
        drifts.update({label + tag: energy_drift(result) for tag, result in results.items()})
        finals[label] = results[""].final.E
        if label in ("exact_fd", "admm"):
            amp_errors[label] = dispersion_csvs(run, stencil, cfg.dt_ratio * grid.dx, DISPERSION_SAMPLES, f"_{label}")
        rows.append({
            "method": label, "status": "ok", **dict(zip(offsets, (float(v) for v in stencil.w))),
            "err": relative_l2_error(finals[label], finals["exact_fd"], grid),
            "r_eq": cs.residual(stencil.w), "energy_drift": drifts[label],
        })

    add_row("exact_fd", centered_difference_stencil(grid, cfg.radius))
    for method in (PG, NAG, ADMM, REFERENCE):
        label = method.lower()
        try:
            reports[method] = report = run.record(label, solve(method, system, cs, cfg.solver_opts))
        except NumericalError as exc:
            rows.append({"method": label, "status": f"failed: {exc}", **dict.fromkeys([*offsets, "err", "r_eq"], "")})
            continue
        stencil = Stencil(w=report.w_final, dx=grid.dx)
        add_row(label, stencil)
        run.write_trace(f"trace_{label}.csv", report)
        run.write_json(f"stencil_{label}.json", stencil.to_dict())

    columns = ["method", "status", *offsets, "err", "r_eq", "energy_drift"]
    run.write_csv("table1.csv", columns, ([row.get(c) for c in columns] for row in rows))

    comparison = _solver_comparison(reports) if len(reports) == 4 else {}
    report = {"rows": rows, "system_shape": [system.rows, system.n_coeffs], "relative_energy_drift": drifts,
              "max_amplification_error": amp_errors, "n_steps": cfg.n_steps, "dt_ratio": cfg.dt_ratio, **comparison}
    run.finish(report)

    if comparison:
        nag_reaches_pg = comparison["nag_reaches_pg_final_at_iteration"]
        if nag_reaches_pg is None or nag_reaches_pg >= comparison["pg_iterations"]:
            raise NumericalError("solver benchmark: NAG failed to reach PG's final objective in fewer iterations")
        if comparison["admm_first_iterate_objective"] > comparison["nag_20th_iterate_objective"]:
            raise NumericalError("solver benchmark: ADMM's first iterate did not beat NAG's 20th iterate")
    return report


def _solver_comparison(reports: dict[str, SolverReport]) -> dict:
    """The objective traces of PG, NAG and ADMM against each other and
    against the reference solve's optimum."""
    f_ref = float(reports[REFERENCE].objective_trace[-1])
    pg, nag, admm = reports[PG], reports[NAG], reports[ADMM]
    crossing = np.nonzero(nag.objective_trace <= float(pg.objective_trace[-1]))[0]
    admm_first = float(admm.objective_trace[0])
    return {
        "final_objectives": {m: float(r.objective_trace[-1]) for m, r in reports.items()},
        "iterations": {m: r.iterations for m, r in reports.items()},
        "reference_objective": f_ref,
        "nag_reaches_pg_final_at_iteration": int(crossing[0]) + 1 if crossing.size else None,
        "pg_iterations": pg.iterations,
        "admm_first_iterate_objective": admm_first,
        "admm_first_iterate_relative_gap": (admm_first - f_ref) / f_ref,
        "nag_20th_iterate_objective": float(nag.objective_trace[min(nag.iterations, 20) - 1]),  # its last, if fewer
        "pg_monotone": bool(np.all(np.diff(pg.objective_trace) <= 1e-14 * np.maximum(1.0, np.abs(pg.objective_trace[1:])))),
        "nag_non_monotone_steps": int(np.sum(np.diff(nag.objective_trace) > 0.0)),
    }


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Re-learn the stencil at each resolution (same seed and sampling
    parameters, finer grid) and measure the traveling-wave error at
    t_final with dt proportional to dx."""
    run = _preset_run(cfg)
    base_dx = cfg.training.grid.dx

    def provider(grid: Grid1D) -> Stencil:
        ts = generate_training_set(replace(cfg.training, grid=grid))
        # stencil coefficients scale like 1/dx, so the box must widen with
        # the resolution or it would clip the refined stencils
        box = cfg.box_bound * base_dx / grid.dx
        stencil, report = learn_stencil(ts, cfg.radius, ADMM, cfg.lam, box, cfg.solver_opts)
        run.record(f"admm_N{grid.N}", report)
        return stencil

    rows = convergence_study(provider, cfg.resolutions, T=cfg.t_final, dt_ratio=cfg.dt_ratio, L=cfg.training.grid.L)
    run.write_csv("convergence.csv", ["N_x", "dx", "error", "order"], ([r.N_x, r.dx, r.error, r.order] for r in rows))
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
    ts = generate_operator_training_set(cfg.training, w_star)
    w_qp, solver_report = learn_stencil(ts, w_star.R, ADMM, cfg.lam, cfg.box_bound, cfg.solver_opts)
    run.record("admm", solver_report)
    w_cd = centered_difference_stencil(grid, 2)

    star_norm = float(np.linalg.norm(w_star.w))
    err_qp = float(np.linalg.norm(w_qp.w - w_star.w)) / star_norm
    err_cd = float(np.linalg.norm(w_cd.w - w_star.w)) / star_norm

    drifts = {}
    for label, stencil in (("target", w_star), ("learned", w_qp), ("centered4", w_cd)):
        result = simulate_csvs(run, cfg.sim_config(stencil), ("energy", "final_field"), f"_{label}")
        drifts[label] = energy_drift(result)

    run.write_json("stencil_learned.json", w_qp.to_dict())
    run.write_trace("trace_admm.csv", solver_report)
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
    energy-stable and close to the clean centered-difference run. Each
    run records max_cn_amplification, its stencil's largest per-step CN
    growth factor; the unconstrained run's energy_ratio is seeded by
    roundoff (its fastest-growing mode, the Nyquist mode here, starts from
    rounding error), so only its order of magnitude is reproducible."""
    if cfg.training.noise_std <= 0:
        raise ValueError("noisy experiment needs training.noise_std > 0")
    run = _preset_run(cfg)
    grid = cfg.training.grid
    R = cfg.radius
    ts = generate_training_set(cfg.training)
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
        sim_cfg = cfg.sim_config(stencil)
        try:
            entry["max_cn_amplification"] = max_cn_amplification(sim_cfg)
            result = simulate_csvs(run, sim_cfg, kinds, f"_{label}", cfg.snapshot_every)
        except NumericalError as exc:
            entry["status"] = f"failed: {exc}"
        else:
            entry["status"] = "ok"
            entry["energy_ratio"] = float(result.energy_series[-1] / result.energy_series[0])
            entry["relative_energy_drift"] = energy_drift(result)
            finals[label] = result.final.E
        entry["coefficients"] = [float(v) for v in stencil.w]
        entries[label] = entry

    qp_vs_clean = None
    if "centered" in finals and "constrained_qp" in finals:
        qp_vs_clean = relative_l2_error(finals["constrained_qp"], finals["centered"], grid)

    report = {
        "sigma": cfg.training.noise_std,
        "radius": R,
        "ls_gram_condition": ls_condition,
        "runs": entries,
        "constrained_vs_clean_centered_error": qp_vs_clean,
    }
    run.finish(report)
    return report


# Each preset's runner, and the settings it reads besides _COMMON_SETTINGS,
# with their defaults. noisy also trains on noisy data: its noise_std is
# tuned so the unconstrained stencil blows up by many orders of magnitude
# while everything stays float-finite.
PRESETS = {
    "table1": (run_table1, {"radius": RADIUS, "dt_ratio": DT_RATIO, "n_steps": N_STEPS}),
    "convergence": (run_convergence, {"radius": RADIUS, "dt_ratio": 0.2, "resolutions": (64, 128, 256, 512), "t_final": 10.0}),
    "nonstandard": (run_nonstandard, {"dt_ratio": DT_RATIO, "n_steps": N_STEPS}),
    "noisy": (run_noisy, {"training": replace(default_training_config(), noise_std=0.05),
                          "radius": 3, "dt_ratio": DT_RATIO, "n_steps": N_STEPS, "snapshot_every": 5}),
}

EXPERIMENT_NAMES = tuple(PRESETS)


def run_experiment(cfg: ExperimentConfig) -> dict:
    return PRESETS[cfg.name][0](cfg)
