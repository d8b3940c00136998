"""Command-line interface.

    stencil-lab gen-data    write a training-data file
    stencil-lab learn       learn a stencil from a training-data file
    stencil-lab simulate    Crank-Nicolson run for a saved stencil
    stencil-lab dispersion  symbol and CN dispersion curves for a stencil
    stencil-lab experiment  scripted presets (table1, convergence, nonstandard,
                            noisy)

Global flags: --config FILE (JSON overrides), --out DIR. Each subcommand
takes only the settings it reads: --seed belongs to gen-data and
experiment, learn reads its training data (and so its seed) from --data,
and simulate runs on --length measured in cells of the stencil's dx.

The settings of gen-data, learn, simulate and dispersion are each a
dataclass whose fields are the flags (`--name`, `-` for `_`) and the
config keys. `experiments.merge` applies the file onto the defaults and
the given flags onto that: a flag beats the file, which beats the
default, and a file value must have its field's JSON type. The
`experiment` config file holds ExperimentConfig fields, nested as in a
preset manifest's `config`, with --seed, --sigma (training.noise_std)
and --radius merged onto it. A setting that a preset, or learn's
--method, does not read is a configuration error. Every subcommand writes
manifest.json (subcommand or preset, version, the seed of its training
data where it has any, the settings it read, outputs, solver stop
reasons) and warns on stderr about each solve stopped at its iteration
cap.

Exit codes: 0 success, 1 numerical failure, 2 configuration error
(including an unknown config key).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from math import isclose, isfinite
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .analysis import cfl_bound, max_wave_speed
from .core import Grid1D, NumericalError, Stencil, load_stencil
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, RunDir, default_training_config, merge, run_experiment
from .experiments import DISPERSION_SAMPLES, DT_RATIO, N_STEPS, RADIUS, dispersion_csvs, energy_drift, simulate_csvs
from .regression import RegressionSystem, assemble_regression, build_skew_constraints, check_penalties
from .simulate import SimConfig
from .solvers import SolverOptions, options_read, solve
from .training import TrainingConfig, generate_training_set, load_training_set, save_training_set

# settings without a default (None), which the flag or the config file must give
_REQUIRED = ("method", "stencil", "data")

# gen-data's defaults are the standard training set's
_TRAINING = default_training_config()


# a field's "help" is its flag's, to which the flag adds the default or that it is required
@dataclass(frozen=True, eq=False)
class GenDataSettings:
    seed: int = field(default=_TRAINING.seed, metadata={"help": "PRNG seed"})
    out: Path = field(default=ExperimentConfig.output_dir, metadata={"help": "output directory"})
    n_sims: int = field(default=_TRAINING.n_sims, metadata={"help": "training samples"})
    m_max: int = field(default=_TRAINING.m_max, metadata={"help": "highest Fourier mode"})
    grid_n: int = field(default=_TRAINING.grid.N, metadata={"help": "grid cells"})
    length: float = field(default=_TRAINING.grid.L, metadata={"help": "domain length"})
    sigma: float = field(default=_TRAINING.noise_std, metadata={"help": "derivative noise std"})


@dataclass(frozen=True, eq=False)
class LearnSettings:
    out: Path = field(default=ExperimentConfig.output_dir, metadata={"help": "output directory"})
    radius: int = field(default=RADIUS, metadata={"help": "stencil radius R"})
    lam: float = field(default=RegressionSystem.lam, metadata={"help": "Tikhonov weight"})
    box: float = field(default=RegressionSystem.M, metadata={"help": "box bound M"})
    rho: float = field(default=SolverOptions.rho, metadata={"help": "ADMM penalty"})
    max_iters: int | None = field(default=SolverOptions.max_iters, metadata={"help": "iteration cap"})
    tol: float = field(default=SolverOptions.tol, metadata={"help": "stopping tolerance"})
    method: Literal["pg", "nag", "admm", "ref"] = field(default=None, metadata={"help": "solver"})
    data: Path = field(default=None, metadata={"help": "training-data .npz from gen-data"})

    def settings(self) -> tuple[str, ...]:
        """The fields the run reads: of the solver settings, those its method reads."""
        unread = {f.name for f in fields(SolverOptions)}.difference(options_read(self.method))
        return tuple(f.name for f in fields(self) if f.name not in unread)


@dataclass(frozen=True, eq=False)
class SimulateSettings:
    out: Path = field(default=ExperimentConfig.output_dir, metadata={"help": "output directory"})
    stencil: Path = field(default=None, metadata={"help": "stencil JSON file"})
    length: float = field(default=1.0, metadata={"help": "domain length, a whole number of stencil cells"})
    dt_ratio: float = field(default=DT_RATIO, metadata={"help": "dt as multiple of dx"})
    steps: int = field(default=N_STEPS, metadata={"help": "time steps"})
    snapshot_every: int = field(default=0, metadata={"help": "record E(x,t) every k steps, 0 for never"})
    engine: Literal["dense", "spectral"] = field(default="dense", metadata={"help": "Crank-Nicolson engine"})


@dataclass(frozen=True, eq=False)
class DispersionSettings:
    out: Path = field(default=ExperimentConfig.output_dir, metadata={"help": "output directory"})
    stencil: Path = field(default=None, metadata={"help": "stencil JSON file"})
    dt_ratio: float = field(default=DT_RATIO, metadata={"help": "dt as multiple of dx"})
    samples: int = field(default=DISPERSION_SAMPLES, metadata={"help": "theta samples in (0, pi]"})


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _warn_capped(solves: dict) -> None:
    for s in solves.values():
        if s["stop_reason"] == "max_iters":
            print(f"warning: {s['method']} stopped at its iteration cap ({s['iterations']}); not converged", file=sys.stderr)


def _announce(root: Path, manifest: dict) -> int:
    _warn_capped(manifest["solves"])
    print(f"wrote {', '.join(str(root / name) for name in manifest['outputs'])}")
    return 0


def _read_manifest(root: Path) -> dict:
    return json.loads((root / "manifest.json").read_text())


def _cmd_gen_data(s: GenDataSettings) -> int:
    run = RunDir(s.out, command="gen-data", seed=s.seed, config=asdict(s))
    cfg = TrainingConfig(n_sims=s.n_sims, m_max=s.m_max, grid=Grid1D(N=s.grid_n, L=s.length), seed=s.seed, noise_std=s.sigma)
    save_training_set(generate_training_set(cfg), run.path("training_data.npz"))
    print(f"{cfg.n_sims} samples, N={cfg.grid.N}, m_max={cfg.m_max}, sigma={cfg.noise_std}")
    return _announce(run.root, run.finish())


def _cmd_learn(s: LearnSettings) -> int:
    # the settings are checked before the data is loaded
    opts = SolverOptions(max_iters=s.max_iters, tol=s.tol, rho=s.rho)
    constraints = build_skew_constraints(s.radius)
    check_penalties(s.lam, s.box)
    ts = load_training_set(s.data)
    run = RunDir(s.out, command="learn", seed=ts.config.seed, training=asdict(ts.config),
                 config={key: value for key, value in asdict(s).items() if key in s.settings()})
    system = assemble_regression(ts, R=s.radius, lam=s.lam, M=s.box)
    report = run.record(s.method, solve(s.method, system, constraints, opts))
    stencil = Stencil(w=report.w_final, dx=ts.config.grid.dx)
    run.write_json("stencil.json", stencil.to_dict())
    run.write_trace("trace.csv", report)
    run.write_json("diagnostics.json", {"rows": system.rows, "cols": system.n_coeffs, "lambda": system.lam,
                                        "box_bound": system.M, "gram": system.gram.tolist()})
    print(f"method={report.method} iterations={report.iterations} stop_reason={report.stop_reason}")
    print(f"w = {stencil.w}")
    print(f"objective = {report.objective_trace[-1]:.12g}")
    return _announce(run.root, run.finish())


def _cmd_simulate(s: SimulateSettings) -> int:
    run = RunDir(s.out, command="simulate", config=asdict(s))
    stencil = load_stencil(s.stencil)
    if not (isfinite(s.length) and s.length > 0):  # before it divides into a cell count
        raise ValueError(f"length must be positive and finite, got {s.length}")
    n = round(s.length / stencil.dx)
    if not isclose(n * stencil.dx, s.length, rel_tol=1e-12):
        raise ValueError(f"length {s.length} is not a whole number of stencil cells (dx={stencil.dx})")
    grid = Grid1D(N=n, L=s.length)
    dt = s.dt_ratio * grid.dx
    if not (isfinite(dt) and dt > 0):  # SimConfig also runs backward in time, which simulate does not offer
        raise ValueError(f"dt must be positive and finite, got {dt}")
    kinds = ("energy", "final_field", "spacetime") if s.snapshot_every else ("energy", "final_field")
    sim_cfg = SimConfig(dt=dt, n_steps=s.steps, grid=grid, stencil=stencil)
    result = simulate_csvs(run, sim_cfg, kinds, snapshot_every=s.snapshot_every or None, engine=s.engine)
    print(f"steps={s.steps} dt={dt:.6g} relative energy drift={energy_drift(result):.3e}")
    return _announce(run.root, run.finish())


def _cmd_dispersion(s: DispersionSettings) -> int:
    run = RunDir(s.out, command="dispersion", config=asdict(s))
    stencil = load_stencil(s.stencil)
    dt = s.dt_ratio * stencil.dx
    c_max = max_wave_speed(stencil)
    report = {
        "dt": dt,
        "c_max": c_max,
        "cfl_bound": cfl_bound(stencil) if c_max > 0 else None,
        "max_amplification_error": dispersion_csvs(run, stencil, dt, s.samples),
    }
    print(f"c_max={report['c_max']:.6g} cfl_bound={report['cfl_bound']}")
    return _announce(run.root, run.finish(report))


def _cmd_experiment(args) -> int:
    name = args.name.replace("-", "_")
    flags = {key: value for key, value in {"output_dir": args.out, "radius": args.radius}.items() if value is not None}
    training = {key: value for key, value in {"seed": args.seed, "noise_std": args.sigma}.items() if value is not None}
    cfg = merge(ExperimentConfig.from_dict({**_load_config(args.config), "name": name}), {**flags, "training": training})
    report = run_experiment(cfg)
    print(json.dumps(report, indent=2, default=str))
    _warn_capped(_read_manifest(cfg.output_dir)["solves"])
    print(f"outputs in {cfg.output_dir}", file=sys.stderr)
    return 0


def _subcommand(sub, name: str, func, help: str, settings: type | None = None) -> argparse.ArgumentParser:
    # no abbreviations: a removed flag such as --dt must not be read as --dt-ratio
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(func=func, parser=p, settings=settings)
    p.add_argument("--config", type=Path, default=None, help="JSON file with option overrides")
    # one flag per settings field, typed by its annotation; a flag not given leaves no entry in the namespace
    hints = get_type_hints(settings) if settings else {}
    for f in fields(settings) if settings else ():
        hint = hints[f.name]
        kind = {"choices": get_args(hint)} if get_origin(hint) is Literal else {
            "type": get_args(hint)[0] if isinstance(hint, UnionType) else hint}
        shown = "required, as a flag or a config key" if f.name in _REQUIRED else \
            f"default {'per method' if f.default is None else f.default}"
        p.add_argument(f"--{f.name.replace('_', '-')}", **kind, default=argparse.SUPPRESS,
                       help=f"{f.metadata['help']} ({shown})")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stencil-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "gen-data", _cmd_gen_data, "generate and save a training set", GenDataSettings)
    _subcommand(sub, "learn", _cmd_learn, "learn a stencil", LearnSettings)
    _subcommand(sub, "simulate", _cmd_simulate, "Crank-Nicolson run for a saved stencil", SimulateSettings)
    _subcommand(sub, "dispersion", _cmd_dispersion, "symbol and CN dispersion curves", DispersionSettings)

    # unset flags leave the file's or the preset's values
    p = _subcommand(sub, "experiment", _cmd_experiment, "run a scripted preset")
    p.add_argument("--out", type=Path, default=None, help=f"output directory (default ./{ExperimentConfig.output_dir})")
    p.add_argument("--seed", type=int, default=None, help="training seed (default: the preset's)")
    p.add_argument("name", choices=[name.replace("_", "-") for name in EXPERIMENT_NAMES])
    p.add_argument("--sigma", type=float, default=None, help="derivative noise std (default: the preset's)")
    p.add_argument("--radius", type=int, default=None, help="learned stencil radius (default: the preset's)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.settings is None:
            return args.func(args)
        # a flag beats the config file, which beats the default
        config = _load_config(args.config)
        flags = {f.name: getattr(args, f.name) for f in fields(args.settings) if hasattr(args, f.name)}
        s = merge(merge(args.settings(), config), flags)
        missing = [f"--{f.name}" for f in fields(s) if f.name in _REQUIRED and getattr(s, f.name) is None]
        if missing:
            args.parser.error(f"the following arguments are required: {', '.join(missing)}")
        if isinstance(s, LearnSettings):
            unread = [key for key in {**config, **flags} if key not in s.settings()]
            if unread:
                raise ValueError(f"learn --method {s.method} does not read setting(s): {', '.join(unread)}")
        return args.func(s)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # first: a LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
