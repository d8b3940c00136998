"""Command-line interface.

    stencil-lab gen-data    write a training-data file
    stencil-lab learn       learn a stencil from a training-data file
    stencil-lab simulate    Crank-Nicolson run for a saved stencil
    stencil-lab dispersion  symbol and CN dispersion curves for a stencil
    stencil-lab experiment  scripted presets (table1, convergence, energy,
                            dispersion, nonstandard, noisy, solver-bench)

Global flags: --config FILE (JSON overrides), --out DIR. Each subcommand
takes only the settings it reads: --seed belongs to gen-data and
experiment, learn reads its training data (and so its seed) from --data,
and simulate runs on --length measured in cells of the stencil's dx.

A config file's keys are the subcommand's long option names with `_`
(n_sims, grid_n, dt_ratio, ...) and become that subcommand's defaults, so
a flag beats the file and the file beats the built-in default. The
`experiment` config file instead holds ExperimentConfig fields, nested as
in a preset manifest's `config`, and --seed, --sigma (training.noise_std)
and --radius are merged onto it; a setting the preset does not read is a
configuration error. Every subcommand writes manifest.json (subcommand or
preset, version, the seed of its training data where it has any, resolved
settings, outputs, solver stop reasons) and warns on stderr about each
solve stopped at its iteration cap.

Exit codes: 0 success, 1 numerical failure, 2 configuration error
(including an unknown config key).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import isclose, isfinite
from pathlib import Path

import numpy as np

from .analysis import cfl_bound, max_wave_speed
from .core import Grid1D, NumericalError, Stencil, load_stencil, save_stencil
from .experiments import DEFAULT_SEED, EXPERIMENT_NAMES, ExperimentConfig, RunDir, merge, run_experiment
from .experiments import DISPERSION_SAMPLES, dispersion_csvs, simulate_csvs
from .regression import assemble_regression, build_skew_constraints, check_penalties
from .simulate import SimConfig
from .solvers import SolverOptions, solve
from .training import TrainingConfig, generate_training_set, load_training_set, save_training_set

# namespace entries that are not options of the subcommand
_NOT_OPTIONS = ("command", "config", "func", "parser")

# options without a default, which the flag or the config file must give
_REQUIRED = ("method", "stencil", "data")


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON file with option overrides")
    parser.add_argument("--out", type=Path, default="stencil-lab-out", help="output directory (default ./stencil-lab-out)")


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-sims", type=int, default=200, help="training samples (default 200)")
    parser.add_argument("--m-max", type=int, default=5, help="highest Fourier mode (default 5)")
    parser.add_argument("--grid-n", type=int, default=64, help="grid cells (default 64)")
    parser.add_argument("--length", type=float, default=1.0, help="domain length (default 1.0)")
    parser.add_argument("--sigma", type=float, default=0.0, help="derivative noise std (default 0)")
    parser.add_argument("--amplitude-std", type=float, default=1.0, help="mode amplitude std (default 1.0)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--radius", type=int, default=1, help="stencil radius R (default 1)")
    parser.add_argument("--lam", type=float, default=1e-6, help="Tikhonov weight (default 1e-6)")
    parser.add_argument("--box", type=float, default=100.0, help="box bound M (default 100)")
    parser.add_argument("--rho", type=float, default=0.05, help="ADMM penalty (default 0.05)")
    parser.add_argument("--max-iters", type=int, default=None, help="iteration cap (default per method)")
    parser.add_argument("--tol", type=float, default=1e-12, help="stopping tolerance (default 1e-12)")


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


def _options(args) -> dict:
    return {key: value for key, value in vars(args).items() if key not in _NOT_OPTIONS}


def _file_value(action: argparse.Action, value):
    """A config-file value converted as its option's command-line text
    would be: numbers by their text, null only where the option defaults to
    unset."""
    if value is None and action.default is None:
        return None
    if isinstance(value, (str, int, float)):
        try:
            converted = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    raise ValueError(f"config key {action.dest}: invalid value {json.dumps(value)}")


def _config_defaults(args) -> dict:
    """The config file's entries, checked against the subcommand's options
    and converted by each option's type."""
    config = _load_config(args.config)
    unknown = [key for key in config if key not in _options(args)]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    actions = {action.dest: action for action in args.parser._actions}
    return {key: _file_value(actions[key], value) for key, value in config.items()}


def _run_dir(args, **header) -> RunDir:
    return RunDir(args.out, command=args.command, **header, config=_options(args))


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


def _cmd_gen_data(args) -> int:
    run = _run_dir(args, seed=args.seed)
    cfg = TrainingConfig(n_sims=args.n_sims, m_max=args.m_max, grid=Grid1D(N=args.grid_n, L=args.length), seed=args.seed,
                         amplitude_std=args.amplitude_std, noise_std=args.sigma)
    save_training_set(generate_training_set(cfg), run.path("training_data.npz"))
    print(f"{cfg.n_sims} samples, N={cfg.grid.N}, m_max={cfg.m_max}, sigma={cfg.noise_std}")
    return _announce(run.root, run.finish())


def _cmd_learn(args) -> int:
    # the settings are checked before the data is loaded
    opts = SolverOptions(max_iters=args.max_iters, tol=args.tol, rho=args.rho)
    constraints = build_skew_constraints(args.radius)
    check_penalties(args.lam, args.box)
    ts = load_training_set(args.data)
    run = _run_dir(args, seed=ts.config.seed, training=asdict(ts.config))
    system = assemble_regression(ts, R=args.radius, lam=args.lam, M=args.box)
    report = run.record(args.method, solve(args.method, system, constraints, opts))
    stencil = Stencil(w=report.w_final, dx=ts.config.grid.dx)
    save_stencil(stencil, run.path("stencil.json"))
    run.write_json("solver_report.json", report.to_dict())
    run.write_trace("trace.csv", report)
    run.write_json("diagnostics.json", {"rows": system.rows, "cols": system.n_coeffs, "lambda": system.lam,
                                        "box_bound": system.M, "gram": system.gram.tolist()})
    print(f"method={report.method} iterations={report.iterations} stop_reason={report.stop_reason}")
    print(f"w = {stencil.w}")
    print(f"objective = {report.objective_trace[-1]:.12g}")
    return _announce(run.root, run.finish())


def _cmd_simulate(args) -> int:
    run = _run_dir(args)
    stencil = load_stencil(args.stencil)
    if not (isfinite(args.length) and args.length > 0):  # before it divides into a cell count
        raise ValueError(f"length must be positive and finite, got {args.length}")
    n = round(args.length / stencil.dx)
    if not isclose(n * stencil.dx, args.length, rel_tol=1e-12):
        raise ValueError(f"length {args.length} is not a whole number of stencil cells (dx={stencil.dx})")
    grid = Grid1D(N=n, L=args.length)
    dt = args.dt_ratio * grid.dx
    kinds = ("energy", "final_field", "spacetime") if args.snapshot_every else ("energy", "final_field")
    sim_cfg = SimConfig(dt=dt, n_steps=args.steps, grid=grid, stencil=stencil)
    result = simulate_csvs(run, sim_cfg, kinds, snapshot_every=args.snapshot_every or None, engine=args.engine)
    e = result.energy_series
    print(f"steps={args.steps} dt={dt:.6g} energy drift={np.max(np.abs(e - e[0])):.3e}")
    return _announce(run.root, run.finish())


def _cmd_dispersion(args) -> int:
    run = _run_dir(args)
    stencil = load_stencil(args.stencil)
    dt = args.dt_ratio * stencil.dx
    c_max = max_wave_speed(stencil)
    report = {
        "dt": dt,
        "c_max": c_max,
        "cfl_bound": cfl_bound(stencil) if c_max > 0 else None,
        "max_amplification_error": dispersion_csvs(run, stencil, dt, args.samples),
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


def _subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    # no abbreviations: a removed flag such as --dt must not be read as --dt-ratio
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stencil-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gen-data", _cmd_gen_data, "generate and save a training set")
    # --seed before --out keeps the manifest's config in its order
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"PRNG seed (default {DEFAULT_SEED})")
    _add_global_flags(p)
    _add_training_flags(p)

    p = _subcommand(sub, "learn", _cmd_learn, "learn a stencil")
    _add_global_flags(p)
    _add_solver_flags(p)
    p.add_argument("--method", choices=["pg", "nag", "admm", "ref"], help="solver (required, as a flag or a config key)")
    p.add_argument("--data", type=Path, help="training-data .npz from gen-data (required, as a flag or a config key)")

    p = _subcommand(sub, "simulate", _cmd_simulate, "Crank-Nicolson run for a saved stencil")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, help="stencil JSON file (required, as a flag or a config key)")
    p.add_argument("--length", type=float, default=1.0, help="domain length, a whole number of stencil cells (default 1.0)")
    p.add_argument("--dt-ratio", type=float, default=0.5, help="dt as multiple of dx (default 0.5)")
    p.add_argument("--steps", type=int, default=300, help="time steps (default 300)")
    p.add_argument("--snapshot-every", type=int, default=0, help="record E(x,t) every k steps (0 = off)")
    p.add_argument("--engine", choices=["dense", "spectral"], default="dense")

    p = _subcommand(sub, "dispersion", _cmd_dispersion, "symbol and CN dispersion curves")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, help="stencil JSON file (required, as a flag or a config key)")
    p.add_argument("--dt-ratio", type=float, default=0.5, help="dt as multiple of dx (default 0.5)")
    p.add_argument("--samples", type=int, default=DISPERSION_SAMPLES, help="theta samples in (0, pi] (default %(default)s)")

    p = _subcommand(sub, "experiment", _cmd_experiment, "run a scripted preset")
    _add_global_flags(p)
    p.set_defaults(out=None)  # unset flags leave the file's or the preset's values
    p.add_argument("--seed", type=int, default=None, help="training seed (default: the preset's)")
    p.add_argument("name", choices=[name.replace("_", "-") for name in EXPERIMENT_NAMES])
    p.add_argument("--sigma", type=float, default=None, help="derivative noise std (default: the preset's)")
    p.add_argument("--radius", type=int, default=None, help="learned stencil radius (default: the preset's)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None and args.command != "experiment":
            # the file's entries become the subcommand's defaults: flag > file > built-in
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        missing = [a for a in args.parser._actions if a.dest in _REQUIRED and getattr(args, a.dest) is None]
        if missing:
            args.parser.error(f"the following arguments are required: {', '.join(a.option_strings[0] for a in missing)}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
