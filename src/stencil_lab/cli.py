"""Command-line interface.

    stencil-lab gen-data    write a training-data file
    stencil-lab learn       learn a stencil from (generated or saved) data
    stencil-lab simulate    Crank-Nicolson run for a saved stencil
    stencil-lab dispersion  symbol and CN dispersion curves for a stencil
    stencil-lab converge    re-learn per resolution and tabulate errors
    stencil-lab experiment  scripted presets (table1, nonstandard, noisy,
                            solver-bench, energy)

Global flags: --config FILE (JSON overrides), --seed, --out DIR.

A config file's keys are the subcommand's long option names with `_`
(n_sims, grid_n, dt_ratio, ...) and become that subcommand's defaults, so
a flag beats the file and the file beats the built-in default. The
`experiment` config file instead holds ExperimentConfig fields, nested as
in a preset manifest's `config`, and --seed, --sigma and --radius are
merged onto it. Every subcommand writes manifest.json (subcommand or
preset, version, seed, resolved settings, outputs, solver stop reasons)
and warns on stderr about each solve stopped at its iteration cap.

Exit codes: 0 success, 1 numerical failure, 2 configuration error
(including an unknown config key).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import cfl_bound, cn_dispersion, max_wave_speed, symbol, write_dispersion_csv, write_symbol_csv
from .core import Grid1D, NumericalError, Stencil, load_stencil, save_stencil
from .experiments import DEFAULT_SEED, ExperimentConfig, RunDir, merge, run_convergence, run_experiment, simulate_csvs
from .regression import assemble_regression, build_skew_constraints, dump_diagnostics
from .simulate import SimConfig
from .solvers import SolverOptions, solve
from .training import TrainingConfig, generate_training_set, load_training_set, save_training_set

# namespace entries that are not options of the subcommand
_NOT_OPTIONS = ("command", "config", "func", "parser")


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON file with option overrides")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"PRNG seed (default {DEFAULT_SEED})")
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
    would be: numbers by their text, lists as comma lists, null only where
    the option defaults to unset."""
    if value is None and action.default is None:
        return None
    if isinstance(value, (str, int, float, list)):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            converted = action.type(text) if action.type is not None else text
        except (ValueError, argparse.ArgumentTypeError):
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


def _training_config(args) -> TrainingConfig:
    return TrainingConfig(
        n_sims=args.n_sims,
        m_max=args.m_max,
        grid=Grid1D(N=args.grid_n, L=args.length),
        seed=args.seed,
        amplitude_std=args.amplitude_std,
        noise_std=args.sigma,
    )


def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iters=args.max_iters, tol=args.tol, rho=args.rho)


def _run_dir(args) -> RunDir:
    return RunDir(args.out, command=args.command, seed=args.seed, config=_options(args))


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
    run = _run_dir(args)
    cfg = _training_config(args)
    save_training_set(generate_training_set(cfg), run.path("training_data.npz"))
    print(f"{cfg.n_sims} samples, N={cfg.grid.N}, m_max={cfg.m_max}, sigma={cfg.noise_std}")
    return _announce(run.root, run.finish())


def _cmd_learn(args) -> int:
    run = _run_dir(args)
    ts = load_training_set(args.data) if args.data is not None else generate_training_set(_training_config(args))
    system = assemble_regression(ts, R=args.radius, lam=args.lam, M=args.box)
    report = run.record(args.method, solve(args.method, system, build_skew_constraints(args.radius), _solver_options(args)))
    stencil = Stencil(w=report.w_final, dx=ts.config.grid.dx)
    save_stencil(stencil, run.path("stencil.json"))
    report.save_json(run.path("solver_report.json"))
    report.save_csv(run.path("trace.csv"))
    dump_diagnostics(system, run.path("diagnostics.json"))
    print(f"method={report.method} iterations={report.iterations} stop_reason={report.stop_reason}")
    print(f"w = {stencil.w}")
    print(f"objective = {report.objective_trace[-1]:.12g}  eq_residual = {report.eq_residual_trace[-1]:.3e}")
    return _announce(run.root, run.finish())


def _cmd_simulate(args) -> int:
    run = _run_dir(args)
    stencil = load_stencil(args.stencil)
    grid = Grid1D(N=args.grid_n if args.grid_n is not None else round(args.length / stencil.dx), L=args.length)
    dt = args.dt if args.dt is not None else args.dt_ratio * grid.dx
    kinds = ("energy", "final_field", "spacetime") if args.snapshot_every else ("energy", "final_field")
    sim_cfg = SimConfig(dt=dt, n_steps=args.steps, grid=grid, stencil=stencil)
    result = simulate_csvs(run, sim_cfg, kinds, snapshot_every=args.snapshot_every or None, engine=args.engine)
    e = result.energy_series
    print(f"steps={args.steps} dt={dt:.6g} energy drift={np.max(np.abs(e - e[0])):.3e}")
    return _announce(run.root, run.finish())


def _cmd_dispersion(args) -> int:
    run = _run_dir(args)
    stencil = load_stencil(args.stencil)
    dt = args.dt if args.dt is not None else args.dt_ratio * stencil.dx
    n = args.samples
    thetas = np.linspace(np.pi / n, np.pi, n)
    curves = cn_dispersion(stencil, dt, thetas)
    write_dispersion_csv(curves, dt, stencil.dx, run.path("dispersion.csv"))
    write_symbol_csv(symbol(stencil, np.linspace(-np.pi, np.pi, 2 * n)), run.path("symbol.csv"))
    c_max = max_wave_speed(stencil)
    report = {
        "dt": dt,
        "c_max": c_max,
        "cfl_bound": cfl_bound(stencil) if c_max > 0 else None,
        "max_amplification_error": float(np.max(np.abs(curves.amplification - 1.0))),
    }
    print(f"c_max={report['c_max']:.6g} cfl_bound={report['cfl_bound']}")
    return _announce(run.root, run.finish(report))


def _resolutions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got '{text}'") from None


def _cmd_converge(args) -> int:
    cfg = ExperimentConfig(
        name="convergence",
        training=_training_config(args),
        radius=args.radius,
        lam=args.lam,
        box_bound=args.box,
        solver_opts=_solver_options(args),
        resolutions=args.resolutions,
        t_final=args.t_final,
        convergence_dt_ratio=args.dt_ratio,
        output_dir=args.out,
    )
    report = run_convergence(cfg)
    for row in report["rows"]:
        order = "--" if row["order"] is None else f"{row['order']:.2f}"
        print(f"N={row['N_x']:5d}  dx={row['dx']:.6g}  err={row['error']:.6g}  order={order}")
    return _announce(args.out, _read_manifest(args.out))


def _cmd_experiment(args) -> int:
    changes = {**_load_config(args.config), "name": args.name.replace("-", "_")}
    flags = {"output_dir": args.out, "noisy_sigma": args.sigma, "radius": args.radius}
    changes.update({key: value for key, value in flags.items() if value is not None})
    cfg = ExperimentConfig.from_dict(changes)
    if args.seed is not None:
        cfg = merge(cfg, {"training": {"seed": args.seed}})
    report = run_experiment(cfg)
    print(json.dumps(report, indent=2, default=str))
    _warn_capped(_read_manifest(cfg.output_dir)["solves"])
    print(f"outputs in {cfg.output_dir}", file=sys.stderr)
    return 0


def _subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stencil-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gen-data", _cmd_gen_data, "generate and save a training set")
    _add_global_flags(p)
    _add_training_flags(p)

    p = _subcommand(sub, "learn", _cmd_learn, "learn a stencil")
    _add_global_flags(p)
    _add_training_flags(p)
    _add_solver_flags(p)
    p.add_argument("--method", required=True, choices=["pg", "nag", "admm", "ref"])
    p.add_argument("--data", type=Path, default=None, help="training-data .npz (generated if omitted)")

    p = _subcommand(sub, "simulate", _cmd_simulate, "Crank-Nicolson run for a saved stencil")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, required=True, help="stencil JSON file")
    p.add_argument("--grid-n", type=int, default=None, help="grid cells (default: from stencil dx)")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None, help="explicit time step")
    p.add_argument("--dt-ratio", type=float, default=0.5, help="dt as multiple of dx (default 0.5)")
    p.add_argument("--steps", type=int, default=300, help="time steps (default 300)")
    p.add_argument("--snapshot-every", type=int, default=0, help="record E(x,t) every k steps (0 = off)")
    p.add_argument("--engine", choices=["dense", "spectral"], default="dense")

    p = _subcommand(sub, "dispersion", _cmd_dispersion, "symbol and CN dispersion curves")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--dt-ratio", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=512, help="theta samples in (0, pi] (default 512)")

    p = _subcommand(sub, "converge", _cmd_converge, "per-resolution learning and error table")
    _add_global_flags(p)
    _add_training_flags(p)
    _add_solver_flags(p)
    p.add_argument("--resolutions", type=_resolutions, default="64,128,256,512", help="comma list (default 64,128,256,512)")
    p.add_argument("--t-final", type=float, default=10.0, help="final time (default 10)")
    p.add_argument("--dt-ratio", type=float, default=0.2, help="dt/dx (default 0.2)")

    p = _subcommand(sub, "experiment", _cmd_experiment, "run a scripted preset")
    _add_global_flags(p)
    p.set_defaults(seed=None, out=None)  # unset flags leave the file's or the preset's values
    p.add_argument("name", choices=["table1", "convergence", "energy", "dispersion", "nonstandard", "noisy", "solver-bench"])
    p.add_argument("--sigma", type=float, default=None, help="noise level for the noisy preset")
    p.add_argument("--radius", type=int, default=None, help="stencil radius override")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None and args.command != "experiment":
            # the file's entries become the subcommand's defaults: flag > file > built-in
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
