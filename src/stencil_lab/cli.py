"""Command-line interface.

    stencil-lab gen-data    write a training-data file
    stencil-lab learn       learn a stencil from (generated or saved) data
    stencil-lab simulate    Crank-Nicolson run for a saved stencil
    stencil-lab dispersion  symbol and CN dispersion curves for a stencil
    stencil-lab converge    re-learn per resolution and tabulate errors
    stencil-lab experiment  scripted presets (table1, nonstandard, noisy,
                            solver-bench, energy)

Global flags: --config FILE (JSON overrides), --seed, --out DIR.
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import cfl_bound, cn_dispersion, max_wave_speed, symbol, write_dispersion_csv, write_symbol_csv
from .core import Grid1D, NumericalError, load_stencil, save_stencil
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    learn_stencil,
    run_convergence,
    run_experiment,
)
from .regression import assemble_regression, dump_diagnostics
from .simulate import (
    SimConfig,
    simulate,
    single_mode_initial_condition,
    write_energy_csv,
    write_final_field_csv,
    write_spacetime_csv,
)
from .solvers import SolverOptions
from .training import TrainingConfig, generate_training_set, load_training_set, save_training_set


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON file with option overrides")
    parser.add_argument("--seed", type=int, default=None, help=f"PRNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--out", type=Path, default=None, help="output directory (default ./stencil-lab-out)")


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-sims", type=int, default=None, help="training samples (default 200)")
    parser.add_argument("--m-max", type=int, default=None, help="highest Fourier mode (default 5)")
    parser.add_argument("--grid-n", type=int, default=None, help="grid cells (default 64)")
    parser.add_argument("--length", type=float, default=None, help="domain length (default 1.0)")
    parser.add_argument("--sigma", type=float, default=None, help="derivative noise std (default 0)")
    parser.add_argument("--amplitude-std", type=float, default=None, help="mode amplitude std (default 1.0)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--radius", type=int, default=None, help="stencil radius R (default 1)")
    parser.add_argument("--lam", type=float, default=None, help="Tikhonov weight (default 1e-6)")
    parser.add_argument("--box", type=float, default=None, help="box bound M (default 100)")
    parser.add_argument("--rho", type=float, default=None, help="ADMM penalty (default 0.05)")
    parser.add_argument("--max-iters", type=int, default=None, help="iteration cap (default per method)")
    parser.add_argument("--tol", type=float, default=None, help="stopping tolerance (default 1e-12)")


def _pick(cli_value, config: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


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


def _training_config(args, config: dict) -> TrainingConfig:
    grid = Grid1D(
        N=int(_pick(args.grid_n, config, "grid_n", 64)),
        L=float(_pick(args.length, config, "length", 1.0)),
    )
    return TrainingConfig(
        n_sims=int(_pick(args.n_sims, config, "n_sims", 200)),
        m_max=int(_pick(args.m_max, config, "m_max", 5)),
        grid=grid,
        seed=int(_pick(args.seed, config, "seed", DEFAULT_SEED)),
        amplitude_std=float(_pick(args.amplitude_std, config, "amplitude_std", 1.0)),
        noise_std=float(_pick(args.sigma, config, "sigma", 0.0)),
    )


def _solver_options(args, config: dict) -> SolverOptions:
    return SolverOptions(
        max_iters=_pick(args.max_iters, config, "max_iters", None),
        tol=float(_pick(args.tol, config, "tol", 1e-12)),
        rho=float(_pick(args.rho, config, "rho", 0.05)),
    )


def _out_dir(args, config: dict) -> Path:
    out = Path(_pick(args.out, config, "out", "stencil-lab-out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_data(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    cfg = _training_config(args, config)
    ts = generate_training_set(cfg)
    path = out / "training_data.npz"
    save_training_set(ts, path)
    print(f"wrote {path} ({cfg.n_sims} samples, N={cfg.grid.N}, m_max={cfg.m_max}, sigma={cfg.noise_std})")
    return 0


def _cmd_learn(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    if args.data is not None:
        ts = load_training_set(args.data)
    else:
        ts = generate_training_set(_training_config(args, config))
    radius = int(_pick(args.radius, config, "radius", 1))
    lam = float(_pick(args.lam, config, "lam", 1e-6))
    box = float(_pick(args.box, config, "box", 100.0))
    opts = _solver_options(args, config)
    stencil, report = learn_stencil(ts, radius, args.method, lam=lam, M=box, opts=opts)
    save_stencil(stencil, out / "stencil.json")
    report.save_json(out / "solver_report.json")
    report.save_csv(out / "trace.csv")
    dump_diagnostics(assemble_regression(ts, R=radius, lam=lam, M=box), out / "diagnostics.json")
    print(f"method={report.method} iterations={report.iterations} stop_reason={report.stop_reason}")
    if report.stop_reason == "max_iters":
        print(f"warning: {report.method} stopped at its iteration cap ({report.iterations}); not converged", file=sys.stderr)
    print(f"w = {stencil.w}")
    print(f"objective = {report.objective_trace[-1]:.12g}  eq_residual = {report.eq_residual_trace[-1]:.3e}")
    print(f"wrote {out / 'stencil.json'}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    stencil = load_stencil(args.stencil)
    length = float(_pick(args.length, config, "length", 1.0))
    default_n = round(length / stencil.dx)
    grid = Grid1D(N=int(_pick(args.grid_n, config, "grid_n", default_n)), L=length)
    dt = args.dt if args.dt is not None else float(_pick(args.dt_ratio, config, "dt_ratio", 0.5)) * grid.dx
    n_steps = int(_pick(args.steps, config, "steps", 300))
    snapshot = int(_pick(args.snapshot_every, config, "snapshot_every", 0)) or None
    sim_cfg = SimConfig(dt=dt, n_steps=n_steps, grid=grid, stencil=stencil)
    result = simulate(single_mode_initial_condition(grid), sim_cfg, snapshot_every=snapshot, engine=args.engine)
    write_energy_csv(result, sim_cfg, out / "energy.csv")
    write_final_field_csv(result, grid, out / "final_field.csv")
    written = ["energy.csv", "final_field.csv"]
    if snapshot:
        write_spacetime_csv(result, sim_cfg, out / "spacetime.csv")
        written.append("spacetime.csv")
    e = result.energy_series
    print(f"steps={n_steps} dt={dt:.6g} energy drift={np.max(np.abs(e - e[0])):.3e}")
    print(f"wrote {', '.join(str(out / f) for f in written)}")
    return 0


def _cmd_dispersion(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    stencil = load_stencil(args.stencil)
    dt = args.dt if args.dt is not None else float(_pick(args.dt_ratio, config, "dt_ratio", 0.5)) * stencil.dx
    n = int(_pick(args.samples, config, "samples", 512))
    thetas = np.linspace(np.pi / n, np.pi, n)
    curves = cn_dispersion(stencil, dt, thetas)
    write_dispersion_csv(curves, dt, stencil.dx, out / "dispersion.csv")
    write_symbol_csv(symbol(stencil, np.linspace(-np.pi, np.pi, 2 * n)), out / "symbol.csv")
    c_max = max_wave_speed(stencil)
    report = {
        "dt": dt,
        "c_max": c_max,
        "cfl_bound": cfl_bound(stencil) if c_max > 0 else None,
        "max_amplification_error": float(np.max(np.abs(curves.amplification - 1.0))),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"c_max={report['c_max']:.6g} cfl_bound={report['cfl_bound']}")
    print(f"wrote {out / 'dispersion.csv'}, {out / 'symbol.csv'}")
    return 0


def _parse_resolutions(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad --resolutions list '{text}'") from exc
    if not values:
        raise ValueError("empty --resolutions list")
    return values


def _cmd_converge(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    cfg = ExperimentConfig(
        name="convergence",
        training=_training_config(args, config),
        radius=int(_pick(args.radius, config, "radius", 1)),
        lam=float(_pick(args.lam, config, "lam", 1e-6)),
        box_bound=float(_pick(args.box, config, "box", 100.0)),
        solver_opts=_solver_options(args, config),
        resolutions=_parse_resolutions(_pick(args.resolutions, config, "resolutions", "64,128,256,512")),
        t_final=float(_pick(args.t_final, config, "t_final", 10.0)),
        convergence_dt_ratio=float(_pick(args.dt_ratio, config, "dt_ratio", 0.2)),
        output_dir=out,
    )
    report = run_convergence(cfg)
    for row in report["rows"]:
        order = "--" if row["order"] is None else f"{row['order']:.2f}"
        print(f"N={row['N_x']:5d}  dx={row['dx']:.6g}  err={row['error']:.6g}  order={order}")
    print(f"wrote {out / 'convergence.csv'}")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args, config)
    name = args.name.replace("-", "_")
    base = {k: v for k, v in config.items() if k not in ("out", "seed")}
    base["name"] = name
    base["output_dir"] = str(out)
    cfg = ExperimentConfig.from_dict(base)
    seed = _pick(args.seed, config, "seed", None)
    if seed is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "training": {**cfg.to_dict()["training"], "seed": int(seed)}})
    if args.sigma is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "noisy_sigma": float(args.sigma)})
    if args.radius is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "radius": int(args.radius)})
    report = run_experiment(cfg)
    print(json.dumps(report, indent=2, default=str))
    print(f"outputs in {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stencil-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a training set")
    _add_global_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("learn", help="learn a stencil")
    _add_global_flags(p)
    _add_training_flags(p)
    _add_solver_flags(p)
    p.add_argument("--method", required=True, choices=["pg", "nag", "admm", "ref"])
    p.add_argument("--data", type=Path, default=None, help="training-data .npz (generated if omitted)")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("simulate", help="Crank-Nicolson run for a saved stencil")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, required=True, help="stencil JSON file")
    p.add_argument("--grid-n", type=int, default=None, help="grid cells (default: from stencil dx)")
    p.add_argument("--length", type=float, default=None)
    p.add_argument("--dt", type=float, default=None, help="explicit time step")
    p.add_argument("--dt-ratio", type=float, default=None, help="dt as multiple of dx (default 0.5)")
    p.add_argument("--steps", type=int, default=None, help="time steps (default 300)")
    p.add_argument("--snapshot-every", type=int, default=None, help="record E(x,t) every k steps (0 = off)")
    p.add_argument("--engine", choices=["dense", "spectral"], default="dense")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dispersion", help="symbol and CN dispersion curves")
    _add_global_flags(p)
    p.add_argument("--stencil", type=Path, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--dt-ratio", type=float, default=None)
    p.add_argument("--samples", type=int, default=None, help="theta samples in (0, pi] (default 512)")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("converge", help="per-resolution learning and error table")
    _add_global_flags(p)
    _add_training_flags(p)
    _add_solver_flags(p)
    p.add_argument("--resolutions", type=str, default=None, help="comma list (default 64,128,256,512)")
    p.add_argument("--t-final", type=float, default=None, help="final time (default 10)")
    p.add_argument("--dt-ratio", type=float, default=None, help="dt/dx (default 0.2)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("experiment", help="run a scripted preset")
    _add_global_flags(p)
    p.add_argument("name", choices=["table1", "convergence", "energy", "dispersion", "nonstandard", "noisy", "solver-bench"])
    p.add_argument("--sigma", type=float, default=None, help="noise level for the noisy preset")
    p.add_argument("--radius", type=int, default=None, help="stencil radius override")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
