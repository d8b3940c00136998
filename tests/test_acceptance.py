"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured margins (run with -s to see them inline).

All stochastic inputs are pinned to the default seed, so every number
asserted here is reproducible bit-for-bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from stencil_lab.analysis import cn_dispersion, convergence_study, modal_energies, symbol
from stencil_lab.core import (
    FieldPair,
    Grid1D,
    Stencil,
    apply_stencil,
    centered_difference_stencil,
    discrete_energy,
)
from stencil_lab.experiments import (
    ExperimentConfig,
    run_noisy,
    run_nonstandard,
)
from stencil_lab.regression import build_skew_constraints
from stencil_lab.simulate import SimConfig, simulate, single_mode_initial_condition
from stencil_lab.solvers import ADMM, NAG, PG, REFERENCE, SolverOptions, solve_nag, solve_pg
from stencil_lab.training import generate_training_set

from oracles import objective_and_gradient, operator_matrix


def learned_stencils(reports, dx):
    return {method: Stencil(rep.w_final, dx) for method, rep in reports.items()}


def random_skew_stencil(rng, R, dx):
    half = rng.normal(size=R)
    return Stencil(np.concatenate([-half[::-1], [0.0], half]), dx)


@pytest.fixture(scope="module")
def convergence_rows(grid):
    cfg = ExperimentConfig(name="convergence")
    base_dx = cfg.training.grid.dx

    def provider(g):
        from stencil_lab.experiments import learn_stencil

        ts = generate_training_set(replace(cfg.training, grid=g))
        stencil, _ = learn_stencil(ts, 1, ADMM, cfg.lam, cfg.box_bound * base_dx / g.dx)
        return stencil

    return convergence_study(provider, (64, 128, 256, 512), T=10.0, dt_ratio=0.2)


def test_criterion_01_skew_constraint_residual(solver_reports):
    cs = build_skew_constraints(1)
    residuals = {m: cs.residual(rep.w_final) for m, rep in solver_reports.items()}
    assert residuals[PG] <= 1e-8
    assert residuals[NAG] <= 1e-8
    assert residuals[ADMM] <= 1e-10
    assert residuals[REFERENCE] <= 1e-10
    print(f"\n[criterion  1] PASS - constraint residuals: "
          f"PG={residuals[PG]:.1e} NAG={residuals[NAG]:.1e} "
          f"ADMM={residuals[ADMM]:.1e} REF={residuals[REFERENCE]:.1e}")


def test_criterion_02_table1_coefficients(solver_reports, grid):
    tol = {PG: 1e-8, NAG: 1e-8, ADMM: 1e-10, REFERENCE: 1e-10}
    w_cd = 1.0 / (2.0 * grid.dx)
    for method, rep in solver_reports.items():
        w = rep.w_final
        assert abs(w[1]) <= tol[method], method
        assert abs(w[0] + w[2]) <= tol[method], method
        assert abs(w[2] - w_cd) / w_cd <= 0.05, method
    for a in (NAG, ADMM, REFERENCE):
        for b in (NAG, ADMM, REFERENCE):
            assert np.max(np.abs(solver_reports[a].w_final - solver_reports[b].w_final)) <= 1e-3
    w1 = solver_reports[ADMM].w_final[2]
    print(f"[criterion  2] PASS - learned w_+1 = {w1:.6f} "
          f"({100 * abs(w1 - w_cd) / w_cd:.2f}% from centered difference)")


def test_criterion_03_convergence_orders(convergence_rows):
    errors = [row.error for row in convergence_rows]
    orders = [row.order for row in convergence_rows[1:]]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    for order in orders:
        assert 1.8 <= order <= 2.4
    print(f"[criterion  3] PASS - errors {['%.4g' % e for e in errors]} "
          f"orders {['%.2f' % o for o in orders]}")


def test_criterion_04_energy_conservation(solver_reports, grid):
    stencils = {"exact_fd": centered_difference_stencil(grid)}
    stencils.update(learned_stencils(solver_reports, grid.dx))
    init = single_mode_initial_condition(grid)
    worst = 0.0
    for label, stencil in stencils.items():
        for dt_ratio in (0.5, 1.0):  # standard step and doubled
            cfg = SimConfig(dt=dt_ratio * grid.dx, n_steps=300, grid=grid, stencil=stencil)
            result = simulate(init, cfg)
            e0 = result.energy_series[0]
            drift = np.max(np.abs(result.energy_series - e0)) / e0
            assert drift <= 1e-10, (label, dt_ratio)
            worst = max(worst, drift)
    print(f"[criterion  4] PASS - worst relative energy drift {worst:.2e} "
          f"over 300 steps (incl. doubled dt)")


def test_criterion_05_cn_nondissipation(solver_reports, grid, rng):
    thetas = np.linspace(np.pi / 4096, np.pi, 4096)
    stencils = [centered_difference_stencil(grid)]
    stencils += list(learned_stencils(solver_reports, grid.dx).values())
    stencils += [random_skew_stencil(rng, R, grid.dx) for R in (1, 2, 3, 4)]
    worst = 0.0
    for stencil in stencils:
        curves = cn_dispersion(stencil, 0.5 * grid.dx, thetas)
        worst = max(worst, float(np.max(np.abs(curves.amplification - 1.0))))
    assert worst <= 1e-13
    print(f"[criterion  5] PASS - max | |mu_CN| - 1 | = {worst:.2e} across "
          f"{len(stencils)} skew stencils x 4096 angles")


def test_criterion_06_modal_conservation(solver_reports, grid, rng):
    initial_conditions = [
        single_mode_initial_condition(grid),
        FieldPair(rng.normal(size=grid.N), rng.normal(size=grid.N)),
    ]
    stencils = [
        Stencil(solver_reports[ADMM].w_final, grid.dx),
        random_skew_stencil(rng, 3, grid.dx),
    ]
    worst = 0.0
    for stencil in stencils:
        cfg = SimConfig(dt=0.5 * grid.dx, n_steps=300, grid=grid, stencil=stencil)
        for init in initial_conditions:
            m0 = modal_energies(init, grid)
            floor = 1e-11 * m0.sum()  # empty modes measured against the total
            for fields in simulate(init, cfg, snapshot_every=1).snapshots[1:]:
                drift = np.abs(modal_energies(fields, grid) - m0)
                rel = np.max(drift / np.maximum(m0, floor))
                worst = max(worst, rel)
                assert rel <= 1e-11
    print(f"[criterion  6] PASS - worst per-mode relative energy drift {worst:.2e}")


def test_criterion_07_nonstandard_recovery(tmp_path):
    report = run_nonstandard(ExperimentConfig(name="nonstandard", output_dir=tmp_path))
    err_qp = report["relative_error_learned"]
    err_cd = report["relative_error_centered4"]
    assert err_qp <= 1e-6
    assert err_cd >= 100 * err_qp
    print(f"[criterion  7] PASS - recovery error {err_qp:.2e}, "
          f"centered-difference error {err_cd:.2e} ({err_cd / err_qp:.0f}x larger)")


def test_criterion_08_noisy_training_contrast(tmp_path):
    report = run_noisy(ExperimentConfig(name="noisy", output_dir=tmp_path))
    ls = report["runs"]["unconstrained_ls"]
    qp = report["runs"]["constrained_qp"]
    assert ls["status"] == "ok"
    assert ls["energy_ratio"] >= 10.0
    assert qp["relative_energy_drift"] <= 1e-8
    assert report["constrained_vs_clean_centered_error"] <= 0.05
    print(f"[criterion  8] PASS - sigma={report['sigma']}: unconstrained energy "
          f"x{ls['energy_ratio']:.2e}, constrained drift {qp['relative_energy_drift']:.1e}, "
          f"field error vs clean run {100 * report['constrained_vs_clean_centered_error']:.2f}%")


def test_criterion_09_solver_properties(system_r1, constraints_r1, solver_reports):
    # equal-iteration-budget comparison, far from the float evaluation floor
    budget = SolverOptions(max_iters=120, tol=1e-300)
    rep_pg = solve_pg(system_r1, constraints_r1, budget)
    rep_nag = solve_nag(system_r1, constraints_r1, budget)
    diffs = np.diff(rep_pg.objective_trace)
    assert np.all(diffs <= 1e-14 * np.maximum(1.0, np.abs(rep_pg.objective_trace[1:])))
    assert np.any(np.diff(rep_nag.objective_trace) > 0)
    assert rep_nag.objective_trace[-1] <= rep_pg.objective_trace[-1]

    f_ref = solver_reports[REFERENCE].objective_trace[-1]
    admm_first = solver_reports[ADMM].objective_trace[0]
    assert abs(admm_first - f_ref) / f_ref <= 1e-6

    finals = np.array([rep.objective_trace[-1] for rep in solver_reports.values()])
    assert (finals.max() - finals.min()) / finals.min() <= 1e-4
    print(f"[criterion  9] PASS - PG monotone, NAG oscillates "
          f"({int(np.sum(np.diff(rep_nag.objective_trace) > 0))} increases) and beats PG at equal "
          f"budget; ADMM first-iterate gap {(admm_first - f_ref) / f_ref:.1e}; "
          f"final objective spread {(finals.max() - finals.min()) / finals.min():.1e}")


def test_criterion_10_oracle_equivalences(system_r1, grid, rng):
    # circulant matrix multiplication against the direct convolution
    worst_conv = 0.0
    for _ in range(20):
        R = int(rng.integers(1, 5))
        N = int(rng.choice([16, 64]))
        s = Stencil(rng.normal(size=2 * R + 1), 1.0 / N)
        g = Grid1D(N=N)
        u = rng.normal(size=N)
        dv = operator_matrix(s, N) @ u
        av = apply_stencil(s, u, g)
        worst_conv = max(worst_conv, np.max(np.abs(dv - av)) / max(1.0, np.max(np.abs(dv))))
    assert worst_conv <= 1e-13

    # analytic gradient against central differences
    worst_grad = 0.0
    for _ in range(5):
        w = rng.normal(size=3) * 30
        _, grad = objective_and_gradient(system_r1, w)
        fd = np.zeros(3)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fp, _ = objective_and_gradient(system_r1, w + e)
            fm, _ = objective_and_gradient(system_r1, w - e)
            fd[j] = (fp - fm) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
    assert worst_grad <= 1e-5

    # block-system eigenvalues against +-i |mu(theta_m)| (dense eigensolve)
    N = 32
    s = random_skew_stencil(rng, 2, 1.0 / N)
    D = operator_matrix(s, N)
    B = np.block([[np.zeros((N, N)), D], [D, np.zeros((N, N))]])
    eig = np.linalg.eigvals(B)
    mags = np.abs(symbol(s, 2 * np.pi * np.arange(N) / N).values)
    expected = np.sort(np.concatenate([mags, -mags]))
    scale = max(1.0, mags.max())
    assert np.max(np.abs(eig.real)) <= 1e-10 * scale
    eig_err = np.max(np.abs(np.sort(eig.imag) - expected)) / scale
    assert eig_err <= 1e-10

    # total energy against the modal decomposition
    worst_parseval = 0.0
    for _ in range(10):
        f = FieldPair(rng.normal(size=64), rng.normal(size=64))
        total = discrete_energy(f, Grid1D(N=64))
        worst_parseval = max(worst_parseval, abs(modal_energies(f, Grid1D(N=64)).sum() - total) / total)
    assert worst_parseval <= 1e-12

    print(f"[criterion 10] PASS - matrix/conv {worst_conv:.1e}, gradient {worst_grad:.1e}, "
          f"eigenvalues {eig_err:.1e}, Parseval {worst_parseval:.1e}")
