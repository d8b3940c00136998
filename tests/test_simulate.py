import csv

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from stencil_lab.core import (
    FieldPair,
    Grid1D,
    NumericalError,
    Stencil,
    centered_difference_stencil,
    discrete_energy,
)
from stencil_lab.simulate import (
    DenseCNStepper,
    SimConfig,
    relative_l2_error,
    simulate,
    single_mode_initial_condition,
    traveling_wave_exact,
    write_energy_csv,
    write_final_field_csv,
    write_spacetime_csv,
)


def standard_config(grid, stencil=None, dt_ratio=0.5, n_steps=300):
    if stencil is None:
        stencil = centered_difference_stencil(grid)
    return SimConfig(dt=dt_ratio * grid.dx, n_steps=n_steps, grid=grid, stencil=stencil)


def dense_step(cfg, f):
    stepper = DenseCNStepper(cfg)
    return stepper.fields(stepper.advance(stepper.load(f)))


def state_norm(f):
    return np.sqrt(np.sum(f.E**2) + np.sum(f.H**2))


class TestCNStep:
    def test_zero_fields_fixed_point(self, grid):
        cfg = standard_config(grid)
        out = dense_step(cfg, FieldPair(np.zeros(64), np.zeros(64)))
        assert np.max(np.abs(out.E)) == 0.0 and np.max(np.abs(out.H)) == 0.0

    def test_single_mode_rotation(self, grid):
        """One CN step multiplies each characteristic mode amplitude by the
        unit-modulus Moebius factor: rotation angle 2 atan(dt |mu| / 2),
        amplitude exactly preserved."""
        cfg = standard_config(grid)
        init = single_mode_initial_condition(grid)
        out = dense_step(cfg, init)
        omega = 64.0 * np.sin(2 * np.pi / 64)  # |mu(theta_1)| for the centered stencil
        r = (1 + 0.5j * cfg.dt * omega) / (1 - 0.5j * cfg.dt * omega)
        p0 = scipy.fft.fft(init.E) + scipy.fft.fft(init.H)
        p1 = scipy.fft.fft(out.E) + scipy.fft.fft(out.H)
        assert abs(p1[1] - r * p0[1]) <= 1e-13 * abs(p0[1])
        assert abs(abs(p1[1]) - abs(p0[1])) <= 1e-13 * abs(p0[1])
        assert np.angle(p1[1] / p0[1]) == pytest.approx(2 * np.arctan(0.5 * cfg.dt * omega), rel=1e-12)

    def test_skew_step_preserves_norm(self, grid, rng):
        cfg = standard_config(grid)
        f = FieldPair(rng.normal(size=64), rng.normal(size=64))
        out = dense_step(cfg, f)
        assert state_norm(out) == pytest.approx(state_norm(f), rel=1e-13)

    def test_nonskew_step_changes_norm(self, grid):
        one_sided = Stencil(np.array([0.0, -64.0, 64.0]), grid.dx)
        cfg = standard_config(grid, one_sided)
        init = single_mode_initial_condition(grid)
        out = dense_step(cfg, init)
        assert abs(state_norm(out) - state_norm(init)) > 1e-8 * state_norm(init)


class TestSimulate:
    def test_energy_conserved_exact_fd(self, grid):
        result = simulate(single_mode_initial_condition(grid), standard_config(grid))
        assert np.max(np.abs(result.energy_series - result.energy_series[0])) <= 1e-11

    def test_energy_conserved_learned(self, grid, solver_reports):
        stencil = Stencil(solver_reports["ADMM"].w_final, grid.dx)
        result = simulate(single_mode_initial_condition(grid), standard_config(grid, stencil))
        assert np.max(np.abs(result.energy_series - result.energy_series[0])) <= 1e-11

    def test_large_time_step_still_conserves(self, grid):
        cfg = standard_config(grid, dt_ratio=4.0)
        result = simulate(single_mode_initial_condition(grid), cfg)
        e0 = result.energy_series[0]
        assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11

    def test_zero_steps(self, grid):
        init = single_mode_initial_condition(grid)
        result = simulate(init, standard_config(grid, n_steps=0))
        assert len(result.energy_series) == 1
        assert np.array_equal(result.final.E, init.E)

    def test_series_length_and_initial_entry(self, grid):
        init = single_mode_initial_condition(grid)
        result = simulate(init, standard_config(grid, n_steps=17))
        assert len(result.energy_series) == 18
        assert result.energy_series[0] == discrete_energy(init, grid)

    def test_time_reversibility(self, grid, rng):
        cfg = standard_config(grid, n_steps=40)
        init = FieldPair(rng.normal(size=64), rng.normal(size=64))
        forward = simulate(init, cfg)
        back_cfg = SimConfig(dt=-cfg.dt, n_steps=40, grid=grid, stencil=cfg.stencil)
        back = simulate(forward.final, back_cfg)
        assert np.max(np.abs(back.final.E - init.E)) <= 1e-11
        assert np.max(np.abs(back.final.H - init.H)) <= 1e-11

    def test_engines_agree(self, grid, rng):
        stencil = Stencil(np.array([0.5, -40.0, 0.0, 40.0, -0.5]), grid.dx)
        cfg = standard_config(grid, stencil, n_steps=100)
        init = FieldPair(rng.normal(size=64), rng.normal(size=64))
        dense = simulate(init, cfg, engine="dense")
        spectral = simulate(init, cfg, engine="spectral")
        scale = np.max(np.abs(dense.final.E))
        assert np.max(np.abs(dense.final.E - spectral.final.E)) <= 1e-12 * scale
        assert np.max(np.abs(dense.final.H - spectral.final.H)) <= 1e-12 * scale
        assert np.max(np.abs(dense.energy_series - spectral.energy_series)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 4), extra_cells=st.integers(0, 120),
           dt_ratio=st.floats(0.05, 4.0), backward=st.booleans(), n_steps=st.integers(0, 60))
    def test_random_skew_stencils_conserve_and_engines_agree(self, seed, R, extra_cells, dt_ratio, backward, n_steps):
        rng = np.random.default_rng(seed)
        grid = Grid1D(N=2 * R + 1 + extra_cells)
        half = rng.uniform(-1.0, 1.0, size=R) / grid.dx
        stencil = Stencil(np.concatenate([-half[::-1], [0.0], half]), grid.dx)
        cfg = standard_config(grid, stencil, dt_ratio=-dt_ratio if backward else dt_ratio, n_steps=n_steps)
        init = FieldPair(rng.normal(size=grid.N), rng.normal(size=grid.N))
        dense = simulate(init, cfg, engine="dense")
        spectral = simulate(init, cfg, engine="spectral")
        e0 = dense.energy_series[0]
        for result in (dense, spectral):
            assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11
        scale = np.max(np.abs(dense.final.E))
        assert np.max(np.abs(dense.final.E - spectral.final.E)) <= 1e-12 * scale
        assert np.max(np.abs(dense.final.H - spectral.final.H)) <= 1e-12 * scale
        assert np.max(np.abs(dense.energy_series - spectral.energy_series)) <= 1e-12

    def test_snapshots(self, grid):
        result = simulate(single_mode_initial_condition(grid), standard_config(grid, n_steps=12), snapshot_every=5)
        assert result.snapshot_steps == [0, 5, 10, 12]
        assert len(result.snapshots) == 4

    def test_unstable_run_raises(self, grid):
        bad = Stencil(np.array([-120.0, 0.0, -120.0]), grid.dx)  # symmetric: strongly non-skew
        with pytest.raises(NumericalError, match="non-finite"):
            simulate(single_mode_initial_condition(grid), standard_config(grid, bad, n_steps=400))

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_nonfinite_init_rejected(self, grid, engine):
        E = np.sin(2 * np.pi * grid.x)
        E[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            simulate(FieldPair(E, np.zeros(64)), standard_config(grid, n_steps=0), engine=engine)

    def test_mismatched_init_rejected(self, grid):
        with pytest.raises(ValueError):
            simulate(FieldPair(np.zeros(32), np.zeros(32)), standard_config(grid))


class TestTravelingWave:
    def test_initial_time(self, grid):
        f = traveling_wave_exact(grid, 0.0)
        assert np.allclose(f.E, np.sin(2 * np.pi * grid.x), atol=1e-15)
        assert np.allclose(f.H, np.cos(2 * np.pi * grid.x), atol=1e-15)

    def test_periodic_in_time(self, grid):
        a = traveling_wave_exact(grid, 0.25)
        b = traveling_wave_exact(grid, 0.25 + grid.L)
        assert np.max(np.abs(a.E - b.E)) <= 1e-12
        assert np.max(np.abs(a.H - b.H)) <= 1e-12

    def test_energy_independent_of_time(self, grid, rng):
        e0 = discrete_energy(traveling_wave_exact(grid, 0.0), grid)
        for t in rng.uniform(0, 10, size=5):
            assert discrete_energy(traveling_wave_exact(grid, t), grid) == pytest.approx(e0, rel=1e-13)


class TestRelativeError:
    def test_identical(self, grid):
        u = np.sin(2 * np.pi * grid.x)
        assert relative_l2_error(u, u, grid) == 0.0

    def test_doubled(self, grid):
        u = np.sin(2 * np.pi * grid.x)
        assert relative_l2_error(2 * u, u, grid) == pytest.approx(1.0, rel=1e-13)

    def test_orthogonal_perturbation(self, grid):
        from stencil_lab.core import norm

        ref = np.sin(2 * np.pi * grid.x)
        orth = np.cos(2 * np.pi * grid.x)
        eps = 1e-3
        expected = eps * norm(orth, grid) / norm(ref, grid)
        assert relative_l2_error(ref + eps * orth, ref, grid) == pytest.approx(expected, abs=1e-12)

    def test_zero_reference(self, grid):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(64), np.zeros(64), grid)


class TestExports:
    def test_csv_files(self, grid, tmp_path):
        cfg = standard_config(grid, n_steps=10)
        result = simulate(single_mode_initial_condition(grid), cfg, snapshot_every=5)
        write_energy_csv(result, cfg, tmp_path / "energy.csv")
        write_final_field_csv(result, grid, tmp_path / "final_field.csv")
        write_spacetime_csv(result, cfg, tmp_path / "spacetime.csv")

        with open(tmp_path / "energy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["step", "t", "energy", "energy_minus_initial"]
        assert len(rows) == 11
        assert float(rows[0]["energy"]) == pytest.approx(0.5)
        assert float(rows[3]["t"]) == pytest.approx(3 * cfg.dt)

        with open(tmp_path / "final_field.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x", "E", "H"]
        assert len(rows) == 64
        assert np.allclose([float(r["E"]) for r in rows], result.final.E)

        with open(tmp_path / "spacetime.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "x", "E"]
        assert len(rows) == len(result.snapshots) * 64
