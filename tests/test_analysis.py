import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencil_lab.analysis import (
    ConvergenceRow,
    cfl_bound,
    cn_dispersion,
    convergence_study,
    max_wave_speed,
    modal_energies,
    symbol,
    write_convergence_csv,
    write_dispersion_csv,
    write_symbol_csv,
)
from stencil_lab.core import (
    FieldPair,
    Grid1D,
    Stencil,
    centered_difference_stencil,
    discrete_energy,
    operator_matrix,
)
from stencil_lab.simulate import DenseCNStepper, SimConfig, single_mode_initial_condition


def random_skew_stencil(rng, R, dx):
    half = rng.normal(size=R)
    return Stencil(np.concatenate([-half[::-1], [0.0], half]), dx)


class TestSymbol:
    def test_centered_difference(self, grid):
        cd = centered_difference_stencil(grid)
        thetas = np.linspace(-np.pi, np.pi, 33)
        curve = symbol(cd, thetas)
        assert np.max(np.abs(curve.values - 64j * np.sin(thetas))) <= 1e-12 * 64

    def test_zero_frequency_is_coefficient_sum(self, rng):
        w = rng.normal(size=5)
        assert symbol(Stencil(w, 0.1), [0.0]).values[0] == pytest.approx(w.sum(), rel=1e-14)
        skew = random_skew_stencil(rng, 2, 0.1)
        assert abs(symbol(skew, [0.0]).values[0]) <= 1e-14

    def test_matches_operator_eigenvalues(self, rng):
        """mu(2 pi m / N) is the eigenvalue for the Fourier eigenvector."""
        N = 16
        s = Stencil(rng.normal(size=7), 1.0 / N)
        D = operator_matrix(s, N)
        for m in range(N):
            v = np.exp(2j * np.pi * m * np.arange(N) / N)
            mu = symbol(s, [2 * np.pi * m / N]).values[0]
            assert np.max(np.abs(D @ v - mu * v)) <= 1e-12 * max(1.0, abs(mu))

    def test_skew_symbol_imaginary_and_odd(self, rng):
        thetas = np.linspace(-np.pi, np.pi, 101)
        for R in (1, 2, 4):
            s = random_skew_stencil(rng, R, 1.0 / 64)
            vals = symbol(s, thetas).values
            scale = np.max(np.abs(vals))
            assert np.max(np.abs(vals.real)) <= 1e-13 * scale
            assert np.max(np.abs(vals + vals[::-1])) <= 1e-13 * scale  # mu(-t) = -mu(t)

    def test_solver_outputs_have_skew_symbols(self, solver_reports, grid):
        thetas = np.linspace(-np.pi, np.pi, 513)
        for rep in solver_reports.values():
            vals = symbol(Stencil(rep.w_final, grid.dx), thetas).values
            scale = np.max(np.abs(vals))
            assert np.max(np.abs(vals.real)) <= 1e-10 * scale
            assert np.max(np.abs(vals + vals[::-1])) <= 1e-10 * scale


class TestWaveSpeed:
    def test_centered_difference(self, grid):
        assert max_wave_speed(centered_difference_stencil(grid)) == pytest.approx(64.0, abs=1e-10)

    def test_zero_stencil(self):
        assert max_wave_speed(Stencil(np.zeros(3), 0.1)) == 0.0

    def test_homogeneity(self, rng):
        s = random_skew_stencil(rng, 3, 1.0 / 64)
        tripled = Stencil(3 * s.w, s.dx)
        assert max_wave_speed(tripled) == pytest.approx(3 * max_wave_speed(s), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 6), kind=st.sampled_from(["general", "skew", "zero", "single"]))
    def test_against_brute_force(self, seed, R, kind):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2 * R + 1)
        if kind == "skew":
            w = np.concatenate([-w[R + 1:][::-1], [0.0], w[R + 1:]])
        elif kind == "zero":
            w = np.zeros_like(w)
        elif kind == "single":
            w = np.where(np.arange(w.size) == rng.integers(w.size), w, 0.0)
        s = Stencil(w, 1.0 / 64)
        brute = np.max(np.abs(symbol(s, np.linspace(-np.pi, np.pi, 200001)).values))
        fine = max_wave_speed(s)
        assert fine >= brute - 1e-12 * brute
        assert fine <= brute * (1 + 1e-8)

    def test_cfl_centered_difference(self, grid):
        assert cfl_bound(centered_difference_stencil(grid)) == pytest.approx(2.0 / 64.0, abs=1e-12)

    def test_cfl_homogeneity(self, rng):
        s = random_skew_stencil(rng, 2, 1.0 / 64)
        assert cfl_bound(Stencil(2 * s.w, s.dx)) == pytest.approx(0.5 * cfl_bound(s), rel=1e-10)

    def test_cfl_learned_formula(self, grid, solver_reports):
        s = Stencil(solver_reports["ADMM"].w_final, grid.dx)
        assert cfl_bound(s) == pytest.approx(2.0 / (2.0 * abs(s.w[2])), rel=1e-10)

    def test_cfl_degenerate(self):
        with pytest.raises(ValueError):
            cfl_bound(Stencil(np.zeros(3), 0.1))


class TestDispersion:
    def test_skew_amplification_is_unity(self, grid, rng):
        thetas = np.linspace(np.pi / 4096, np.pi, 4096)
        for s in (centered_difference_stencil(grid), random_skew_stencil(rng, 3, grid.dx)):
            curves = cn_dispersion(s, 0.5 * grid.dx, thetas)
            assert np.max(np.abs(curves.amplification - 1.0)) <= 1e-13

    def test_low_frequency_phase_ratio(self, grid):
        cd = centered_difference_stencil(grid)
        dt = 0.5 * grid.dx
        curves = cn_dispersion(cd, dt, np.array([1e-3]))
        assert curves.phase_ratio[0] == pytest.approx(dt / grid.dx, rel=1e-6)

    def test_dissipative_stencil_damps(self, grid):
        # negative-real symbol: pure damping, |mu_CN| < 1
        s = Stencil(np.array([0.0, -3.0, 0.0]), grid.dx)
        curves = cn_dispersion(s, 0.5 * grid.dx, np.array([0.5, 2.0]))
        assert np.all(curves.amplification < 1.0)

    def test_rejects_zero_theta(self, grid):
        with pytest.raises(ValueError):
            cn_dispersion(centered_difference_stencil(grid), 0.01, np.array([0.0, 1.0]))


class TestModalEnergies:
    def test_single_mode_two_entries(self, grid):
        me = modal_energies(single_mode_initial_condition(grid), grid)
        big = me > 1e-12 * me.sum()
        assert big.sum() == 2
        assert set(np.nonzero(big)[0]) == {1, 63}

    def test_parseval(self, grid, rng):
        for _ in range(20):
            f = FieldPair(rng.normal(size=64), rng.normal(size=64))
            me = modal_energies(f, grid)
            assert me.sum() == pytest.approx(discrete_energy(f, grid), rel=1e-12)

    def test_modes_conserved_under_cn(self, grid, rng):
        s = random_skew_stencil(rng, 2, grid.dx)
        cfg = SimConfig(dt=0.5 * grid.dx, n_steps=1, grid=grid, stencil=s)
        stepper = DenseCNStepper(cfg)
        f = FieldPair(rng.normal(size=64), rng.normal(size=64))
        m0 = modal_energies(f, grid)
        u = stepper.load(f)
        for _ in range(50):
            u = stepper.advance(u)
        drift = np.abs(modal_energies(stepper.fields(u), grid) - m0)
        assert np.max(drift / np.maximum(m0, 1e-11 * m0.sum())) <= 1e-11


class TestSpectralConsistency:
    def test_block_matrix_eigenvalues(self, rng):
        """Eigenvalues of [[0, D], [D, 0]] are +-i |mu(theta_m)| for skew D."""
        N = 32
        s = random_skew_stencil(rng, 3, 1.0 / N)
        D = operator_matrix(s, N)
        B = np.block([[np.zeros((N, N)), D], [D, np.zeros((N, N))]])
        eig = np.linalg.eigvals(B)
        mags = np.abs(symbol(s, 2 * np.pi * np.arange(N) / N).values)
        expected = np.sort(np.concatenate([mags, -mags]))
        scale = max(1.0, mags.max())
        assert np.max(np.abs(eig.real)) <= 1e-10 * scale
        assert np.max(np.abs(np.sort(eig.imag) - expected)) <= 1e-10 * scale


class TestConvergenceStudy:
    def test_centered_difference_second_order(self):
        rows = convergence_study(centered_difference_stencil, [32, 64, 128], T=2.0, dt_ratio=0.2)
        assert all(r2.error < r1.error for r1, r2 in zip(rows, rows[1:]))
        for row in rows[1:]:
            assert 1.7 <= row.order <= 2.3

    def test_first_order_detuned_stencil(self):
        """Order-detection sanity check with a stencil whose leading error
        is O(dx) by construction: a skew centered difference with its
        coefficient misscaled by (1 + dx). (A one-sided upwind stencil
        cannot serve here: the field system couples both characteristic
        families, so its anti-dissipative branch blows up.)"""

        def detuned(grid):
            w1 = (1.0 + grid.dx) / (2.0 * grid.dx)
            return Stencil(np.array([-w1, 0.0, w1]), grid.dx)

        rows = convergence_study(detuned, [32, 64, 128], T=1.0, dt_ratio=0.2)
        for row in rows[1:]:
            assert 0.7 <= row.order <= 1.3

    def test_rejects_unsorted_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study(centered_difference_stencil, [64, 32], T=1.0, dt_ratio=0.2)

    def test_stencil_source_error_propagates(self):
        def flaky(grid):
            if grid.N > 32:
                raise RuntimeError("synthetic failure")
            return centered_difference_stencil(grid)

        with pytest.raises(RuntimeError, match="synthetic failure"):
            convergence_study(flaky, [32, 64], T=1.0, dt_ratio=0.2)


class TestCSVWriters:
    def test_symbol_csv(self, grid, tmp_path):
        curve = symbol(centered_difference_stencil(grid), np.linspace(-np.pi, np.pi, 9))
        write_symbol_csv(curve, tmp_path / "symbol.csv")
        with open(tmp_path / "symbol.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["theta", "re_mu", "im_mu"]
        assert len(rows) == 9

    def test_dispersion_csv(self, grid, tmp_path):
        thetas = np.linspace(0.1, np.pi, 8)
        curves = cn_dispersion(centered_difference_stencil(grid), 0.5 * grid.dx, thetas)
        write_dispersion_csv(curves, 0.5 * grid.dx, grid.dx, tmp_path / "d.csv")
        with open(tmp_path / "d.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["theta", "amplification", "phase_ratio", "reference_phase_ratio"]
        # reference column: exact CN phase of the ideal spectral symbol
        t0 = float(rows[0]["theta"])
        expected = 2 * np.arctan(0.5 * 0.5 * grid.dx * t0 / grid.dx) / t0
        assert float(rows[0]["reference_phase_ratio"]) == pytest.approx(expected, rel=1e-12)

    def test_convergence_csv(self, tmp_path):
        rows = [ConvergenceRow(N_x=32, dx=1 / 32, error=0.1), ConvergenceRow(N_x=64, dx=1 / 64, error=0.025, order=2.0)]
        write_convergence_csv(rows, tmp_path / "c.csv")
        with open(tmp_path / "c.csv") as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["order"] == ""
        assert float(parsed[1]["order"]) == 2.0
