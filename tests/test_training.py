import numpy as np
import pytest
import scipy.fft

from stencil_lab.core import Grid1D, apply_stencil
from stencil_lab.experiments import nonstandard_target
from stencil_lab.training import (
    TrainingConfig,
    TrainingSet,
    generate_operator_training_set,
    generate_training_set,
    load_training_set,
    save_training_set,
    spectral_derivative,
)


class TestSpectralDerivative:
    def test_constant(self, grid):
        assert np.max(np.abs(spectral_derivative(np.full(64, 2.5), grid))) < 1e-13

    def test_single_mode(self, grid):
        u = np.sin(2 * np.pi * grid.x)
        d = spectral_derivative(u, grid)
        assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * grid.x))) < 1e-12

    def test_high_mode_with_phase(self, grid):
        u = np.sin(2 * np.pi * 5 * grid.x + 0.3)
        d = spectral_derivative(u, grid)
        assert np.max(np.abs(d - 10 * np.pi * np.cos(2 * np.pi * 5 * grid.x + 0.3))) < 1e-11

    def test_odd_grid(self):
        g = Grid1D(N=63)
        u = np.sin(2 * np.pi * 4 * g.x)
        d = spectral_derivative(u, g)
        assert np.max(np.abs(d - 8 * np.pi * np.cos(2 * np.pi * 4 * g.x))) < 1e-11

    def test_nyquist_mode_zeroed(self):
        g = Grid1D(N=8)
        u = np.cos(np.pi * np.arange(8))  # pure Nyquist oscillation
        assert np.max(np.abs(spectral_derivative(u, g))) < 1e-13


def make_config(grid, **kwargs):
    defaults = dict(n_sims=20, m_max=5, grid=grid, seed=123)
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


class TestGeneration:
    def test_shapes_and_pde_consistency(self, grid):
        cfg = make_config(grid, n_sims=200)
        ts = generate_training_set(cfg)
        assert ts.states.shape == (200, 2, 64)
        assert ts.derivatives.shape == (200, 2, 64)
        for s in range(0, 200, 17):
            assert np.max(np.abs(ts.derivatives[s, 0] - spectral_derivative(ts.states[s, 1], grid))) <= 1e-12
            assert np.max(np.abs(ts.derivatives[s, 1] - spectral_derivative(ts.states[s, 0], grid))) <= 1e-12

    def test_band_limited(self, grid):
        ts = generate_training_set(make_config(grid))
        spectra = np.abs(scipy.fft.fft(ts.states, axis=-1))
        beyond = spectra[:, :, 6:59]
        assert np.max(beyond) <= 1e-12 * np.max(spectra)

    def test_single_mode_config(self, grid):
        ts = generate_training_set(make_config(grid, m_max=1))
        spectra = np.abs(scipy.fft.fft(ts.states, axis=-1))
        beyond = spectra[:, :, 2:63]
        assert np.max(beyond) <= 1e-12 * np.max(spectra)

    def test_seed_determinism(self, grid):
        a = generate_training_set(make_config(grid, seed=77))
        b = generate_training_set(make_config(grid, seed=77))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivatives, b.derivatives)
        c = generate_training_set(make_config(grid, seed=78))
        assert not np.array_equal(a.states, c.states)

    def test_noise_touches_derivatives_only(self, grid):
        clean = generate_training_set(make_config(grid, seed=5))
        noisy = generate_training_set(make_config(grid, seed=5, noise_std=0.3))
        assert np.array_equal(clean.states, noisy.states)
        diff = noisy.derivatives - clean.derivatives
        assert np.std(diff) == pytest.approx(0.3, rel=0.1)

    def test_operator_targets(self, grid):
        target = nonstandard_target(grid)
        ts = generate_operator_training_set(make_config(grid), target)
        for s in range(0, 20, 7):
            expected = apply_stencil(target, ts.states[s, 1], grid)
            assert np.max(np.abs(ts.derivatives[s, 0] - expected)) <= 1e-12


class TestValidation:
    def test_mode_beyond_nyquist(self, grid):
        with pytest.raises(ValueError):
            make_config(grid, m_max=32)

    def test_zero_samples(self, grid):
        with pytest.raises(ValueError):
            make_config(grid, n_sims=0)

    def test_negative_noise(self, grid):
        with pytest.raises(ValueError):
            make_config(grid, noise_std=-0.1)

    def test_shape_mismatch_rejected(self, grid):
        cfg = make_config(grid)
        with pytest.raises(ValueError):
            TrainingSet(states=np.zeros((3, 2, 64)), derivatives=np.zeros((3, 2, 64)), config=cfg)


class TestPersistence:
    def test_roundtrip(self, grid, tmp_path):
        cfg = make_config(grid, n_sims=7, noise_std=0.25)
        ts = generate_training_set(cfg)
        path = tmp_path / "train.npz"
        save_training_set(ts, path)
        loaded = load_training_set(path)
        assert np.array_equal(loaded.states, ts.states)
        assert np.array_equal(loaded.derivatives, ts.derivatives)
        assert loaded.config == cfg

    def test_missing_key_rejected(self, grid, tmp_path):
        ts = generate_training_set(make_config(grid, n_sims=2))
        path = tmp_path / "train.npz"
        save_training_set(ts, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k not in ("n_sims", "seed")}
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="n_sims, seed"):
            load_training_set(path)
