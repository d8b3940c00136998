import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stencil_lab.core import Grid1D, Stencil, apply_stencil
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


# The per-sample form of generation: one stream per sample and one
# derivative call per field vector. Generation differentiates the whole
# (n_sims, 2, N) stack in one call and must give these bits exactly.

def _vector_spectral_derivative(u, grid):
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.N, d=grid.dx)
    mult = 1j * k
    if grid.N % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(mult * np.fft.rfft(u), n=grid.N)


def _vector_apply_stencil(stencil, u):
    out = np.zeros_like(u)
    for l, wl in zip(range(-stencil.R, stencil.R + 1), stencil.w):
        if wl != 0.0:
            out += wl * np.roll(u, -l)
    return out


def _per_sample_fields(rng, cfg):
    grid = cfg.grid
    modes = np.arange(1, cfg.m_max + 1)
    phase_arg = 2.0 * np.pi * np.outer(modes, grid.x) / grid.L
    state = np.empty((2, grid.N))
    for row in range(2):
        amps = rng.normal(0.0, 1.0, size=cfg.m_max)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.m_max)
        state[row] = amps @ np.sin(phase_arg + phases[:, None])
    return state


def _per_sample_generate(cfg, derivative):
    n, N = cfg.n_sims, cfg.grid.N
    states = np.empty((n, 2, N))
    derivs = np.empty((n, 2, N))
    for s in range(n):
        rng = np.random.default_rng([cfg.seed, s])
        states[s] = _per_sample_fields(rng, cfg)
        derivs[s, 0] = derivative(states[s, 1])
        derivs[s, 1] = derivative(states[s, 0])
        if cfg.noise_std > 0:
            derivs[s] += rng.normal(0.0, cfg.noise_std, size=(2, N))
    return states, derivs


@st.composite
def _configs(draw):
    N = draw(st.integers(3, 300))
    return TrainingConfig(
        n_sims=draw(st.integers(1, 30)),
        m_max=draw(st.integers(1, (N - 1) // 2)),
        grid=Grid1D(N=N, L=draw(st.sampled_from([1.0, 2.5, 2 * np.pi]))),
        seed=draw(st.integers(0, 2**32 - 1)),
        noise_std=draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5])),
    )


class TestStackedGeneration:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_configs(), R=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(cfg=TrainingConfig(n_sims=3, m_max=5, grid=Grid1D(N=4096), seed=1, noise_std=0.1), R=3, seed=0)
    @example(cfg=TrainingConfig(n_sims=2, m_max=1, grid=Grid1D(N=3), seed=9), R=1, seed=1)
    def test_equals_per_sample_loop(self, cfg, R, seed):
        ts = generate_training_set(cfg)
        states, derivs = _per_sample_generate(cfg, lambda u: _vector_spectral_derivative(u, cfg.grid))
        assert np.array_equal(ts.states, states)
        assert np.array_equal(ts.derivatives, derivs)

        R = min(R, (cfg.grid.N - 1) // 2)
        target = Stencil(w=np.random.default_rng(seed).normal(size=2 * R + 1) / cfg.grid.dx, dx=cfg.grid.dx)
        ts = generate_operator_training_set(cfg, target)
        states, derivs = _per_sample_generate(cfg, lambda u: _vector_apply_stencil(target, u))
        assert np.array_equal(ts.states, states)
        assert np.array_equal(ts.derivatives, derivs)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), N=st.integers(3, 200), R=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_rows(self, n, N, R, seed):
        grid = Grid1D(N=N, L=1.7)
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(n, 2, N))
        R = min(R, (N - 1) // 2)
        stencil = Stencil(w=rng.normal(size=2 * R + 1), dx=grid.dx)
        for view in (stack, stack[:, ::-1]):
            spectral = spectral_derivative(view, grid)
            applied = apply_stencil(stencil, view, grid)
            for s in range(n):
                for row in range(2):
                    assert np.array_equal(spectral[s, row], spectral_derivative(view[s, row], grid))
                    assert np.array_equal(applied[s, row], apply_stencil(stencil, view[s, row], grid))

    def test_trailing_length_must_be_n(self, grid):
        stencil = Stencil(w=np.array([-1.0, 0.0, 1.0]), dx=grid.dx)
        for u in (np.zeros(63), np.zeros((2, 65)), np.zeros((64, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="expected"):
                spectral_derivative(u, grid)
            with pytest.raises(ValueError, match="expected"):
                apply_stencil(stencil, u, grid)


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

    def test_seed_fits_the_file(self, grid):
        assert make_config(grid, seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*64, got 18446744073709551616$"):
            make_config(grid, seed=2**64)

    @pytest.mark.parametrize("field, value", [("states", 1e300), ("derivatives", 1e300), ("derivatives", np.nan)])
    def test_fields_whose_sum_of_squares_is_not_finite_rejected(self, grid, field, value):
        cfg = make_config(grid, n_sims=2)
        arrays = {"states": np.ones((2, 2, 64)), "derivatives": np.ones((2, 2, 64))}
        arrays[field][1, 0, 5] = value
        with pytest.raises(ValueError, match="sum of squares is not finite"):
            TrainingSet(**arrays, config=cfg)
        arrays[field][1, 0, 5] = 1e150  # squares of 1e300: finite
        TrainingSet(**arrays, config=cfg)

    @pytest.mark.parametrize("L, noise_std", [(1.0, 1e300), (1e-300, 0.0), (1e-320, 0.0), (1.7976931348623157e308, 0.0)],
                             ids=["noise-1e300", "L-1e-300", "L-1e-320", "L-max"])
    def test_generated_fields_that_overflow_rejected(self, L, noise_std):
        # and no RuntimeWarning, which the suite turns into an error
        with pytest.raises(ValueError, match="sum of squares is not finite"):
            generate_training_set(make_config(Grid1D(N=64, L=L), n_sims=2, noise_std=noise_std))

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
