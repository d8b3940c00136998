"""Band-limited random Maxwell states and their exact time derivatives.

Each sample draws E and H as truncated Fourier series with Gaussian
amplitudes and uniform phases, then sets dE/dt = d_x H and dH/dt = d_x E
using FFT-based spectral differentiation, so the targets are exact up to
roundoff for the resolved modes. Optional Gaussian noise perturbs the
derivatives only, leaving the states clean.

Randomness comes from numpy's PCG64 generator; each sample uses its own
stream seeded by (seed, sample index), so generation is reproducible and
order-independent across samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.fft

from .core import Grid1D, Stencil, apply_stencil


@dataclass(frozen=True)
class TrainingConfig:
    n_sims: int
    m_max: int
    grid: Grid1D
    seed: int
    amplitude_std: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.n_sims < 1:
            raise ValueError(f"n_sims must be >= 1, got {self.n_sims}")
        if not 1 <= self.m_max < self.grid.N / 2:
            raise ValueError(
                f"m_max must satisfy 1 <= m_max < N/2 so all modes are resolved, "
                f"got m_max={self.m_max} with N={self.grid.N}"
            )
        if self.amplitude_std <= 0:
            raise ValueError("amplitude_std must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")

    def with_grid(self, grid: Grid1D) -> "TrainingConfig":
        """Same sampling parameters on a different grid (convergence studies)."""
        return replace(self, grid=grid)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """states[s, 0] = E, states[s, 1] = H; derivatives[s, 0] = dE/dt,
    derivatives[s, 1] = dH/dt."""

    states: np.ndarray
    derivatives: np.ndarray
    config: TrainingConfig

    def __post_init__(self):
        expected = (self.config.n_sims, 2, self.config.grid.N)
        if self.states.shape != expected or self.derivatives.shape != expected:
            raise ValueError(
                f"arrays must have shape {expected}, got states {self.states.shape}, "
                f"derivatives {self.derivatives.shape}"
            )


def spectral_derivative(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Differentiate a periodic real signal via the FFT: ifft(i k fft(u))
    with k = 2 pi m / L. The Nyquist mode (even N) has no well-defined
    odd derivative and is zeroed."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.N,):
        raise ValueError(f"u has shape {u.shape}, expected ({grid.N},)")
    k = 2.0 * np.pi * scipy.fft.rfftfreq(grid.N, d=grid.dx)
    mult = 1j * k
    if grid.N % 2 == 0:
        mult[-1] = 0.0
    return scipy.fft.irfft(mult * scipy.fft.rfft(u), n=grid.N)


def _sample_fields(rng: np.random.Generator, cfg: TrainingConfig) -> np.ndarray:
    """One random state: rows (E, H), each a sum over modes m = 1..m_max of
    a_m sin(2 pi m x / L + phi_m)."""
    grid = cfg.grid
    modes = np.arange(1, cfg.m_max + 1)
    phase_arg = 2.0 * np.pi * np.outer(modes, grid.x) / grid.L  # (m_max, N)
    state = np.empty((2, grid.N))
    for row in range(2):
        amps = rng.normal(0.0, cfg.amplitude_std, size=cfg.m_max)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.m_max)
        state[row] = amps @ np.sin(phase_arg + phases[:, None])
    return state


def _generate(cfg: TrainingConfig, derivative) -> TrainingSet:
    n, N = cfg.n_sims, cfg.grid.N
    states = np.empty((n, 2, N))
    derivs = np.empty((n, 2, N))
    for s in range(n):
        rng = np.random.default_rng([cfg.seed, s])
        states[s] = _sample_fields(rng, cfg)
        derivs[s, 0] = derivative(states[s, 1])  # dE/dt = d_x H
        derivs[s, 1] = derivative(states[s, 0])  # dH/dt = d_x E
        if cfg.noise_std > 0:
            derivs[s] += rng.normal(0.0, cfg.noise_std, size=(2, N))
    return TrainingSet(states=states, derivatives=derivs, config=cfg)


def generate_training_set(cfg: TrainingConfig) -> TrainingSet:
    """Random band-limited states with spectrally exact time derivatives."""
    return _generate(cfg, lambda u: spectral_derivative(u, cfg.grid))


def generate_operator_training_set(cfg: TrainingConfig, target: Stencil) -> TrainingSet:
    """Like generate_training_set, but the derivative targets come from
    applying a given stencil instead of the spectral derivative. Used to
    learn back a known (possibly nonstandard) operator from data."""
    return _generate(cfg, lambda u: apply_stencil(target, u, cfg.grid))


def save_training_set(ts: TrainingSet, path: str | Path) -> None:
    """Persist to a single .npz file: header scalars plus row-major arrays."""
    cfg = ts.config
    np.savez(
        Path(path),
        states=ts.states,
        derivatives=ts.derivatives,
        n_sims=cfg.n_sims,
        N=cfg.grid.N,
        L=cfg.grid.L,
        m_max=cfg.m_max,
        seed=cfg.seed,
        sigma=cfg.noise_std,
        amplitude_std=cfg.amplitude_std,
    )


_FILE_KEYS = ("states", "derivatives", "n_sims", "N", "L", "m_max", "seed", "sigma", "amplitude_std")


def load_training_set(path: str | Path) -> TrainingSet:
    with np.load(Path(path)) as data:
        missing = [key for key in _FILE_KEYS if key not in data]
        if missing:
            raise ValueError(f"training file {path} lacks key(s): {', '.join(missing)}")
        cfg = TrainingConfig(
            n_sims=int(data["n_sims"]),
            m_max=int(data["m_max"]),
            grid=Grid1D(N=int(data["N"]), L=float(data["L"])),
            seed=int(data["seed"]),
            amplitude_std=float(data["amplitude_std"]),
            noise_std=float(data["sigma"]),
        )
        return TrainingSet(states=data["states"], derivatives=data["derivatives"], config=cfg)
