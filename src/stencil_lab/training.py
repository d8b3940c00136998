"""Band-limited random Maxwell states and their exact time derivatives.

Each sample draws E and H as truncated Fourier series with N(0, 1)
amplitudes and uniform phases, then sets dE/dt = d_x H and dH/dt = d_x E
using FFT-based spectral differentiation, so the targets are exact up to
roundoff for the resolved modes. Optional Gaussian noise perturbs the
derivatives only, leaving the states clean.

Randomness comes from numpy's PCG64 generator; each sample uses its own
stream seeded by (seed, sample index), so generation is reproducible and
order-independent across samples. The derivatives of all samples are
taken in one call on the (n_sims, 2, N) stack, which gives the same bits
as differentiating each field on its own.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from .core import Grid1D, Stencil, apply_stencil, rfft_modes


@dataclass(frozen=True)
class TrainingConfig:
    n_sims: int
    m_max: int
    grid: Grid1D
    seed: int
    noise_std: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.seed >= 2**64:  # the training file holds it as a uint64
            raise ValueError(f"seed must be below 2**64, got {self.seed}")
        if self.n_sims < 1:
            raise ValueError(f"n_sims must be >= 1, got {self.n_sims}")
        if not 1 <= self.m_max < self.grid.N / 2:
            raise ValueError(
                f"m_max must satisfy 1 <= m_max < N/2 so all modes are resolved, "
                f"got m_max={self.m_max} with N={self.grid.N}"
            )
        if not (isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")


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
        # bounds every lag product of the regression statistics (Cauchy-Schwarz)
        if not np.isfinite(np.vdot(self.states, self.states) + np.vdot(self.derivatives, self.derivatives)):
            raise ValueError("the training fields' sum of squares is not finite; A^T A, A^T b and b^T b would overflow")


def spectral_derivative(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Differentiate periodic real signals along the last axis via the FFT:
    ifft(i k fft(u)) with k = 2 pi m / L, the rfft modes' angles per unit
    length (rfft_modes with d = dx). The Nyquist mode (even N) has no
    well-defined odd derivative and is zeroed."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (grid.N,):
        raise ValueError(f"u has shape {u.shape}, expected (..., {grid.N})")
    mult = 1j * rfft_modes(grid.N, grid.dx)[0]
    if grid.N % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(mult * np.fft.rfft(u), n=grid.N)


def _sample_fields(rng: np.random.Generator, cfg: TrainingConfig, phase_arg: np.ndarray) -> np.ndarray:
    """One random state: rows (E, H), each a sum over modes m = 1..m_max of
    a_m sin(2 pi m x / L + phi_m), with phase_arg[m - 1] = 2 pi m x / L."""
    state = np.empty((2, cfg.grid.N))
    for row in range(2):
        amps = rng.normal(0.0, 1.0, size=cfg.m_max)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.m_max)
        state[row] = amps @ np.sin(phase_arg + phases[:, None])
    return state


# a field that overflows (at an extreme L or noise_std) warns nothing here: TrainingSet rejects it
@np.errstate(over="ignore", invalid="ignore")
def _generate(cfg: TrainingConfig, derivative) -> TrainingSet:
    n, N = cfg.n_sims, cfg.grid.N
    modes = np.arange(1, cfg.m_max + 1)
    phase_arg = 2.0 * np.pi * np.outer(modes, cfg.grid.x) / cfg.grid.L  # (m_max, N), shared by every sample
    states = np.empty((n, 2, N))
    noise = np.empty((n, 2, N)) if cfg.noise_std > 0 else None
    for s in range(n):
        rng = np.random.default_rng([cfg.seed, s])
        states[s] = _sample_fields(rng, cfg, phase_arg)
        if noise is not None:
            noise[s] = rng.normal(0.0, cfg.noise_std, size=(2, N))
    derivs = derivative(states[:, ::-1])  # dE/dt = d_x H, dH/dt = d_x E
    if noise is not None:
        derivs += noise
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
    )


_FILE_KEYS = ("states", "derivatives", "n_sims", "N", "L", "m_max", "seed", "sigma")


def _open_archive(path: str | Path) -> np.lib.npyio.NpzFile:
    try:
        data = np.load(Path(path))
    except ValueError:  # neither zip nor .npy magic: numpy would offer to unpickle the file
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"training file {path} is not a training .npz archive")
    return data


def _integer_field(data: np.lib.npyio.NpzFile, key: str, path: str | Path) -> int:
    value = data[key]
    if value.dtype.kind not in "iu":
        raise ValueError(f"training file {path}: header field {key} must be an integer, got {value}")
    return int(value)


def _number_field(data: np.lib.npyio.NpzFile, key: str, path: str | Path) -> float:
    value = data[key]
    if value.dtype.kind not in "iuf":
        raise ValueError(f"training file {path}: header field {key} must be a number, got {value}")
    return float(value)


def load_training_set(path: str | Path) -> TrainingSet:
    """Inverse of save_training_set; a malformed file raises ValueError."""
    try:
        with _open_archive(path) as data:
            missing = [key for key in _FILE_KEYS if key not in data]
            if missing:
                raise ValueError(f"training file {path} lacks key(s): {', '.join(missing)}")
            cfg = TrainingConfig(
                n_sims=_integer_field(data, "n_sims", path),
                m_max=_integer_field(data, "m_max", path),
                grid=Grid1D(N=_integer_field(data, "N", path), L=_number_field(data, "L", path)),
                seed=_integer_field(data, "seed", path),
                noise_std=_number_field(data, "sigma", path),
            )
            # older files state their amplitude std; the data read here has unit amplitude
            if "amplitude_std" in data and _number_field(data, "amplitude_std", path) != 1.0:
                raise ValueError(f"training file {path}: header field amplitude_std must be 1.0, got {data['amplitude_std']}")
            return TrainingSet(states=data["states"], derivatives=data["derivatives"], config=cfg)
    except (EOFError, zipfile.BadZipFile, TypeError) as exc:
        # a truncated archive, or a header field that is not a scalar
        raise ValueError(f"training file {path} is malformed: {exc}") from None
