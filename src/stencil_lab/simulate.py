"""Crank-Nicolson time integration of the semi-discrete Maxwell system
dE/dt = D H, dH/dt = D E for an arbitrary convolution stencil D.

In p = E + H and q = E - H the system splits into dp/dt = D p and
dq/dt = -D q, so one CN step maps p by S(dt/2) and q by S(-dt/2), with the
Cayley transform S(h) = (I - h D)^{-1} (I + h D). For a skew-adjoint D both
maps are orthogonal, so the discrete energy (||p||^2 + ||q||^2) / 4 and
every modal energy are conserved exactly, for any time step.

Both engines step the pair (p, q) through the same four calls: `load`
(fields to state), `advance` (one CN step), `energy` and `fields`, which
`simulate` runs in one loop.

* "dense": the two N x N matrices S(+-dt/2), built once. S(h) is a rational
  function of the circulant D, and circulants are closed under products and
  inverses, so S(h) is circulant: one refined LU solve gives its first
  column. This is the default and the behavioral reference, FFT-free.
* "spectral": the FFT diagonalizes the circulant D, so S(+-dt/2) multiplies
  each Fourier mode by cn_multiplier(+-mu). Much faster for long runs;
  agrees with the dense engine to roundoff (tested at 1e-12).

A non-skew stencil has multipliers of modulus above 1 (see
max_cn_amplification), so its modes grow on either engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FieldPair, Grid1D, NumericalError, Stencil, apply_stencil, circulant, discrete_energy, fourier_symbol
from .core import norm, real_fft, solve_refined


@dataclass(frozen=True, eq=False)
class SimConfig:
    dt: float
    n_steps: int
    grid: Grid1D
    stencil: Stencil

    def __post_init__(self):
        if self.dt == 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be a nonzero finite number, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")


@dataclass(frozen=True, eq=False)
class SimResult:
    final: FieldPair
    energy_series: np.ndarray              # length n_steps + 1, entry 0 = initial energy
    snapshot_steps: list[int]
    snapshots: list[FieldPair]


def cn_multiplier(mu: np.ndarray, dt: float) -> np.ndarray:
    """One Crank-Nicolson step of du/dt = mu u: the Moebius factor
    (1 + dt mu/2) / (1 - dt mu/2), of modulus 1 for purely imaginary mu."""
    return (1.0 + 0.5 * dt * mu) / (1.0 - 0.5 * dt * mu)


def _cn_symbol(cfg: SimConfig) -> np.ndarray:
    """The stencil's symbol at the grid's Fourier angles, the eigenvalues
    of D. Raises NumericalError when a CN denominator 1 -+ dt mu/2 is
    zero, i.e. the CN system is singular."""
    mu = fourier_symbol(cfg.stencil, 2.0 * np.pi * np.fft.fftfreq(cfg.grid.N))
    half_mu = 0.5 * cfg.dt * mu
    if np.any((half_mu == 1.0) | (half_mu == -1.0)):
        raise NumericalError("Crank-Nicolson system matrix is singular for this stencil and dt")
    return mu


def max_cn_amplification(cfg: SimConfig) -> float:
    """Largest |cn_multiplier(+-mu, dt)| over the grid's Fourier angles: the
    per-step growth of the fastest-growing mode; 1 for a skew stencil."""
    mu = _cn_symbol(cfg)
    return float(np.max(np.abs(cn_multiplier(np.concatenate([mu, -mu]), cfg.dt))))


class DenseCNStepper:
    """The state (p, q) times the N x N circulants S(+-dt/2), each built from
    its first column: one refined solve of (I - h D) s = (I + h D) e_0."""

    def __init__(self, cfg: SimConfig):
        _cn_symbol(cfg)  # a singular system raises here
        e0 = np.eye(1, cfg.grid.N)[0]
        hd = 0.5 * cfg.dt * apply_stencil(cfg.stencil, e0, cfg.grid)  # (dt/2) D e_0
        # refined: LU pivot growth (2.6e4 seen) leaves a plain solve 1e-12 off
        self._S_p = circulant(solve_refined(circulant(e0 - hd), e0 + hd))
        self._S_q = circulant(solve_refined(circulant(e0 + hd), e0 - hd))
        self._dx = cfg.grid.dx

    def load(self, f: FieldPair) -> tuple[np.ndarray, np.ndarray]:
        return f.E + f.H, f.E - f.H

    def advance(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        p, q = state
        return self._S_p @ p, self._S_q @ q

    def energy(self, state: tuple[np.ndarray, np.ndarray]) -> float:
        p, q = state
        return 0.25 * self._dx * float(p @ p + q @ q)

    def fields(self, state: tuple[np.ndarray, np.ndarray]) -> FieldPair:
        p, q = state
        return FieldPair(E=0.5 * (p + q), H=0.5 * (p - q))


class SpectralCNStepper:
    """The state (fft(p), fft(q)) times cn_multiplier(+-mu) per mode."""

    def __init__(self, cfg: SimConfig):
        grid = cfg.grid
        mu = _cn_symbol(cfg)
        self._mult_p = cn_multiplier(mu, cfg.dt)
        self._mult_q = cn_multiplier(-mu, cfg.dt)
        self._dx = grid.dx
        self._N = grid.N

    def load(self, f: FieldPair) -> tuple[np.ndarray, np.ndarray]:
        Ef = real_fft(f.E)
        Hf = real_fft(f.H)
        return Ef + Hf, Ef - Hf

    def advance(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        p, q = state
        return self._mult_p * p, self._mult_q * q

    def energy(self, state: tuple[np.ndarray, np.ndarray]) -> float:
        # Parseval: same value as discrete_energy of the fields
        p, q = state
        return 0.25 * self._dx / self._N * float((np.vdot(p, p) + np.vdot(q, q)).real)

    def fields(self, state: tuple[np.ndarray, np.ndarray]) -> FieldPair:
        p, q = state
        E = np.fft.ifft(0.5 * (p + q)).real
        H = np.fft.ifft(0.5 * (p - q)).real
        return FieldPair(E=E, H=H)


ENGINES = {"dense": DenseCNStepper, "spectral": SpectralCNStepper}


def simulate(
    init: FieldPair,
    cfg: SimConfig,
    snapshot_every: int | None = None,
    engine: str = "dense",
) -> SimResult:
    """Advance cfg.n_steps Crank-Nicolson steps, recording the discrete
    energy after every step and optional field snapshots every
    `snapshot_every` steps (step 0 and the final step are always included
    when snapshots are requested). Raises NumericalError at the first step
    whose energy is not finite."""
    if init.N != cfg.grid.N:
        raise ValueError(f"initial fields have length {init.N}, grid has N={cfg.grid.N}")
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine '{engine}', choose 'dense' or 'spectral'")

    n = cfg.n_steps
    energies = np.empty(n + 1)
    energies[0] = discrete_energy(init, cfg.grid)
    if not np.isfinite(energies[0]):
        raise ValueError("initial fields have non-finite energy")
    want_snapshot = snapshot_every is not None
    snapshot_steps: list[int] = [0] if want_snapshot else []
    snapshots: list[FieldPair] = [init] if want_snapshot else []

    stepper = ENGINES[engine](cfg)
    state = stepper.load(init)
    # an unstable (non-skew) run overflows; the per-step check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n + 1):
            state = stepper.advance(state)
            energies[step] = stepper.energy(state)
            if not np.isfinite(energies[step]):
                raise NumericalError(f"energy became non-finite at step {step} (unstable discretization)")
            if want_snapshot and (step % snapshot_every == 0 or step == n):
                snapshot_steps.append(step)
                snapshots.append(stepper.fields(state))
    final = stepper.fields(state) if n > 0 else init
    return SimResult(final=final, energy_series=energies, snapshot_steps=snapshot_steps, snapshots=snapshots)


def traveling_wave_exact(grid: Grid1D, t: float) -> FieldPair:
    """Reference profile E = sin(2 pi (x - t) / L), H = cos(2 pi (x - t) / L).

    At t = 0 this is the standard single-mode initial condition; at final
    times that are whole multiples of the period L it coincides with the
    exact Maxwell evolution of that initial condition, which is what the
    convergence study measures against.
    """
    phase = 2.0 * np.pi * (grid.x - t) / grid.L
    return FieldPair(E=np.sin(phase), H=np.cos(phase))


def single_mode_initial_condition(grid: Grid1D) -> FieldPair:
    """E(x, 0) = sin(2 pi x / L), H(x, 0) = cos(2 pi x / L)."""
    return traveling_wave_exact(grid, 0.0)


def relative_l2_error(num: np.ndarray, ref: np.ndarray, grid: Grid1D) -> float:
    """||num - ref|| / ||ref|| in the dx-weighted discrete L2 norm."""
    num = np.asarray(num, dtype=float)
    ref = np.asarray(ref, dtype=float)
    ref_norm = norm(ref, grid)
    if ref_norm == 0.0:
        raise ValueError("reference vector has zero norm")
    return norm(num - ref, grid) / ref_norm

