"""Crank-Nicolson time integration of the semi-discrete Maxwell system
dE/dt = D H, dH/dt = D E for an arbitrary convolution stencil D.

In p = E + H and q = E - H the system splits into dp/dt = D p and
dq/dt = -D q, so one CN step maps p by S(dt/2) and q by S(-dt/2), with the
Cayley transform S(h) = (I - h D)^{-1} (I + h D). For a skew-adjoint D both
maps are orthogonal, so the discrete energy (||p||^2 + ||q||^2) / 4 and
every modal energy are conserved exactly, for any time step.

Since p and q never interact, `simulate` is chain-major: it steps p for all
n_steps, then q, each chain with its own operator, and adds the two
squared norms per step into the energy series afterwards. Only one
operator is alive at a time; for the dense engine that keeps one N x N
matrix in the L2 cache where two would not fit (N = 384 to 512 on a 2 MB
L2). Both engines supply the same calls: `load` (fields to p, q), `step`
(build one chain's operator), `sq_norm`, `scale` (energy per squared norm)
and `fields`.

* "dense": the N x N matrix S(+-dt/2), built per chain. S(h) is a rational
  function of the circulant D, and circulants are closed under products and
  inverses, so S(h) is circulant and its first column builds it. That
  column comes from matrix-free conjugate gradients on the normal equations
  (CGNR; Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 8.3;
  see DenseCNStepper): no pivoting, so no error growth with N. This is the
  default and the behavioral reference, FFT-free and LU-free.
* "spectral": the FFT diagonalizes the circulant D, so S(+-dt/2) multiplies
  each Fourier mode by cn_multiplier(+-mu). Much faster for long runs;
  agrees with the dense engine to roundoff (tested at 1e-12).

A non-skew stencil has multipliers of modulus above 1 (see
max_cn_amplification), so its modes grow on either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FieldPair, Grid1D, NumericalError, Stencil, circulant, discrete_energy, fourier_symbol, norm, real_fft


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


# each CG solve stops at this fraction of its starting residual; with the
# refinement step S was within 4.1e-15 max(1, |S|) of the exact circulant over
# 4,000 random columns (R <= 6, N <= 250, |dt| <= 8 dx), as it was with 1e-16
_CG_RTOL = 1e-13


def _periodic_correlate(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(G u)_i = sum_m g_m u_{(i+m) mod N} for the stencil g of radius
    r = (len(g) - 1) / 2 <= N, stored as Stencil.w is (offset m at r + m)."""
    r = g.size // 2
    return np.correlate(np.concatenate([u[u.size - r:], u, u[:r]]), g)


def _cg(g: np.ndarray, r: np.ndarray, cap: int) -> np.ndarray:
    """x with G x = r by conjugate gradients from x = 0, for the symmetric
    positive definite circulant G of stencil g. Returns zero at once when
    r is zero; raises NumericalError after cap iterations (also when the
    residual turns non-finite)."""
    x = np.zeros_like(r)
    rr = r @ r
    stop = _CG_RTOL**2 * rr
    p = r
    k = 0
    while not rr <= stop:
        if k == cap:
            raise NumericalError(
                f"Crank-Nicolson system too ill-conditioned for the dense engine: conjugate gradients "
                f"did not converge in {cap} iterations")
        k += 1
        q = _periodic_correlate(g, p)
        alpha = rr / (p @ q)
        x += alpha * p
        r = r - alpha * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return x


class DenseCNStepper:
    """Each chain times its N x N circulant S(+-dt/2), built from the first
    column s of S(h) = (I - h D)^{-1} (I + h D): conjugate gradients on
    A^T A s = A^T B e_0, with A = I - h D and B = I + h D, then one
    refinement step, CG on A^T A d = A^T (B e_0 - A s). A^T A is applied
    as one stencil of radius 2R, the self-correlation of A's stencil, so
    each iteration costs O(N R) and the build keeps no N x N matrix but S.

    In exact arithmetic CG ends within floor(N/2) + 1 iterations, the
    number of distinct eigenvalues |1 - h mu(theta)|^2 of A^T A. Roundoff
    delays it: at time steps of hundreds of cells a solve took up to
    about 6 N iterations (N = 1024, dt = 655 dx). Each solve is capped at
    10 N iterations and raises NumericalError there, as it does for a
    near-singular CN system, which CG cannot resolve."""

    def __init__(self, cfg: SimConfig):
        _cn_symbol(cfg)  # a singular system raises here
        R, N = cfg.stencil.R, cfg.grid.N
        if N < 2 * R + 1:
            raise ValueError(f"grid N={N} too small for stencil radius R={R} (need N >= {2 * R + 1})")
        unit = np.eye(1, 2 * R + 1, R)[0]  # the identity's stencil
        hw = 0.5 * cfg.dt * cfg.stencil.w  # (dt/2) D
        self._minus, self._plus = unit - hw, unit + hw
        self._e0 = np.eye(1, N)[0]
        self._cap = 10 * N
        self.scale = 0.25 * cfg.grid.dx

    def load(self, f: FieldPair) -> tuple[np.ndarray, np.ndarray]:
        return f.E + f.H, f.E - f.H

    def cayley(self, sign: int) -> np.ndarray:
        """S(sign dt/2), the p chain's matrix for sign = +1 and the q chain's for -1."""
        a, b = self._minus, self._plus  # the stencils of A = I - hD and B = I + hD
        if sign < 0:
            a, b = b, a
        a_t = a[::-1]  # the stencil of A^T
        normal = np.convolve(a, a_t)  # the stencil of A^T A, radius 2R
        rhs = _periodic_correlate(b, self._e0)
        s = _cg(normal, _periodic_correlate(a_t, rhs), self._cap)
        s += _cg(normal, _periodic_correlate(a_t, rhs - _periodic_correlate(a, s)), self._cap)
        return circulant(s)

    def step(self, sign: int):
        return self.cayley(sign).__matmul__

    @staticmethod
    def sq_norm(u: np.ndarray) -> float:
        return u @ u

    def fields(self, p: np.ndarray, q: np.ndarray) -> FieldPair:
        return FieldPair(E=0.5 * (p + q), H=0.5 * (p - q))


class SpectralCNStepper:
    """Each chain is fft(p) or fft(q), times cn_multiplier(+-mu) per mode."""

    def __init__(self, cfg: SimConfig):
        self._mu = _cn_symbol(cfg)
        self._dt = cfg.dt
        self.scale = 0.25 * cfg.grid.dx / cfg.grid.N  # Parseval: the energy of the fields

    def load(self, f: FieldPair) -> tuple[np.ndarray, np.ndarray]:
        Ef = real_fft(f.E)
        Hf = real_fft(f.H)
        return Ef + Hf, Ef - Hf

    def step(self, sign: int):
        return cn_multiplier(self._mu if sign > 0 else -self._mu, self._dt).__mul__

    @staticmethod
    def sq_norm(u: np.ndarray) -> float:
        return np.vdot(u, u).real

    def fields(self, p: np.ndarray, q: np.ndarray) -> FieldPair:
        E = np.fft.ifft(0.5 * (p + q)).real
        H = np.fft.ifft(0.5 * (p - q)).real
        return FieldPair(E=E, H=H)


ENGINES = {"dense": DenseCNStepper, "spectral": SpectralCNStepper}


def _chain(step, sq_norm, u: np.ndarray, n: int, keep: set[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Apply `step` to u n times. Returns the squared norm after each step,
    up to and including the first non-finite one, and u at the steps in keep."""
    norms = np.empty(n)
    kept = {}
    for k in range(1, n + 1):
        u = step(u)
        s = norms[k - 1] = sq_norm(u)
        if k in keep:
            kept[k] = u
        if not math.isfinite(s):
            return norms[:k], kept
    return norms, kept


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
    snaps = [] if snapshot_every is None else [k for k in range(1, n + 1) if k % snapshot_every == 0 or k == n]
    keep = {*snaps, n}

    stepper = ENGINES[engine](cfg)
    p, q = stepper.load(init)
    # p to the end, then q: one operator at a time, so a dense S(+-dt/2) stays in
    # cache. An unstable (non-skew) run overflows; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        p_norms, p_kept = _chain(stepper.step(+1), stepper.sq_norm, p, n, keep)
        q_norms, q_kept = _chain(stepper.step(-1), stepper.sq_norm, q, n, keep)
        m = min(p_norms.size, q_norms.size)
        energies[1:m + 1] = stepper.scale * (p_norms[:m] + q_norms[:m])
    bad = np.flatnonzero(~np.isfinite(energies[:m + 1]))
    if bad.size:
        raise NumericalError(f"energy became non-finite at step {bad[0]} (unstable discretization)")
    final = stepper.fields(p_kept[n], q_kept[n]) if n > 0 else init
    # pop: each kept state is freed once its fields are built
    snapshots = [stepper.fields(p_kept.pop(k), q_kept.pop(k)) for k in snaps]
    if snapshot_every is not None:
        snaps, snapshots = [0, *snaps], [init, *snapshots]
    return SimResult(final=final, energy_series=energies, snapshot_steps=snaps, snapshots=snapshots)


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

