"""Fourier-symbol diagnostics, wave speed and CFL bound, Crank-Nicolson
dispersion curves, modal energies on the rfft modes (core.rfft_modes),
and the spatial convergence harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FieldPair, Grid1D, Stencil, fourier_symbol, rfft_modes
from .simulate import SimConfig, cn_multiplier, relative_l2_error, simulate, traveling_wave_exact


@dataclass(frozen=True, eq=False)
class SymbolCurve:
    """mu(theta) = sum_l w_l exp(i l theta); purely imaginary and odd for
    skew stencils."""

    thetas: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class DispersionCurves:
    """Per-mode Crank-Nicolson amplification |mu_CN| and normalized phase
    arg(mu_CN)/theta. |mu_CN| == 1 identically for skew stencils."""

    thetas: np.ndarray
    amplification: np.ndarray
    phase_ratio: np.ndarray


@dataclass(frozen=True)
class ConvergenceRow:
    N_x: int
    dx: float
    error: float
    order: float | None = None


def symbol(stencil: Stencil, thetas: np.ndarray | Sequence[float]) -> SymbolCurve:
    """Evaluate the stencil's trigonometric symbol at the given angles."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return SymbolCurve(thetas=thetas, values=fourier_symbol(stencil, thetas))


def max_wave_speed(stencil: Stencil) -> float:
    """c_max = max_theta |mu(theta)|, taken over theta = 0 and the critical
    points of |mu|^2. With c = correlate(w, w), |mu|^2 = sum_k c_k z^k on
    z = exp(i theta), so its theta-derivative vanishes at the unit-circle
    roots of sum_k k c_k z^k; |mu| is evaluated at the angle of every root."""
    c = np.correlate(stencil.w, stencil.w, "full")
    k = np.arange(-2 * stencil.R, 2 * stencil.R + 1)
    thetas = np.concatenate([[0.0], np.angle(np.roots(k * c))])
    return float(np.max(np.abs(fourier_symbol(stencil, thetas))))


def cfl_bound(stencil: Stencil) -> float:
    """Leapfrog-style admissible time step 2 / c_max implied by the
    stencil symbol (informational: Crank-Nicolson needs no restriction)."""
    c = max_wave_speed(stencil)
    if c == 0.0:
        raise ValueError("degenerate operator: c_max = 0 admits no CFL bound")
    return 2.0 / c


def cn_dispersion(stencil: Stencil, dt: float, thetas: np.ndarray | Sequence[float]) -> DispersionCurves:
    """Crank-Nicolson one-step eigenvalue per mode,
    mu_CN = (1 + (dt/2) lam) / (1 - (dt/2) lam) with lam the stencil symbol."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(thetas == 0.0):
        raise ValueError("thetas must be nonzero (phase ratio divides by theta)")
    mu_cn = cn_multiplier(symbol(stencil, thetas).values, dt)
    return DispersionCurves(
        thetas=thetas,
        amplification=np.abs(mu_cn),
        phase_ratio=np.angle(mu_cn) / thetas,
    )


@np.errstate(over="ignore")  # past the largest float, arctan(inf) = pi/2 is the limit
def cn_reference_phase_ratio(dt: float, dx: float, thetas: np.ndarray) -> np.ndarray:
    """Exact CN phase for the continuous spectral symbol lam = i theta / dx,
    the 'continuous reference' curve of the dispersion plots."""
    return 2.0 * np.arctan(0.5 * dt * thetas / dx) / thetas


def modal_energies(f: FieldPair, grid: Grid1D) -> np.ndarray:
    """weight (dx/2) (|E_hat|^2 + |H_hat|^2) per rfft mode, with
    rfft_modes' Parseval weights and unitary transforms, so the N//2 + 1
    modal energies sum to the discrete energy. The 1/sqrt(N) is rounded
    from long double, as pocketfft does, so entry k is bit for bit scipy's
    ortho energy of mode k plus that of its conjugate twin N - k."""
    if f.N != grid.N:
        raise ValueError(f"fields have length {f.N}, grid has N={grid.N}")
    scale = float(1 / np.sqrt(np.longdouble(grid.N)))
    Ef, Hf = np.fft.rfft(f.E) * scale, np.fft.rfft(f.H) * scale
    return rfft_modes(grid.N)[1] * (0.5 * grid.dx) * (np.abs(Ef) ** 2 + np.abs(Hf) ** 2)


def convergence_study(
    stencil_source: Callable[[Grid1D], Stencil],
    resolutions: Sequence[int],
    T: float,
    dt_ratio: float,
    L: float = 1.0,
) -> list[ConvergenceRow]:
    """Traveling-wave error at final time T for a stencil built (usually
    learned) at each resolution, with dt = dt_ratio * dx rounded so the
    run lands exactly on T. order = log2(err_{k-1} / err_k).

    The runs use the spectral CN engine: the finest grid needs
    tens of thousands of steps, which that engine takes in closed form,
    each Fourier mode times m^n, at the cost of a few steps; it agrees
    with the stepped dense engine to roundoff (tested).
    """
    for name, value in (("final time T", T), ("dt_ratio", dt_ratio)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not resolutions or list(resolutions) != sorted(set(resolutions)):
        raise ValueError("resolutions must be nonempty and strictly ascending")
    rows: list[ConvergenceRow] = []
    for N in resolutions:
        grid = Grid1D(N=N, L=L)
        stencil = stencil_source(grid)
        n_steps = max(1, round(T / (dt_ratio * grid.dx)))
        cfg = SimConfig(dt=T / n_steps, n_steps=n_steps, grid=grid, stencil=stencil)
        result = simulate(traveling_wave_exact(grid, 0.0), cfg, engine="spectral")
        error = relative_l2_error(result.final.E, traveling_wave_exact(grid, T).E, grid)
        order = None if not rows else float(np.log2(rows[-1].error / error))
        rows.append(ConvergenceRow(N_x=N, dx=grid.dx, error=float(error), order=order))
    return rows

