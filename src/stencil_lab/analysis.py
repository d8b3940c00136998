"""Fourier-symbol diagnostics, wave speed and CFL bound, Crank-Nicolson
dispersion curves, modal energies, and the spatial convergence harness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .core import FieldPair, Grid1D, Stencil, fourier_symbol
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
    if dt <= 0:
        raise ValueError("dt must be positive")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(thetas == 0.0):
        raise ValueError("thetas must be nonzero (phase ratio divides by theta)")
    mu_cn = cn_multiplier(symbol(stencil, thetas).values, dt)
    return DispersionCurves(
        thetas=thetas,
        amplification=np.abs(mu_cn),
        phase_ratio=np.angle(mu_cn) / thetas,
    )


def cn_reference_phase_ratio(dt: float, dx: float, thetas: np.ndarray) -> np.ndarray:
    """Exact CN phase for the continuous spectral symbol lam = i theta / dx,
    the 'continuous reference' curve of the dispersion plots."""
    return 2.0 * np.arctan(0.5 * dt * thetas / dx) / thetas


def modal_energies(f: FieldPair, grid: Grid1D) -> np.ndarray:
    """(dx/2) (|E_hat|^2 + |H_hat|^2) per discrete Fourier mode, with
    unitary-normalized transforms so the modal energies sum to the total
    discrete energy."""
    if f.N != grid.N:
        raise ValueError(f"fields have length {f.N}, grid has N={grid.N}")
    Ef = scipy.fft.fft(f.E, norm="ortho")
    Hf = scipy.fft.fft(f.H, norm="ortho")
    return 0.5 * grid.dx * (np.abs(Ef) ** 2 + np.abs(Hf) ** 2)


def convergence_study(
    stencil_source: Callable[[Grid1D], Stencil],
    resolutions: Sequence[int],
    T: float,
    dt_ratio: float,
    L: float = 1.0,
    engine: str = "spectral",
) -> list[ConvergenceRow]:
    """Traveling-wave error at final time T for a stencil built (usually
    learned) at each resolution, with dt = dt_ratio * dx rounded so the
    run lands exactly on T. order = log2(err_{k-1} / err_k).

    The spectral CN engine is the default here: the study takes tens of
    thousands of steps at the finest grid, and the engine is exact for
    the same one-step map (agreement with the dense engine is tested).
    """
    if T <= 0 or dt_ratio <= 0:
        raise ValueError("T and dt_ratio must be positive")
    if list(resolutions) != sorted(set(resolutions)):
        raise ValueError("resolutions must be strictly ascending")
    rows: list[ConvergenceRow] = []
    for N in resolutions:
        grid = Grid1D(N=N, L=L)
        stencil = stencil_source(grid)
        n_steps = max(1, round(T / (dt_ratio * grid.dx)))
        cfg = SimConfig(dt=T / n_steps, n_steps=n_steps, grid=grid, stencil=stencil)
        result = simulate(traveling_wave_exact(grid, 0.0), cfg, engine=engine)
        error = relative_l2_error(result.final.E, traveling_wave_exact(grid, T).E, grid)
        order = None if not rows else float(np.log2(rows[-1].error / error))
        rows.append(ConvergenceRow(N_x=N, dx=grid.dx, error=float(error), order=order))
    return rows


def write_symbol_csv(curve: SymbolCurve, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "re_mu", "im_mu"])
        for t, v in zip(curve.thetas, curve.values):
            writer.writerow([repr(float(t)), repr(float(v.real)), repr(float(v.imag))])


def write_dispersion_csv(curves: DispersionCurves, dt: float, dx: float, path: str | Path) -> None:
    reference = cn_reference_phase_ratio(dt, dx, curves.thetas)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "amplification", "phase_ratio", "reference_phase_ratio"])
        for t, a, p, r in zip(curves.thetas, curves.amplification, curves.phase_ratio, reference):
            writer.writerow([repr(float(t)), repr(float(a)), repr(float(p)), repr(float(r))])


def write_convergence_csv(rows: Sequence[ConvergenceRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N_x", "dx", "error", "order"])
        for row in rows:
            writer.writerow([
                row.N_x,
                repr(row.dx),
                repr(row.error),
                "" if row.order is None else repr(row.order),
            ])
