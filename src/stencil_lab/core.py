"""Grids, convolution stencils, inner products, and discrete field energy.

Everything downstream (regression, solvers, time stepping, analysis) is
built on the periodic convolution operators and the rfft modes
(rfft_modes: their angles and Parseval weights) defined here.

Index convention: a stencil of radius R stores its 2R+1 coefficients for
offsets l = -R..R at array positions 0..2R, so ``w[R + l]`` is the
coefficient multiplying ``u[i + l]``. The same convention is used by the
regression assembly and the Fourier symbol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite, lcm
from pathlib import Path

import numpy as np


class NumericalError(RuntimeError):
    """A solver or linear-algebra step failed numerically (CLI exit code 1)."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid with N cells on a domain of length L."""

    N: int
    L: float = 1.0

    def __post_init__(self):
        if self.N < 3:
            raise ValueError(f"grid needs N >= 3, got N={self.N}")
        if not (isfinite(self.L) and self.L > 0):
            raise ValueError(f"domain length must be positive and finite, got L={self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Grid points x_i = i*dx, i = 0..N-1."""
        return np.arange(self.N) * self.dx


@dataclass(frozen=True, eq=False)
class Stencil:
    """Convolution stencil: 2R+1 coefficients (units 1/length) plus the
    grid spacing it was constructed for (kept for serialization and for
    building reference curves)."""

    w: np.ndarray
    dx: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 3 or w.size % 2 == 0:
            raise ValueError(f"stencil must hold 2R+1 >= 3 coefficients, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("stencil coefficients must be finite")
        if not (isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")

    @property
    def R(self) -> int:
        return (self.w.size - 1) // 2

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.R, self.R + 1)

    def to_dict(self) -> dict:
        return {"R": self.R, "w": [float(v) for v in self.w], "dx": self.dx}

    @classmethod
    def from_dict(cls, data: dict) -> "Stencil":
        if not isinstance(data, dict):
            raise ValueError("stencil file must hold a JSON object")
        missing = [key for key in ("R", "w", "dx") if key not in data]
        if missing:
            raise ValueError(f"stencil file lacks key(s): {', '.join(missing)}")
        R, dx = data["R"], data["dx"]
        if type(R) is not int or type(dx) not in (int, float):
            raise ValueError(f"stencil file needs an integer R and a number dx, got R={json.dumps(R)}, dx={json.dumps(dx)}")
        try:
            w = np.asarray(data["w"], dtype=float)
        except TypeError:
            raise ValueError(f"stencil file: w must be a list of numbers, got {json.dumps(data['w'])}") from None
        if w.size != 2 * R + 1:
            raise ValueError(f"stencil file inconsistent: len(w)={w.size} but R={R}")
        return cls(w=w, dx=float(dx))


def lift(a: np.ndarray) -> np.ndarray:
    """The skew stencil w = P a: w_{+l} = a_l, w_{-l} = -a_l, w_0 = 0."""
    a = np.asarray(a, dtype=float)
    return np.concatenate([-a[::-1], [0.0], a])


def load_stencil(path: str | Path) -> Stencil:
    return Stencil.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class FieldPair:
    """Electric and magnetic field samples on a shared periodic grid."""

    E: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.E, dtype=float)
        H = np.asarray(self.H, dtype=float)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "H", H)
        if E.shape != H.shape or E.ndim != 1:
            raise ValueError(f"E and H must be 1-d vectors of equal length, got {E.shape} and {H.shape}")

    @property
    def N(self) -> int:
        return self.E.size


def _check_grid_vector(u: np.ndarray, grid: Grid1D, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.N,):
        raise ValueError(f"{name} has shape {u.shape}, expected ({grid.N},)")
    return u


def apply_stencil(stencil: Stencil, u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Apply the periodic convolution (Du)_i = sum_l w_l u_{(i+l) mod N}
    along the last axis of u.

    Requires N >= 2R+1; smaller grids would make the wrap-around hit the
    same entry twice and silently break the circulant structure.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (grid.N,):
        raise ValueError(f"u has shape {u.shape}, expected (..., {grid.N})")
    R = stencil.R
    if grid.N < 2 * R + 1:
        raise ValueError(f"grid N={grid.N} too small for stencil radius R={R} (need N >= {2 * R + 1})")
    out = np.zeros_like(u)
    for l, wl in zip(range(-R, R + 1), stencil.w):
        if wl != 0.0:
            out += wl * np.roll(u, -l, axis=-1)
    return out


def circulant(col: np.ndarray) -> np.ndarray:
    """The circulant matrix with first column col, C_ij = col[(i - j) mod N]."""
    # row i is col[i], col[i-1], ..., wrapping: the length-N window of
    # (col reversed, then col[N-1..1]) that starts at N-1-i
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([col[::-1], col[:0:-1]]), col.size)
    return windows[::-1].copy()


def fourier_symbol(stencil: Stencil, thetas: np.ndarray) -> np.ndarray:
    """mu(theta) = sum_l w_l exp(i l theta), the eigenvalue of the
    convolution operator on the Fourier mode exp(i j theta)."""
    return np.exp(1j * np.outer(thetas, stencil.offsets)) @ stencil.w


def rfft_modes(N: int, d: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The N//2 + 1 rfft modes of a real length-N signal: their angles
    2 pi rfftfreq(N, d), per sample spacing d (so wavenumbers for d = dx),
    and their Parseval weights, 2 for a mode k that stands for itself and
    its conjugate twin N - k, and 1 for a mode that is its own twin (mode 0
    and, at even N, the Nyquist mode). The weights sum to N."""
    k = np.arange(N // 2 + 1)
    return 2.0 * np.pi * np.fft.rfftfreq(N, d), np.where(2 * k % N == 0, 1.0, 2.0)


def solve_refined(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b in float64 and take one step of iterative refinement,
    with the residual evaluated in the precision of A and b. The step also
    repairs the error that pivot growth leaves in the float64 LU solve. Only
    the reference QP solver uses it; the dense CN engine builds its Cayley
    matrix, or for a non-skew stencil its two, by conjugate gradients."""
    A64 = np.asarray(A, dtype=float)
    x = np.linalg.solve(A64, np.asarray(b, dtype=float))
    return x + np.linalg.solve(A64, np.asarray(b - A @ x, dtype=float))


def inner_product(u: np.ndarray, v: np.ndarray, grid: Grid1D) -> float:
    """Discrete L2 inner product <u, v> = dx * sum_i u_i v_i."""
    u = _check_grid_vector(u, grid, "u")
    v = _check_grid_vector(v, grid, "v")
    return grid.dx * float(np.dot(u, v))


def norm(u: np.ndarray, grid: Grid1D) -> float:
    """dx-weighted discrete L2 norm."""
    return float(np.sqrt(inner_product(u, u, grid)))


def discrete_energy(fields: FieldPair, grid: Grid1D) -> float:
    """Discrete electromagnetic energy (1/2)||E||^2 + (1/2)||H||^2 in the
    dx-weighted norm. Conserved exactly by the semi-discrete system when
    the spatial operator is skew-adjoint."""
    if fields.N != grid.N:
        raise ValueError(f"fields have length {fields.N}, grid has N={grid.N}")
    return 0.5 * inner_product(fields.E, fields.E, grid) + 0.5 * inner_product(fields.H, fields.H, grid)


def centered_difference_stencil(grid: Grid1D, R: int = 1) -> Stencil:
    """Centered difference of order 2R: w_{+l} = -w_{-l} =
    (-1)^(l+1) (R!)^2 / (l (R-l)! (R+l)!) / dx. The coefficients are
    integer numerators over q dx, with q the least common denominator, so
    R=1 gives (-1, 0, 1) / (2 dx) and R=2 (1, -8, 0, 8, -1) / (12 dx)."""
    c = [Fraction((-1) ** (l + 1) * factorial(R) ** 2, l * factorial(R - l) * factorial(R + l)) for l in range(1, R + 1)]
    q = lcm(*(f.denominator for f in c))
    return Stencil(w=lift([float(f * q) for f in c]) / (q * grid.dx), dx=grid.dx)
