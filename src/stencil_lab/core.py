"""Grids, convolution stencils, inner products, and discrete field energy.

Everything downstream (regression, solvers, time stepping, analysis) is
built on the periodic convolution operators defined here.

Index convention: a stencil of radius R stores its 2R+1 coefficients for
offsets l = -R..R at array positions 0..2R, so ``w[R + l]`` is the
coefficient multiplying ``u[i + l]``. The same convention is used by the
regression assembly and the Fourier symbol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg


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
        if self.L <= 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")

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
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")

    @property
    def R(self) -> int:
        return (self.w.size - 1) // 2

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.R, self.R + 1)

    def is_skew(self, tol: float = 1e-12) -> bool:
        """True when w_0 = 0 and w_{-l} = -w_{+l}, the condition for the
        operator matrix to satisfy D^T = -D."""
        return bool(np.max(np.abs(self.w + self.w[::-1])) <= tol * max(1.0, np.max(np.abs(self.w))))

    def to_dict(self) -> dict:
        return {"R": self.R, "w": [float(v) for v in self.w], "dx": self.dx}

    @classmethod
    def from_dict(cls, data: dict) -> "Stencil":
        if not isinstance(data, dict):
            raise ValueError("stencil file must hold a JSON object")
        missing = [key for key in ("R", "w", "dx") if key not in data]
        if missing:
            raise ValueError(f"stencil file lacks key(s): {', '.join(missing)}")
        w = np.asarray(data["w"], dtype=float)
        if w.size != 2 * int(data["R"]) + 1:
            raise ValueError(f"stencil file inconsistent: len(w)={w.size} but R={data['R']}")
        return cls(w=w, dx=float(data["dx"]))


def save_stencil(stencil: Stencil, path: str | Path) -> None:
    Path(path).write_text(json.dumps(stencil.to_dict(), indent=2) + "\n")


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
    """Apply the periodic convolution (Du)_i = sum_l w_l u_{(i+l) mod N}.

    Requires N >= 2R+1; smaller grids would make the wrap-around hit the
    same entry twice and silently break the circulant structure.
    """
    u = _check_grid_vector(u, grid)
    R = stencil.R
    if grid.N < 2 * R + 1:
        raise ValueError(f"grid N={grid.N} too small for stencil radius R={R} (need N >= {2 * R + 1})")
    out = np.zeros_like(u)
    for l, wl in zip(range(-R, R + 1), stencil.w):
        if wl != 0.0:
            out += wl * np.roll(u, -l)
    return out


def operator_matrix(stencil: Stencil, N: int) -> np.ndarray:
    """Dense circulant matrix of the convolution operator, D_ij = w_{(j-i) mod N}."""
    R = stencil.R
    if N < 2 * R + 1:
        raise ValueError(f"N={N} too small for stencil radius R={R} (need N >= {2 * R + 1})")
    col = np.zeros(N)
    col[0] = stencil.w[R]
    for l in range(1, R + 1):
        col[l] = stencil.w[R - l]       # w_{-l}
        col[N - l] = stencil.w[R + l]   # w_{+l}
    return scipy.linalg.circulant(col)


def fourier_symbol(stencil: Stencil, thetas: np.ndarray) -> np.ndarray:
    """mu(theta) = sum_l w_l exp(i l theta), the eigenvalue of the
    convolution operator on the Fourier mode exp(i j theta)."""
    return np.exp(1j * np.outer(thetas, stencil.offsets)) @ stencil.w


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


def centered_difference_stencil(grid: Grid1D) -> Stencil:
    """Second-order centered difference, w = (-1, 0, 1) / (2 dx)."""
    h = grid.dx
    return Stencil(w=np.array([-1.0, 0.0, 1.0]) / (2.0 * h), dx=h)
