"""Least-squares system assembly, the skew-symmetry constraints, and the
skew-reduced problem the solvers work on.

The design matrix A stacks one row per (sample, field, grid index): the
row holds the periodic patch (u_{i-R}, ..., u_{i+R}) and the target is
the corresponding time derivative at index i. Because A has at most 2R+1
columns, the Gram matrix A^T A and A^T b are precomputed once; every
solver iteration then costs O(R^2) regardless of the number of rows.

Skew-adjointness (w_0 = 0, w_{-l} = -w_{+l}) is the only linear
constraint. It is eliminated by the parametrization w = P a with free
coefficients a_l = w_{+l} (lift); the box |w| <= M is then exactly
|a| <= M, and reduce_problem gives the R-unknown box QP in a.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .training import TrainingSet


@dataclass(frozen=True, eq=False)
class RegressionSystem:
    """Tikhonov-regularized least squares min (1/2)||Aw-b||^2 + (lam/2)||w||^2
    with box bound |w_l| <= M."""

    A: np.ndarray
    b: np.ndarray
    lam: float = 1e-6
    M: float = 100.0
    gram: np.ndarray = field(init=False)      # A^T A
    atb: np.ndarray = field(init=False)       # A^T b
    btb: float = field(init=False)            # b^T b

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError(f"need A (rows x n) and matching b, got {A.shape} and {b.shape}")
        if A.shape[1] % 2 == 0:
            raise ValueError(f"stencil dimension must be odd (2R+1), got {A.shape[1]}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.M <= 0:
            raise ValueError("box bound M must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gram", A.T @ A)
        object.__setattr__(self, "atb", A.T @ b)
        object.__setattr__(self, "btb", float(b @ b))

    @property
    def n_coeffs(self) -> int:
        return self.A.shape[1]

    @property
    def R(self) -> int:
        return (self.n_coeffs - 1) // 2


def assemble_regression(ts: TrainingSet, R: int, lam: float = 1e-6, M: float = 100.0) -> RegressionSystem:
    """Stack patch rows and derivative targets into (A, b).

    Row order is deterministic: sample-major, all H-patch rows (targets
    dE/dt) before all E-patch rows (targets dH/dt), grid index ascending.
    """
    grid = ts.config.grid
    N = grid.N
    if R < 1:
        raise ValueError(f"stencil radius must be >= 1, got {R}")
    if N < 2 * R + 1:
        raise ValueError(f"grid N={N} too small for radius R={R} (need N >= {2 * R + 1})")
    # idx[i, j] = (i + j - R) mod N maps grid index i and column j to the patch entry
    idx = (np.arange(N)[:, None] + np.arange(-R, R + 1)[None, :]) % N
    # field order (H, E) per sample, matching targets (dE/dt, dH/dt)
    patches = ts.states[:, [1, 0], :][:, :, idx]                # (n, 2, N, 2R+1)
    A = patches.reshape(-1, 2 * R + 1)
    b = ts.derivatives[:, [0, 1], :].reshape(-1)
    return RegressionSystem(A=A, b=b, lam=lam, M=M)


@dataclass(frozen=True)
class SkewConstraints:
    """Skew-adjointness of the radius-R convolution operator:
    w_0 = 0 and w_{-l} + w_{+l} = 0 for l = 1..R."""

    R: int

    def residual(self, w: np.ndarray) -> float:
        """Euclidean norm of (w_0, w_{-1} + w_{+1}, ..., w_{-R} + w_{+R})."""
        w = np.asarray(w, dtype=float)
        R = self.R
        if w.shape != (2 * R + 1,):
            raise ValueError(f"w has shape {w.shape}, expected ({2 * R + 1},)")
        pairs = w[R:] + w[R::-1]  # (2 w_0, w_{+1} + w_{-1}, ..., w_{+R} + w_{-R})
        pairs[0] = w[R]
        return float(np.linalg.norm(pairs))


def build_skew_constraints(R: int) -> SkewConstraints:
    """The skew-adjointness constraints of a radius-R stencil."""
    if R < 1:
        raise ValueError(f"radius must be >= 1, got {R}")
    return SkewConstraints(R)


def lift(a: np.ndarray) -> np.ndarray:
    """The skew stencil w = P a: w_{+l} = a_l, w_{-l} = -a_l, w_0 = 0."""
    a = np.asarray(a, dtype=float)
    return np.concatenate([-a[::-1], [0.0], a])


def skew_coordinates(w: np.ndarray) -> np.ndarray:
    """a = P^T w / 2, so lift(skew_coordinates(w)) is the Euclidean
    projection of w onto the skew stencils; exact for skew w."""
    w = np.asarray(w, dtype=float)
    R = (w.size - 1) // 2
    return 0.5 * (w[R + 1:] - w[R - 1::-1])


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """The QP in the free coefficients a (w = P a, P^T P = 2I):
    minimize F(a) = (1/2) a^T H a - g^T a + (1/2) b^T b subject to |a| <= M.

    H_ext and g_ext are H and g in extended precision; H and g are them
    rounded to float64.
    """

    H: np.ndarray
    g: np.ndarray
    H_ext: np.ndarray
    g_ext: np.ndarray
    btb: float
    M: float

    @property
    def R(self) -> int:
        return self.g.size

    def objective(self, a: np.ndarray) -> float:
        return 0.5 * float(a @ (self.H @ a)) - float(self.g @ a) + 0.5 * self.btb

    def gradient(self, a: np.ndarray) -> np.ndarray:
        return self.H @ a - self.g


def reduce_problem(sys: RegressionSystem) -> ReducedProblem:
    """Substitute w = P a into f: H = P^T (A^T A) P + 2 lam I, g = P^T A^T b.

    Both are formed in extended precision. The entries of A^T A are large
    next to H's small eigenvalues (condition number ~1e11 at R = 4 on the
    default data), so forming H in float64 loses digits to cancellation.
    """
    P = np.array([lift(e) for e in np.eye(sys.R)], dtype=np.longdouble).T
    H = P.T @ sys.gram.astype(np.longdouble) @ P + 2 * np.longdouble(sys.lam) * np.eye(sys.R, dtype=np.longdouble)
    g = P.T @ sys.atb.astype(np.longdouble)
    return ReducedProblem(H=H.astype(float), g=g.astype(float), H_ext=H, g_ext=g, btb=sys.btb, M=sys.M)


def objective_and_gradient(sys: RegressionSystem, w: np.ndarray) -> tuple[float, np.ndarray]:
    """f(w) = (1/2)||Aw-b||^2 + (lam/2)||w||^2 and its gradient
    A^T(Aw-b) + lam w, evaluated through the cached Gram form."""
    w = np.asarray(w, dtype=float)
    if w.shape != (sys.n_coeffs,):
        raise ValueError(f"w has shape {w.shape}, expected ({sys.n_coeffs},)")
    gw = sys.gram @ w
    f = 0.5 * float(w @ gw) - float(sys.atb @ w) + 0.5 * sys.btb + 0.5 * sys.lam * float(w @ w)
    grad = gw - sys.atb + sys.lam * w
    return f, grad


def dump_diagnostics(sys: RegressionSystem, path: str | Path) -> dict:
    """Write system dimensions and the Gram matrix to JSON."""
    info = {
        "rows": int(sys.A.shape[0]),
        "cols": int(sys.A.shape[1]),
        "lambda": sys.lam,
        "box_bound": sys.M,
        "gram": [[float(v) for v in row] for row in sys.gram],
    }
    Path(path).write_text(json.dumps(info, indent=2) + "\n")
    return info
