"""Least-squares statistics, the skew-symmetry constraints, and the
skew-reduced problem the solvers work on.

The regression fits a radius-R stencil w so that, for every (sample,
field, grid index), the periodic patch (u_{i-R}, ..., u_{i+R}) times w
gives the time derivative at index i. Those patches are the rows of a
design matrix A with 2 n_sims N rows and 2R+1 columns, and the
derivatives form b. Because the stencil is a periodic convolution, the
least-squares problem needs only

    (A^T A)[j, k] = r(|k - j|),  r(d) = sum_s sum_i u_s[i] u_s[(i + d) mod N],
    (A^T b)[j]    = sum_s sum_i u_s[(i + j - R) mod N] v_s[i],
    b^T b         = sum_s sum_i v_s[i]^2,

the Toeplitz matrix of the fields' periodic autocorrelation, their
cross-correlation with the targets, and the targets' energy.
assemble_regression computes these 2(2R+1) lag dot products from the
training fields directly; A and b are gathered only when read. Every
solver iteration costs O(R^2) regardless of the number of rows.

Skew-adjointness (w_0 = 0, w_{-l} = -w_{+l}) is the only linear
constraint. It is eliminated by the parametrization w = P a with free
coefficients a_l = w_{+l} (core.lift); the box |w| <= M is then exactly
|a| <= M. The system is the R-unknown box QP in a that the solvers
solve: RegressionSystem.H and .g are its Hessian and linear term,
formed once, on first read, by pairing the entries of offsets +l and -l
(no code forms P).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite

import numpy as np

from .training import TrainingSet


def check_penalties(lam: float, M: float) -> None:
    """Raise ValueError unless the ridge weight lam is nonnegative and
    finite, with 2 lam finite too, and the box bound M is positive."""
    if not (isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if not isfinite(2 * lam):  # H holds 2 lam
        raise ValueError(f"lam must be at most half the largest float (H holds 2 lam), got {lam}")
    if not M > 0:  # M = inf leaves the box open; NaN fails this test
        raise ValueError(f"box bound M must be positive, got {M}")


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


@dataclass(frozen=True, eq=False)
class RegressionSystem:
    """Tikhonov-regularized least squares min (1/2)||Aw-b||^2 + (lam/2)||w||^2
    with box bound |w_l| <= M, held as A^T A, A^T b and b^T b.

    It is also the QP in the free coefficients a (w = P a, P^T P = 2I)
    that the solvers solve:
    minimize F(a) = (1/2) a^T H a - g^T a + (1/2) b^T b subject to |a| <= M.
    H_ext and g_ext are H and g in extended precision; H and g are them
    rounded to float64. Each is formed on first read (cached), and every
    array the system holds is read-only, so the cache cannot go stale.

    A and b are gathered from the training set of a system from
    assemble_regression on first read (cached).
    """

    gram: np.ndarray          # A^T A
    atb: np.ndarray           # A^T b
    btb: float                # b^T b
    rows: int                 # rows of A
    lam: float = 1e-6
    M: float = 100.0
    training: TrainingSet | None = field(default=None, repr=False)

    def __post_init__(self):
        gram = np.array(self.gram, dtype=float)
        atb = np.array(self.atb, dtype=float)
        if atb.ndim != 1 or gram.shape != (atb.size, atb.size):
            raise ValueError(f"need a square gram and matching atb, got {gram.shape} and {atb.shape}")
        if atb.size % 2 == 0:
            raise ValueError(f"stencil dimension must be odd (2R+1), got {atb.size}")
        check_penalties(self.lam, self.M)
        object.__setattr__(self, "gram", _read_only(gram))
        object.__setattr__(self, "atb", _read_only(atb))

    def _pairs(self, x: np.ndarray) -> np.ndarray:
        """P^T x along the first axis in extended precision: row l is
        x_{+l} - x_{-l}, l = 1..R."""
        x, R = x.astype(np.longdouble), self.R
        return x[R + 1:] - x[R - 1::-1]

    @cached_property
    def H_ext(self) -> np.ndarray:
        """H = P^T (A^T A) P + 2 lam I in extended precision. The entries of
        A^T A are large next to H's small eigenvalues (condition number
        ~1e11 at R = 4 on the default data), so forming H in float64 loses
        digits to cancellation."""
        lam2 = 2 * np.longdouble(self.lam) * np.eye(self.R, dtype=np.longdouble)
        return _read_only(self._pairs(self._pairs(self.gram).T).T + lam2)

    @cached_property
    def g_ext(self) -> np.ndarray:
        """g = P^T A^T b in extended precision."""
        return _read_only(self._pairs(self.atb))

    @cached_property
    def H(self) -> np.ndarray:
        return _read_only(self.H_ext.astype(float))

    @cached_property
    def g(self) -> np.ndarray:
        return _read_only(self.g_ext.astype(float))

    def objective(self, a: np.ndarray) -> float:
        """F(a)."""
        return 0.5 * float(a @ (self.H @ a)) - float(self.g @ a) + 0.5 * self.btb

    @cached_property
    def A(self) -> np.ndarray:
        """The design matrix, one row per (sample, field, grid index):
        sample-major, all H rows (targets dE/dt) before all E rows (targets
        dH/dt), grid index ascending, each holding the patch
        (u_{i-R}, ..., u_{i+R})."""
        ts, R = self._source(), self.R
        N = ts.config.grid.N
        idx = (np.arange(N)[:, None] + np.arange(-R, R + 1)[None, :]) % N  # (i, j) -> (i + j - R) mod N
        return ts.states[:, ::-1][:, :, idx].reshape(-1, 2 * R + 1)

    @cached_property
    def b(self) -> np.ndarray:
        """The targets, one per row of A."""
        return self._source().derivatives.reshape(-1).copy()

    def _source(self) -> TrainingSet:
        if self.training is None:
            raise ValueError("this system holds no training set to build A and b from")
        return self.training

    @property
    def n_coeffs(self) -> int:
        return self.gram.shape[0]

    @property
    def R(self) -> int:
        return (self.n_coeffs - 1) // 2


def assemble_regression(ts: TrainingSet, R: int, lam: float = RegressionSystem.lam,
                        M: float = RegressionSystem.M) -> RegressionSystem:
    """A^T A, A^T b and b^T b of the patch rows and derivative targets (see
    RegressionSystem.A) as periodic lag dot products of the training
    fields, without forming A. The sums run over the same products as
    A.T @ A and A.T @ b in another order, so they agree to roundoff."""
    N = ts.config.grid.N
    if R < 1:
        raise ValueError(f"stencil radius must be >= 1, got {R}")
    if N < 2 * R + 1:
        raise ValueError(f"grid N={N} too small for radius R={R} (need N >= {2 * R + 1})")
    # Pair the fields in storage order: X[s, 0] = E with dH/dt, X[s, 1] = H with
    # dE/dt. The row order does not change a sum, and X needs no copy for vdot.
    X = np.ascontiguousarray(ts.states)
    Y = ts.derivatives[:, ::-1]
    lags = np.array([np.vdot(X, np.roll(X, -d, axis=-1)) for d in range(2 * R + 1)])
    k = np.arange(2 * R + 1)
    gram = lags[np.abs(k[:, None] - k[None, :])]
    # (A^T b)[j] = sum_i u[i + j - R] v[i] = sum_i u[i] v[i - (j - R)]
    atb = np.array([np.vdot(X, np.roll(Y, j - R, axis=-1)) for j in range(2 * R + 1)])
    btb = float(np.vdot(ts.derivatives, ts.derivatives))
    if not (np.isfinite(gram).all() and np.isfinite(atb).all() and isfinite(btb)):
        raise ValueError("the training data's A^T A, A^T b or b^T b overflowed; its fields are too large")
    return RegressionSystem(gram=gram, atb=atb, btb=btb, rows=X.size, lam=lam, M=M, training=ts)


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
