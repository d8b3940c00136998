"""Reference implementations the tests compare the library against: the
dense operator matrix D, the regression system of an explicit design
matrix, the full-space objective and its gradient, the skew coordinates
of a stencil (the skew projection), the reduced H and g formed with the
matrix P, and the full length-N DFT of a real vector. The library itself
needs none of them; it assembles its systems from the training fields
without forming A, the solvers work in skew coordinates from the start,
the system pairs the entries of offsets +l and -l instead of forming P,
and the library's FFTs work on the rfft modes."""

import numpy as np

from stencil_lab.core import Stencil, circulant, lift
from stencil_lab.regression import RegressionSystem


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
    return circulant(col)


def real_fft(u: np.ndarray, ortho: bool = False) -> np.ndarray:
    """Full DFT of a real vector, bit-identical to scipy.fft.fft(u) (or to
    its norm="ortho" form): numpy's rfft plus the Hermitian fill, with the
    1/sqrt(N) factor rounded from long double as pocketfft does."""
    N = u.size
    r = np.fft.rfft(u)
    f = np.concatenate([r, np.conj(r[1:(N + 1) // 2][::-1])])
    if ortho:
        f *= float(1 / np.sqrt(np.longdouble(N)))
    return f


def dense_system(A, b, lam: float = RegressionSystem.lam, M: float = RegressionSystem.M) -> RegressionSystem:
    """The system of an explicit design matrix A (rows x n) and targets b."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return RegressionSystem(gram=A.T @ A, atb=A.T @ b, btb=float(b @ b), rows=len(A), lam=lam, M=M)


def objective_and_gradient(sys, w: np.ndarray) -> tuple[float, np.ndarray]:
    """f(w) = (1/2)||Aw-b||^2 + (lam/2)||w||^2 and its gradient
    A^T(Aw-b) + lam w, evaluated through the cached Gram form."""
    w = np.asarray(w, dtype=float)
    if w.shape != (sys.n_coeffs,):
        raise ValueError(f"w has shape {w.shape}, expected ({sys.n_coeffs},)")
    gw = sys.gram @ w
    f = 0.5 * float(w @ gw) - float(sys.atb @ w) + 0.5 * sys.btb + 0.5 * sys.lam * float(w @ w)
    grad = gw - sys.atb + sys.lam * w
    return f, grad


def skew_coordinates(w: np.ndarray) -> np.ndarray:
    """a = P^T w / 2, so lift(skew_coordinates(w)) is the Euclidean
    projection of w onto the skew stencils; exact for skew w."""
    w = np.asarray(w, dtype=float)
    R = (w.size - 1) // 2
    return 0.5 * (w[R + 1:] - w[R - 1::-1])


def reduced_by_matrix(sys: RegressionSystem) -> tuple[np.ndarray, np.ndarray]:
    """H = P^T (A^T A) P + 2 lam I and g = P^T A^T b in extended precision,
    with P the matrix whose columns are lift(e_l)."""
    P = np.array([lift(e) for e in np.eye(sys.R)], dtype=np.longdouble).T
    lam2 = 2 * np.longdouble(sys.lam) * np.eye(sys.R, dtype=np.longdouble)
    return P.T @ sys.gram.astype(np.longdouble) @ P + lam2, P.T @ sys.atb.astype(np.longdouble)
