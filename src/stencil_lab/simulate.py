"""Crank-Nicolson time integration of the semi-discrete Maxwell system
dE/dt = D H, dH/dt = D E for an arbitrary convolution stencil D.

In p = E + H and q = E - H the system splits into dp/dt = D p and
dq/dt = -D q, so one CN step maps p by S(dt/2) and q by S(-dt/2), with the
Cayley transform S(h) = (I - h D)^{-1} (I + h D). For a skew-adjoint D both
maps are orthogonal, so the discrete energy (||p||^2 + ||q||^2) / 4 and
every modal energy are conserved exactly, for any time step.

Since p and q never interact, each engine is one function (see ENGINES)
that returns per chain the squared norm ||u||^2 of its state after each
step, up to the first non-finite one, and the states at the requested
steps. `simulate` alone forms E = (p + q)/2, H = (p - q)/2 and the energy
dx/4 (||p||^2 + ||q||^2).

For a skew D (w_{-l} = -w_l exactly), S(-h) = S(h)^T = J S(h) J, where J
is the index mirror i -> -i mod N: q's operator is p's, mirrored. The dense
engine then needs one N x N matrix, S(dt/2), and steps p and J q together,
so each step reads the matrix from memory once for both chains. For any
other stencil it runs p for all n_steps with S(dt/2), then q with
S(-dt/2), so again only one matrix is alive at a time.

* "dense": the N x N matrix S(dt/2), and for a non-skew stencil S(-dt/2),
  applied once per step. S(h) is a rational function of the circulant D,
  and circulants are closed under products and inverses, so S(h) is
  circulant and its first column builds it. That column comes from
  matrix-free conjugate gradients on the normal equations (CGNR; Saad,
  Iterative Methods for Sparse Linear Systems, 2003, sec. 8.3; see
  cayley_matrix): no pivoting, so no error growth with N. This is the
  default and the behavioral reference, FFT-free, LU-free and stepped.
* "spectral": the FFT diagonalizes the circulant D, so S(+-dt/2) multiplies
  each Fourier mode by the same m = cn_multiplier(+-mu) at every step. The
  engine takes no steps: after k steps a mode is m^k times its start, and
  the squared norm is a sum of powers |m|^(2k) (see _spectral).
  Agrees with the dense engine to roundoff (tested at 1e-12).

A non-skew stencil has multipliers of modulus above 1 (see
max_cn_amplification), so its modes grow on either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FieldPair, Grid1D, NumericalError, Stencil, circulant, discrete_energy, fourier_symbol, norm, rfft_modes


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
        R, N = self.stencil.R, self.grid.N
        if N < 2 * R + 1:
            raise ValueError(f"grid N={N} too small for stencil radius R={R} (need N >= {2 * R + 1})")
        if not math.isclose(self.stencil.dx, self.grid.dx, rel_tol=1e-12):
            raise ValueError(f"stencil dx={self.stencil.dx} does not match the grid's dx={self.grid.dx}")


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
    """The stencil's symbol at the angles 0..pi of the grid's rfft modes
    (rfft_modes), the eigenvalues of D on those modes; a real stencil has
    mu(-theta) = conj mu(theta), which covers the other half. Raises
    NumericalError when a CN denominator 1 -+ dt mu/2 is zero, i.e. the
    CN system is singular."""
    mu = fourier_symbol(cfg.stencil, rfft_modes(cfg.grid.N)[0])
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
_ILL_CONDITIONED = "Crank-Nicolson system too ill-conditioned for the dense engine: conjugate gradients"


def _periodic_correlate(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(G u)_i = sum_m g_m u_{(i+m) mod N} for the stencil g of radius
    r = (len(g) - 1) / 2 <= N, stored as Stencil.w is (offset m at r + m)."""
    r = g.size // 2
    return np.correlate(np.concatenate([u[u.size - r:], u, u[:r]]), g)


def _cg(g: np.ndarray, r: np.ndarray, cap: int) -> np.ndarray:
    """x with G x = r by conjugate gradients from x = 0, for the symmetric
    positive definite circulant G of stencil g. Returns zero at once when
    r is zero. Raises NumericalError when r is not finite (the CN system
    overflowed), after cap iterations, and once p^T G p is not positive,
    which only roundoff or overflow causes."""
    x = np.zeros_like(r)
    rr = r @ r
    if not math.isfinite(rr):
        raise NumericalError("Crank-Nicolson system overflowed in the dense engine: dt is too large for it")
    stop = _CG_RTOL**2 * rr
    p = r
    k = 0
    while not rr <= stop:
        if k == cap:
            raise NumericalError(f"{_ILL_CONDITIONED} did not converge in {cap} iterations")
        k += 1
        q = _periodic_correlate(g, p)
        pq = p @ q
        if not pq > 0.0:  # NaN too
            raise NumericalError(f"{_ILL_CONDITIONED} did not converge: p^T G p = {pq} at iteration {k}")
        alpha = rr / pq
        x += alpha * p
        r = r - alpha * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return x


def cayley_matrix(cfg: SimConfig, sign: int) -> np.ndarray:
    """S(sign dt/2), the p chain's N x N circulant for sign = +1 and, for a
    non-skew stencil, the q chain's for -1 (a skew stencil's q chain runs
    on S(dt/2) mirrored; see _dense), built from the first column s of
    S(h) = (I - h D)^{-1} (I + h D): conjugate gradients on
    A^T A s = A^T B e_0, with A = I - h D and B = I + h D, then one
    refinement step, CG on A^T A d = A^T (B e_0 - A s). A^T A is applied
    as one stencil of radius 2R, the self-correlation of A's stencil, so
    each iteration costs O(N R) and the build keeps no N x N matrix but S.

    In exact arithmetic CG ends within floor(N/2) + 1 iterations, the
    number of distinct eigenvalues |1 - h mu(theta)|^2 of A^T A. Roundoff
    delays it: at time steps of hundreds of cells a solve took up to
    about 6 N iterations (N = 1024, dt = 655 dx). Each solve is capped at
    10 N iterations and raises NumericalError there, as it does for a
    near-singular CN system, which CG cannot resolve, and for one whose
    build overflows (at time steps of ~1e90 cells and up)."""
    R, N = cfg.stencil.R, cfg.grid.N
    unit = np.eye(1, 2 * R + 1, R)[0]  # the identity's stencil
    hw = sign * 0.5 * cfg.dt * cfg.stencil.w  # h D
    a, b = unit - hw, unit + hw  # the stencils of A and B
    a_t = a[::-1]  # the stencil of A^T
    normal = np.convolve(a, a_t)  # the stencil of A^T A, radius 2R
    rhs = _periodic_correlate(b, np.eye(1, N)[0])
    s = _cg(normal, _periodic_correlate(a_t, rhs), 10 * N)
    s += _cg(normal, _periodic_correlate(a_t, rhs - _periodic_correlate(a, s)), 10 * N)
    return circulant(s)


Chain = tuple[np.ndarray, dict[int, np.ndarray]]  # squared norms per step, states at the kept steps


def _dense(cfg: SimConfig, init: FieldPair, n: int, keep: set[int]) -> tuple[Chain, Chain]:
    """p stepped n times by S(dt/2) = cayley_matrix(cfg, +1) and q by
    S(-dt/2). A skew stencil builds only S(dt/2): with J the mirror
    i -> -i mod N, S(-dt/2) = S(dt/2)^T = J S(dt/2) J, so one product per
    step advances the stack [p, J q], and J, its own inverse, gives q back
    at the kept steps (||J q|| = ||q||)."""
    _cn_symbol(cfg)  # a singular system raises here
    p, q = init.E + init.H, init.E - init.H
    w = cfg.stencil.w
    if not np.array_equal(w, -w[::-1]):
        # each matrix lives only while its chain runs
        return (*_chain(cayley_matrix(cfg, +1), p[None], n, keep), *_chain(cayley_matrix(cfg, -1), q[None], n, keep))
    mirror = -np.arange(cfg.grid.N) % cfg.grid.N
    p_chain, (q_norms, q_kept) = _chain(cayley_matrix(cfg, +1), np.stack([p, q[mirror]]), n, keep)
    return p_chain, (q_norms, {k: u[mirror] for k, u in q_kept.items()})


_TWO_PI = 8 * np.arctan(np.longdouble(1))  # in extended precision, for reducing k arg m

# each block matrix of _power_sums holds at most this many doubles (128 KB);
# at N = 4096 and 2,000 steps this was twice as fast as 2**15 or 2**16
_BLOCK_DOUBLES = 2**14


def _spectral(cfg: SimConfig, init: FieldPair, n: int, keep: set[int]) -> tuple[Chain, Chain]:
    """Each chain in closed form on the N//2 + 1 rfft modes u of p or q:
    with m = cn_multiplier(+-mu), the state after k steps is m^k u, and
    its squared norm is (1/N) sum_theta weight_theta |m_theta|^(2k)
    |u_theta|^2 (Parseval), with rfft_modes' weights. No step is taken.

    m is the float64 multiplier that stepping would apply. Its log |m|^2
    and arg m, and k arg m reduced mod 2 pi, are taken in extended
    precision: in float64, k arg m and k log |m|^2 would carry k rounding
    errors of arg m and |m|^2, 1e-12 at 10^4 steps, where stepping's own
    roundoff random-walks to about 1e-14. States and norms are formed from
    log |u|, so an exactly zero mode stays zero however fast m grows."""
    mu = _cn_symbol(cfg)
    N = cfg.grid.N
    log_weight = np.log(rfft_modes(N)[1])

    def chain(sign: int, u: np.ndarray) -> Chain:
        m = cn_multiplier(sign * mu, cfg.dt)
        re, im = m.real.astype(np.longdouble), m.imag.astype(np.longdouble)
        log_a = np.log(re * re + im * im).astype(float)  # log |m|^2
        turn = np.arctan2(im, re)  # arg m
        with np.errstate(divide="ignore"):  # log 0 = -inf
            log_r = np.log(np.abs(u))
        arg_u = np.angle(u)
        kept = {k: np.fft.irfft(np.exp(log_r + 0.5 * k * log_a
                                       + 1j * (arg_u + np.remainder(k * turn, _TWO_PI).astype(float))), n=N)
                for k in keep}
        return _power_sums(log_a, log_weight + 2.0 * log_r, n) / N, kept

    # rfft(E) +- rfft(H), not rfft(E +- H): the two round the unstable modes differently
    Ef = np.fft.rfft(init.E)
    Hf = np.fft.rfft(init.H)
    return chain(+1, Ef + Hf), chain(-1, Ef - Hf)


ENGINES = {"dense": _dense, "spectral": _spectral}


def _power_sums(log_a: np.ndarray, log_v: np.ndarray, n: int) -> np.ndarray:
    """s_j = sum_i v_i a_i^j for j = 1..n, from log a and log v (-inf for
    v_i = 0). In blocks of B ~ sqrt(n) steps, s_{cB + b} is the product of
    the block starts v a^(cB) with the powers a^b (b = 1..B). A start is
    exp(log v + cB log a), so it overflows only where s does, and a zero v
    gives a zero start; B shrinks until no power exceeds e^700, so none is
    infinite. The modes are taken in chunks that keep each matrix within
    _BLOCK_DOUBLES."""
    B = max(1, math.isqrt(n))
    top = log_a.max()
    if B * top > 700:
        B = max(1, int(700 / top))
    starts = B * np.arange(-(-n // B))
    chunk = max(1, _BLOCK_DOUBLES // max(B, starts.size))
    sums = np.zeros((starts.size, B))
    for lo in range(0, log_a.size, chunk):
        la, lv = log_a[lo:lo + chunk], log_v[lo:lo + chunk]
        sums += np.exp(np.outer(starts, la) + lv) @ np.exp(np.outer(la, np.arange(1, B + 1)))
    return sums.ravel()[:n]


def _chain(S: np.ndarray, u: np.ndarray, n: int, keep: set[int]) -> list[Chain]:
    """Step each row of the k x N stack u n times by the matrix S, the whole
    stack in one product per step, so S is read once per step for all k
    rows. Returns one Chain per row: its squared norm after each step, up to
    and including the first step at which a row's is non-finite, and the
    row at the steps in keep."""
    S_t = S.T
    norms = np.empty((u.shape[0], n))
    kept = {}
    for k in range(1, n + 1):
        u = u @ S_t  # row j is S u_j
        total = 0.0
        for j, x in enumerate(u):
            norms[j, k - 1] = s = x @ x
            total += s
        if k in keep:
            kept[k] = u
        if not math.isfinite(total):
            norms = norms[:, :k]
            break
    return [(row_norms, {k: u[j] for k, u in kept.items()}) for j, row_norms in enumerate(norms)]


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
    # the multiples of snapshot_every up to n, and n
    snaps = [] if snapshot_every is None else sorted({*range(snapshot_every, n + 1, snapshot_every), n} - {0})

    # An unstable (non-skew) run overflows; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        (p_norms, p_kept), (q_norms, q_kept) = ENGINES[engine](cfg, init, n, {*snaps, n})
        m = min(p_norms.size, q_norms.size)
        energies[1:m + 1] = 0.25 * cfg.grid.dx * (p_norms[:m] + q_norms[:m])
    bad = np.flatnonzero(~np.isfinite(energies[:m + 1]))
    if bad.size:
        raise NumericalError(f"energy became non-finite at step {bad[0]} (unstable discretization)")

    def fields(p: np.ndarray, q: np.ndarray) -> FieldPair:
        return FieldPair(E=0.5 * (p + q), H=0.5 * (p - q))

    final = fields(p_kept[n], q_kept[n]) if n > 0 else init
    # pop: each kept state is freed once its fields are built
    snapshots = [fields(p_kept.pop(k), q_kept.pop(k)) for k in snaps]
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

