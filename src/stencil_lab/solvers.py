"""Four solvers for the stencil-learning quadratic program.

Every solver works on the QP the regression system holds (its H and
g): the free coefficients a (w = P a) under the box |a| <= M, which is
exactly the box |w| <= M. The skew constraint holds by construction and
clipping each coordinate to [-M, M] is the exact projection onto the
feasible set.

* solve_pg / solve_nag: projected gradient and its Nesterov-accelerated
  variant. The step alpha/2 on F(a) = f(P a) is the step alpha = 1/L on f
  followed by the projection onto the skew stencils.
* solve_admm: operator splitting with an exact w-update (an R x R
  linear solve) and componentwise box clipping for z.
* solve_reference: exact solve of the reduced box QP.

All solvers start from the zero stencil and record per-iteration traces
of the objective, iterate change in w and wall-clock time.

At these sizes an iteration costs the numpy calls it makes, not their
arithmetic. So PG, NAG and ADMM each make only the calls that form their
next iterate, and one driver (_iterate) measures the iterates a block at
a time. It stacks a block's iterates, forms their H a, objectives,
iterate changes and NAG's projected-gradient mappings in a few
whole-block calls, and keeps the rows up to the first that passes the
stopping test or has a non-finite objective: exactly where a loop that
measured each iterate in turn would have stopped or raised. Stacked
np.matmul and np.vecdot run the same BLAS kernel on each row as H @ a
and a @ b, so every row has the bits of that loop. Blocks double from
_FIRST_BLOCK to _LAST_BLOCK iterates, so a solve that stops after k
iterations forms at most 2k + 2 iterates below the last block length
and k + _LAST_BLOCK - 1 above it. Clipping by np.minimum/np.maximum,
H.dot(a) and the norm as sqrt(d @ d) give the bits of np.clip, H @ a and
np.linalg.norm at a fraction of their call overhead.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, lift, solve_refined
from .regression import RegressionSystem, SkewConstraints

PG = "PG"
NAG = "NAG"
ADMM = "ADMM"
REFERENCE = "REFERENCE"

_DEFAULT_MAX_ITERS = {PG: 500, NAG: 500, ADMM: 100}

# ||P a|| = sqrt(2) ||a||: iterate changes are reported and tested in w
_W_NORM = math.sqrt(2.0)

# (SolverReport field, trace-CSV column) of each trace, in the order _iterate records them
TRACE_COLUMNS = (("objective_trace", "objective"), ("step_diff_trace", "step_diff"), ("time_trace", "elapsed_s"))

# _iterate's block lengths double from the first to the last, which then repeats
_FIRST_BLOCK, _LAST_BLOCK = 4, 64


@dataclass(frozen=True)
class SolverOptions:
    """max_iters=None picks the per-method default (500 for PG/NAG, 100
    for ADMM). tol stops on the iterate change (PG/ADMM) or on the
    projected-gradient mapping (NAG, whose momentum makes raw iterate
    changes an unreliable stationarity measure). rho is ADMM's penalty.
    PG and NAG take the step 1/L, from the Lipschitz constant L of the
    objective's gradient."""

    max_iters: int | None = None
    tol: float = 1e-12
    rho: float = 0.05

    def __post_init__(self):
        if self.max_iters is not None and (
            isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1
        ):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"ADMM penalty rho must be positive and finite, got {self.rho}")

    def resolve_max_iters(self, method: str) -> int:
        return self.max_iters if self.max_iters is not None else _DEFAULT_MAX_ITERS[method]


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Traces are aligned: entry k holds the state after iteration k+1.
    time_trace[k] is the wall-clock time from the start of the solve to
    when that iterate was formed; its objective and stopping test are
    evaluated later, with the rest of its block, and are not inside the
    interval. stop_reason is 'tol' (the stopping test passed), 'max_iters' (the cap
    was reached first) or 'exact' (the reference solve)."""

    w_final: np.ndarray
    objective_trace: np.ndarray
    step_diff_trace: np.ndarray
    time_trace: np.ndarray
    iterations: int
    method: str
    stop_reason: str


def _setup(sys: RegressionSystem, cs: SkewConstraints) -> float:
    """The solve's start time, taken after the system has formed its H and
    g, so that no trace times the reduction."""
    if cs.R != sys.R:
        raise ValueError(f"constraints are for radius {cs.R} but the system has radius {sys.R}")
    sys.H, sys.g  # a system's first solve forms them here
    return time.perf_counter()


def _stepsize(sys: RegressionSystem) -> float:
    """Half the step alpha on f: alpha/2 on F(a) = f(P a) takes the same
    steps. alpha is 1/L with L = ||A^T A||_2 + lam, the exact Lipschitz
    constant of grad f."""
    lip = float(np.linalg.eigvalsh(sys.gram)[-1] + sys.lam)
    return 0.5 / lip if lip > 0.0 else 0.5


def _clip(a: np.ndarray, lo, hi) -> np.ndarray:
    return np.minimum(np.maximum(a, lo), hi)


def _box(sys: RegressionSystem) -> tuple[np.ndarray, np.ndarray]:
    """-M and M as arrays, which np.maximum and np.minimum take faster than scalars."""
    return np.full(sys.R, -sys.M), np.full(sys.R, sys.M)


def _matvecs(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """H @ a for each row a of A, with the bits of H @ a (A @ H.T has others)."""
    return np.matmul(H, A[:, :, None])[:, :, 0]


def _w_norms(D: np.ndarray) -> np.ndarray:
    """||P d|| of each row d of D, with the bits of sqrt(2) * sqrt(d @ d)."""
    return _W_NORM * np.sqrt(np.vecdot(D, D))


def _measures(sys: RegressionSystem, W: np.ndarray, step: float | None = None):
    """The objective, the iterate change in w and, given NAG's step, the
    projected-gradient mapping of each row of W but the first, which is
    the iterate before them; with the bits of each row's own calls."""
    A = W[1:]
    HA = _matvecs(sys.H, A)
    objective = 0.5 * np.vecdot(A, HA) - np.vecdot(sys.g, A) + 0.5 * sys.btb
    diff = _w_norms(A - W[:-1])
    mapping = None if step is None else _w_norms(A - _clip(A - step * (HA - sys.g), -sys.M, sys.M))
    return objective, diff, mapping


def _report(method: str, a_final: np.ndarray, blocks: list, stop_reason: str) -> SolverReport:
    """blocks holds an (objectives, iterate changes, times) triple per block."""
    traces = [np.concatenate(trace) for trace in zip(*blocks)]
    return SolverReport(
        w_final=lift(a_final),
        **{name: trace for (name, _), trace in zip(TRACE_COLUMNS, traces)},
        iterations=len(traces[0]),
        method=method,
        stop_reason=stop_reason,
    )


def _iterate(method: str, sys: RegressionSystem, t0: float, iterates, max_iters: int, tol: float,
             mapping_step: float | None = None) -> SolverReport:
    """Run a solver to its first stop or to max_iters, measuring its
    iterates a block at a time (see the module docstring).

    iterates yields (a, returned) per iteration: the iterate whose
    objective and change are traced, and what the solve returns if it
    stops there. The stopping test is iterate change <= tol, or NAG's
    mapping at mapping_step <= tol when that is given. Iteration k's
    objective is checked before its stopping test, as a loop would.
    Overflow raises no warning: a non-finite objective raises
    NumericalError, and iterates formed past the stop or the raise are
    discarded.
    """
    blocks, returned = [], None
    a_before = np.zeros(sys.R)
    done, block = 0, _FIRST_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while done < max_iters:
            pairs, times = [], []
            for pair in itertools.islice(iterates, min(block, max_iters - done)):
                times.append(time.perf_counter() - t0)
                pairs.append(pair)
            W = np.array([a_before, *(a for a, _ in pairs)])
            objective, diff, mapping = _measures(sys, W, mapping_step)
            stops = np.nonzero((diff if mapping is None else mapping) <= tol)[0]
            n = int(stops[0]) + 1 if stops.size else len(pairs)
            finite = np.isfinite(objective[:n])
            if not finite.all():
                raise NumericalError(f"{method}: objective became non-finite at iteration {done + int(finite.argmin()) + 1}")
            blocks.append((objective[:n], diff[:n], times[:n]))
            done, returned = done + n, pairs[n - 1][1]
            if stops.size:
                return _report(method, returned, blocks, "tol")
            a_before, block = W[-1], min(2 * block, _LAST_BLOCK)
    return _report(method, returned, blocks, "max_iters")


def solve_pg(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Projected gradient: a <- clip(a - alpha/2 grad F(a)). Monotone
    descent for alpha <= 1/L; every iterate is feasible by construction."""
    t0 = _setup(sys, cs)
    step = _stepsize(sys)

    def iterates():
        H, g, (lo, hi) = sys.H, sys.g, _box(sys)
        a = np.zeros(sys.R)
        Ha = H.dot(a)
        while True:
            a = _clip(a - step * (Ha - g), lo, hi)
            yield a, a
            Ha = H.dot(a)

    return _iterate(PG, sys, t0, iterates(), opts.resolve_max_iters(PG), opts.tol)


def solve_nag(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Nesterov-accelerated projected gradient with the standard momentum
    schedule t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, beta_k = (t_k - 1) / t_{k+1},
    t_0 = 1 (the first extrapolation is null). The objective may
    oscillate; stopping uses the projected-gradient mapping."""
    t0 = _setup(sys, cs)
    step = _stepsize(sys)

    def iterates():
        H, g, (lo, hi) = sys.H, sys.g, _box(sys)
        a = a_prev = np.zeros(sys.R)
        t = 1.0
        while True:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = a + beta * (a - a_prev)
            a_prev, a, t = a, _clip(y - step * (H.dot(y) - g), lo, hi), t_next
            yield a, a

    return _iterate(NAG, sys, t0, iterates(), opts.resolve_max_iters(NAG), opts.tol, mapping_step=step)


def solve_admm(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """ADMM on the split w = z with w skew and z box-clipped.

    In the reduced coordinates the penalty (rho/2)||P(a - z + u)||^2 is
    rho ||a - z + u||^2, so the w-update solves
        (H + 2 rho I) a = g + 2 rho (z - u),
    an R x R system. Returns the final z, which is feasible for the box
    by construction.
    """
    t0 = _setup(sys, cs)

    def iterates():
        rho2 = 2.0 * opts.rho
        K = sys.H + rho2 * np.eye(sys.R)
        g, (lo, hi) = sys.g, _box(sys)
        z, u = np.zeros(sys.R), np.zeros(sys.R)
        while True:
            a = np.linalg.solve(K, g + rho2 * (z - u))
            z = _clip(a + u, lo, hi)
            u = u + a - z
            yield a, z

    return _iterate(ADMM, sys, t0, iterates(), opts.resolve_max_iters(ADMM), opts.tol)


def _box_qp(sys: RegressionSystem) -> np.ndarray:
    """Exact minimizer of the strictly convex F over |a| <= M.

    Each face of the box fixes some coordinates at +-M and leaves the
    rest free; the minimizer is the stationary point of its own face. If
    the unconstrained minimizer lies in the box it is the answer.
    Otherwise every face is solved and the feasible stationary point with
    the least objective wins: 3^R small solves, with no active-set
    bookkeeping that could cycle.
    """
    M = sys.M
    a = solve_refined(sys.H_ext, sys.g_ext)
    if np.max(np.abs(a)) <= M:
        return a
    best, best_f = None, np.inf
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=sys.R):
        fixed = np.array(signs) != 0.0
        if not fixed.any():
            continue
        a = M * np.array(signs)
        free = ~fixed
        if free.any():
            rhs = sys.g_ext[free] - sys.H_ext[np.ix_(free, fixed)] @ a[fixed]
            a[free] = solve_refined(sys.H_ext[np.ix_(free, free)], rhs)
            if np.max(np.abs(a[free])) > M:
                continue
        f = sys.objective(a)
        if f < best_f:
            best, best_f = a, f
    if best is None:
        raise NumericalError(f"{REFERENCE}: no face of the box has a finite objective")
    return best


def solve_reference(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Exact solve of the reduced box QP; the optimality baseline for
    the first-order solvers. Records a single trace entry. Raises
    NumericalError when H is singular to working precision, where the
    minimizer is not unique: lambda_min(H) <= R eps lambda_max(H)."""
    t0 = _setup(sys, cs)
    eigs = np.linalg.eigvalsh(sys.H)
    if not eigs[0] > sys.R * np.finfo(float).eps * eigs[-1]:
        raise NumericalError("reference solver: singular reduced Hessian")
    a = _box_qp(sys)
    objective = sys.objective(a)
    if not math.isfinite(objective):
        raise NumericalError(f"{REFERENCE}: objective became non-finite at iteration 1")
    return _report(REFERENCE, a, [([objective], [_W_NORM * math.sqrt(a @ a)], [time.perf_counter() - t0])], "exact")


# each method's solver and the SolverOptions fields it reads
_SOLVERS = {PG: (solve_pg, ("max_iters", "tol")), NAG: (solve_nag, ("max_iters", "tol")),
            ADMM: (solve_admm, ("max_iters", "tol", "rho")), REFERENCE: (solve_reference, ())}


def _solver(method: str) -> tuple:
    """The _SOLVERS entry of a method name (case-insensitive; 'ref' is accepted)."""
    key = REFERENCE if method.upper() == "REF" else method.upper()
    if key not in _SOLVERS:
        raise ValueError(f"unknown solver '{method}'; choose from pg, nag, admm, ref")
    return _SOLVERS[key]


def options_read(method: str) -> tuple[str, ...]:
    """The SolverOptions fields the method reads."""
    return _solver(method)[1]


def solve(method: str, sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Dispatch by method name (case-insensitive; 'ref' is accepted)."""
    return _solver(method)[0](sys, cs, opts)
