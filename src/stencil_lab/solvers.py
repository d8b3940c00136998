"""Four solvers for the stencil-learning quadratic program.

Every solver works on regression.reduce_problem: the free coefficients a
(w = P a) under the box |a| <= M, which is exactly the box |w| <= M. The
skew constraint holds by construction and np.clip is the exact
projection onto the feasible set.

* solve_pg / solve_nag: projected gradient and its Nesterov-accelerated
  variant. The step alpha/2 on F(a) = f(P a) is the step alpha = 1/L on f
  followed by the projection onto the skew stencils.
* solve_admm: operator splitting with an exact w-update (an R x R
  Cholesky, factored once) and componentwise box clipping for z.
* solve_reference: exact solve of the reduced box QP.

All solvers start from the zero stencil and record per-iteration traces
of the objective, skew residual, iterate change in w and wall-clock time.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .core import NumericalError
from .regression import (
    ReducedProblem,
    RegressionSystem,
    SkewConstraints,
    lift,
    lipschitz_estimate,
    reduce_problem,
    skew_coordinates,
)

PG = "PG"
NAG = "NAG"
ADMM = "ADMM"
REFERENCE = "REFERENCE"

_DEFAULT_MAX_ITERS = {PG: 500, NAG: 500, ADMM: 100}

# ||P a|| = sqrt(2) ||a||: iterate changes are reported and tested in w
_W_NORM = np.sqrt(2.0)


@dataclass(frozen=True)
class SolverOptions:
    """max_iters=None picks the per-method default (500 for PG/NAG, 100
    for ADMM). tol stops on the iterate change (PG/ADMM) or on the
    projected-gradient mapping (NAG, whose momentum makes raw iterate
    changes an unreliable stationarity measure). step overrides the
    default 1/L stepsize."""

    max_iters: int | None = None
    tol: float = 1e-12
    rho: float = 0.05
    step: float | None = None

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.rho <= 0:
            raise ValueError("ADMM penalty rho must be positive")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")

    def resolve_max_iters(self, method: str) -> int:
        return self.max_iters if self.max_iters is not None else _DEFAULT_MAX_ITERS[method]


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Traces are aligned: entry k holds the state after iteration k+1.
    stop_reason is 'tol' (the stopping test passed), 'max_iters' (the cap
    was reached first) or 'exact' (the reference solve)."""

    w_final: np.ndarray
    objective_trace: np.ndarray
    eq_residual_trace: np.ndarray
    step_diff_trace: np.ndarray
    time_trace: np.ndarray
    iterations: int
    method: str
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "w_final": [float(v) for v in self.w_final],
            "objective_trace": [float(v) for v in self.objective_trace],
            "eq_residual_trace": [float(v) for v in self.eq_residual_trace],
            "step_diff_trace": [float(v) for v in self.step_diff_trace],
            "time_trace": [float(v) for v in self.time_trace],
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "objective", "eq_residual", "step_diff", "elapsed_s"])
            for k in range(self.iterations):
                writer.writerow([
                    k + 1,
                    repr(float(self.objective_trace[k])),
                    repr(float(self.eq_residual_trace[k])),
                    repr(float(self.step_diff_trace[k])),
                    repr(float(self.time_trace[k])),
                ])


class _Trace:
    def __init__(self, method: str, prob: ReducedProblem, cs: SkewConstraints):
        self.method = method
        self.prob = prob
        self.cs = cs
        self.rows: list[tuple[float, float, float, float]] = []
        self._t0 = time.perf_counter()

    def record(self, a: np.ndarray, diff: float) -> None:
        f = self.prob.objective(a)
        if not np.isfinite(f):
            raise NumericalError(f"{self.method}: objective became non-finite at iteration {len(self.rows) + 1}")
        self.rows.append((f, self.cs.residual(lift(a)), diff, time.perf_counter() - self._t0))

    def report(self, a_final: np.ndarray, stop_reason: str) -> SolverReport:
        objective, residual, step_diff, elapsed = np.array(self.rows).T
        return SolverReport(
            w_final=lift(a_final),
            objective_trace=objective,
            eq_residual_trace=residual,
            step_diff_trace=step_diff,
            time_trace=elapsed,
            iterations=len(self.rows),
            method=self.method,
            stop_reason=stop_reason,
        )


def _setup(method: str, sys: RegressionSystem, cs: SkewConstraints) -> tuple[ReducedProblem, _Trace]:
    if cs.R != sys.R:
        raise ValueError(f"constraints are for radius {cs.R} but the system has radius {sys.R}")
    prob = reduce_problem(sys)
    return prob, _Trace(method, prob, cs)


def _stepsize(sys: RegressionSystem, opts: SolverOptions) -> float:
    """Half the step alpha on f: alpha/2 on F(a) = f(P a) takes the same steps."""
    if opts.step is not None:
        return 0.5 * opts.step
    lip = lipschitz_estimate(sys)
    return 0.5 / lip if lip > 0.0 else 0.5


def solve_pg(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Projected gradient: a <- clip(a - alpha/2 grad F(a)). Monotone
    descent for alpha <= 1/L; every iterate is feasible by construction."""
    prob, trace = _setup(PG, sys, cs)
    step = _stepsize(sys, opts)
    a = np.zeros(prob.R)
    for _ in range(opts.resolve_max_iters(PG)):
        a_new = np.clip(a - step * prob.gradient(a), -prob.M, prob.M)
        diff = _W_NORM * float(np.linalg.norm(a_new - a))
        trace.record(a_new, diff)
        a = a_new
        if diff <= opts.tol:
            return trace.report(a, "tol")
    return trace.report(a, "max_iters")


def solve_nag(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Nesterov-accelerated projected gradient with the standard momentum
    schedule t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, beta_k = (t_k - 1) / t_{k+1},
    t_0 = 1 (the first extrapolation is null). The objective may
    oscillate; stopping uses the projected-gradient mapping."""
    prob, trace = _setup(NAG, sys, cs)
    step = _stepsize(sys, opts)
    a = np.zeros(prob.R)
    a_prev = a.copy()
    t = 1.0
    for _ in range(opts.resolve_max_iters(NAG)):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = a + beta * (a - a_prev)
        a_new = np.clip(y - step * prob.gradient(y), -prob.M, prob.M)
        trace.record(a_new, _W_NORM * float(np.linalg.norm(a_new - a)))
        mapped = np.clip(a_new - step * prob.gradient(a_new), -prob.M, prob.M)
        mapping = _W_NORM * float(np.linalg.norm(a_new - mapped))
        a_prev, a, t = a, a_new, t_next
        if mapping <= opts.tol:
            return trace.report(a, "tol")
    return trace.report(a, "max_iters")


def solve_admm(
    sys: RegressionSystem,
    cs: SkewConstraints,
    opts: SolverOptions = SolverOptions(),
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SolverReport:
    """ADMM on the split w = z with w skew and z box-clipped.

    In the reduced coordinates the penalty (rho/2)||P(a - z + u)||^2 is
    rho ||a - z + u||^2, so the w-update solves
        (H + 2 rho I) a = g + 2 rho (z - u)
    with a Cholesky factor computed once. Returns the final z, which is
    feasible for the box by construction. `init` optionally provides
    skew stencils (w0, z0, u0); the default is all zeros.
    """
    prob, trace = _setup(ADMM, sys, cs)
    rho2 = 2.0 * opts.rho
    try:
        chol = np.linalg.cholesky(prob.H + rho2 * np.eye(prob.R))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("ADMM w-update matrix is not positive definite") from exc
    zeros = (np.zeros(sys.n_coeffs),) * 3
    a, z, u = (skew_coordinates(v) for v in (zeros if init is None else init))
    for _ in range(opts.resolve_max_iters(ADMM)):
        a_new = scipy.linalg.cho_solve((chol, True), prob.g + rho2 * (z - u))
        z = np.clip(a_new + u, -prob.M, prob.M)
        u = u + a_new - z
        diff = _W_NORM * float(np.linalg.norm(a_new - a))
        trace.record(a_new, diff)
        a = a_new
        if diff <= opts.tol:
            return trace.report(z, "tol")
    return trace.report(z, "max_iters")


def _solve_refined(H_ext: np.ndarray, rhs_ext: np.ndarray) -> np.ndarray:
    """Solve H x = rhs in float64 and take one refinement step with the
    residual evaluated in extended precision."""
    H = H_ext.astype(float)
    x = np.linalg.solve(H, rhs_ext.astype(float))
    return x + np.linalg.solve(H, (rhs_ext - H_ext @ x).astype(float))


def _box_qp(prob: ReducedProblem) -> np.ndarray:
    """Exact minimizer of the strictly convex F over |a| <= M.

    Each face of the box fixes some coordinates at +-M and leaves the
    rest free; the minimizer is the stationary point of its own face. If
    the unconstrained minimizer lies in the box it is the answer.
    Otherwise every face is solved and the feasible stationary point with
    the least objective wins: 3^R small solves, with no active-set
    bookkeeping that could cycle.
    """
    M = prob.M
    a = _solve_refined(prob.H_ext, prob.g_ext)
    if np.max(np.abs(a)) <= M:
        return a
    best, best_f = None, np.inf
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=prob.R):
        fixed = np.array(signs) != 0.0
        if not fixed.any():
            continue
        a = M * np.array(signs)
        free = ~fixed
        if free.any():
            rhs = prob.g_ext[free] - prob.H_ext[np.ix_(free, fixed)] @ a[fixed]
            a[free] = _solve_refined(prob.H_ext[np.ix_(free, free)], rhs)
            if np.max(np.abs(a[free])) > M:
                continue
        f = prob.objective(a)
        if f < best_f:
            best, best_f = a, f
    return best


def solve_reference(sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Exact solve of the reduced box QP; the optimality baseline for
    the first-order solvers. Records a single trace entry."""
    prob, trace = _setup(REFERENCE, sys, cs)
    try:
        a = _box_qp(prob)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("reference solver: singular reduced Hessian") from exc
    trace.record(a, _W_NORM * float(np.linalg.norm(a)))
    return trace.report(a, "exact")


_SOLVERS = {PG: solve_pg, NAG: solve_nag, ADMM: solve_admm, REFERENCE: solve_reference}


def solve(method: str, sys: RegressionSystem, cs: SkewConstraints, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Dispatch by method name (case-insensitive; 'ref' is accepted)."""
    key = method.upper()
    if key == "REF":
        key = REFERENCE
    if key not in _SOLVERS:
        raise ValueError(f"unknown solver '{method}'; choose from pg, nag, admm, ref")
    return _SOLVERS[key](sys, cs, opts)
