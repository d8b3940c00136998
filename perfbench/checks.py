"""Correctness checks for every output the benchmark times.

Each checked call is tallied under a kind named after the layer that
produced the output (``solvers.pg``, ``simulate.dense``, ``cli.learn``...).
A call fails when any of its conditions fails. Tolerances are the ones the
repository's tests pin; none is widened here.

The solver oracle does not use the solvers under test: it solves the
reduced skew system ``w = P a`` (``a_l = w_{+l}``, ``w_{-l} = -a_l``,
``w_0 = 0``) in exact rational arithmetic from the system's ``gram``,
``atb`` and ``lam``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np

# sha256 of states.tobytes() + derivatives.tobytes() for the package default
# training set (N=64, n_sims=200, m_max=5, seed 20260811). Data must stay
# byte-identical for a seed.
DEFAULT_DATA_SHA256 = "dd40deafe927078f6b17078c5266ebdb0ad8bc856fbe1791b70adce10c970585"

SOLVER_REL_TOL = 1e-6                    # tests/test_solvers.py, ADMM vs reference
SKEW_TOL = {"pg": 1e-8, "nag": 1e-8, "admm": 1e-10, "ref": 1e-10}  # test_acceptance criterion 1
ENERGY_DRIFT_TOL = 1e-10                 # relative, skew stencils
ENGINE_AGREE_TOL = 1e-12                 # tests/test_simulate.py, dense vs spectral
NOISY_LS_MIN_ENERGY_RATIO = 10.0         # test_acceptance criterion 8
NOISY_QP_MAX_DRIFT = 1e-8                # test_acceptance criterion 8


class Tally:
    """Attempted and failed checked calls, per kind.

    Solver kinds measure accuracy against the oracle; the known solver
    defects show there. Every other kind is an invariant of the program,
    and a failure of one makes the run incorrect.
    """

    def __init__(self):
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.failures: list[dict] = []

    def record(self, kind: str, problems: list[str]) -> bool:
        self.attempted[kind] += 1
        if problems:
            self.failed[kind] += 1
            if len(self.failures) < 200:
                self.failures.append({"kind": kind, "problems": problems})
        return not problems

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def invariants_hold(self) -> bool:
        return not any(n for kind, n in self.failed.items() if not kind.startswith("solvers."))

    def ok_ratio(self, kind: str) -> float:
        n = self.attempted[kind]
        return (n - self.failed[kind]) / n if n else 0.0


def training_sha256(ts) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ts.states).tobytes())
    h.update(np.ascontiguousarray(ts.derivatives).tobytes())
    return h.hexdigest()


def check_sha256(tally: Tally, kind: str, actual: str, expected: str) -> bool:
    problems = [] if actual == expected else [f"sha256 {actual} != {expected}"]
    return tally.record(kind, problems)


def _solve_exact(H: list[list[Fraction]], g: list[Fraction]) -> list[Fraction]:
    n = len(g)
    M = [row[:] + [g[i]] for i, row in enumerate(H)]
    for k in range(n):
        p = next(i for i in range(k, n) if M[i][k] != 0)
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            if f:
                for j in range(k, n + 1):
                    M[i][j] -= f * M[k][j]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))) / M[k][k]
    return x


def oracle_solution(system) -> np.ndarray:
    """Exact minimiser of (1/2) w'(G + lam I)w - atb'w over skew w, rounded
    once to float64. Raises ValueError when the box |w| <= M would be active,
    since the unconstrained minimiser is then not the answer."""
    R = system.R
    G = [[Fraction(float(v)) for v in row] for row in system.gram]
    atb = [Fraction(float(v)) for v in system.atb]
    lam = Fraction(float(system.lam))
    H = [[G[R + l][R + k] - G[R + l][R - k] - G[R - l][R + k] + G[R - l][R - k] + (2 * lam if l == k else 0)
          for k in range(1, R + 1)] for l in range(1, R + 1)]
    g = [atb[R + l] - atb[R - l] for l in range(1, R + 1)]
    a = np.array([float(v) for v in _solve_exact(H, g)])
    if np.max(np.abs(a)) >= system.M:
        raise ValueError(f"box active (max|a|={np.max(np.abs(a)):.6g} >= M={system.M}); oracle not applicable")
    return np.concatenate([-a[::-1], [0.0], a])


def skew_residual(w: np.ndarray) -> float:
    """||C w|| for the skew pairing: w_0 = 0 and w_{-l} + w_{+l} = 0."""
    R = (w.size - 1) // 2
    return float(np.sqrt(w[R] ** 2 + np.sum((w[R + 1:] + w[:R][::-1]) ** 2)))


def check_solve(tally: Tally, method: str, w_star: np.ndarray, w: np.ndarray | None, error: str | None) -> bool:
    """method is one of pg, nag, admm, ref; w is None when the solve raised."""
    if w is None:
        return tally.record(f"solvers.{method}", [f"raised: {error}"])
    problems = []
    rel = float(np.max(np.abs(w - w_star)) / np.max(np.abs(w_star)))
    if not rel <= SOLVER_REL_TOL:
        problems.append(f"relative error {rel:.3g} > {SOLVER_REL_TOL:g}")
    res = skew_residual(w)
    if not res <= SKEW_TOL[method]:
        problems.append(f"skew residual {res:.3g} > {SKEW_TOL[method]:g}")
    return tally.record(f"solvers.{method}", problems)


def energy_problems(energy_series: np.ndarray) -> list[str]:
    e0 = energy_series[0]
    drift = float(np.max(np.abs(energy_series - e0)) / e0)
    return [] if drift <= ENERGY_DRIFT_TOL else [f"relative energy drift {drift:.3g} > {ENERGY_DRIFT_TOL:g}"]


def check_simulation(tally: Tally, engine: str, result) -> bool:
    return tally.record(f"simulate.{engine}", energy_problems(result.energy_series))


def check_engines_agree(tally: Tally, dense, spectral) -> bool:
    problems = []
    scale = max(np.max(np.abs(dense.final.E)), np.max(np.abs(dense.final.H)))
    for name in ("E", "H"):
        diff = float(np.max(np.abs(getattr(dense.final, name) - getattr(spectral.final, name))))
        if not diff <= ENGINE_AGREE_TOL * scale:
            problems.append(f"dense vs spectral {name} differ by {diff:.3g} (scale {scale:.3g})")
    ediff = float(np.max(np.abs(dense.energy_series - spectral.energy_series)) / dense.energy_series[0])
    if not ediff <= ENGINE_AGREE_TOL:
        problems.append(f"dense vs spectral energy series differ by {ediff:.3g} relative")
    return tally.record("simulate.agree", problems)
