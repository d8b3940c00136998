import csv
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stencil_lab.core import NumericalError, lift
from stencil_lab.experiments import RunDir, default_training_config
from stencil_lab.regression import (
    RegressionSystem,
    assemble_regression,
    build_skew_constraints,
)
from stencil_lab.solvers import (
    ADMM,
    NAG,
    PG,
    REFERENCE,
    SolverOptions,
    SolverReport,
    solve,
    solve_admm,
    solve_nag,
    solve_pg,
    solve_reference,
)
from stencil_lab.solvers import _FIRST_BLOCK, _LAST_BLOCK, _matvecs
from stencil_lab.training import TrainingSet, generate_training_set

from oracles import dense_system, skew_coordinates

NO_STOP = SolverOptions(max_iters=120, tol=1e-300)  # fixed-budget runs
# a negative definite gram, no least-squares problem: PG and NAG then take the step 1/2 on the reduced
# objective and their unboxed iterates grow about 1000-fold per iteration until the objective overflows
DIVERGENT = RegressionSystem(gram=-1e3 * np.eye(3), atb=np.array([-1.0, 0.0, 1.0]), btb=1.0, rows=1, lam=0.0, M=np.inf)
PROPERTY = settings(max_examples=40, deadline=None)


def skew_matrix(R):
    """C with C w = 0 exactly for the skew stencils: rows w_0 and w_{-l} + w_{+l}."""
    n = 2 * R + 1
    C = np.zeros((R + 1, n))
    C[0, R] = 1.0
    for l in range(1, R + 1):
        C[l, R - l] = C[l, R + l] = 1.0
    return C


def direct_equality_kkt(sys):
    """Closed-form solution of the equality-constrained problem through
    the bordered KKT system in w."""
    n = sys.n_coeffs
    C = skew_matrix(sys.R)
    m = C.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = sys.gram + sys.lam * np.eye(n)
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.concatenate([sys.atb, np.zeros(m)])
    return np.linalg.solve(K, rhs)[:n]


def exact_unboxed_solution(sys):
    """Minimizer over the skew stencils in rational arithmetic from the
    float64 gram, atb and lam, rounded once; ignores the box."""
    R = sys.R
    G = [[Fraction(float(v)) for v in row] for row in sys.gram]
    atb = [Fraction(float(v)) for v in sys.atb]
    lam2 = 2 * Fraction(float(sys.lam))
    rows = [[G[R + l][R + k] - G[R + l][R - k] - G[R - l][R + k] + G[R - l][R - k] + (lam2 if l == k else 0)
             for k in range(1, R + 1)] + [atb[R + l] - atb[R - l]] for l in range(1, R + 1)]
    for k in range(R):  # H is positive definite: no pivoting needed
        for i in range(k + 1, R):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    a = [Fraction(0)] * R
    for k in reversed(range(R)):
        a[k] = (rows[k][R] - sum(rows[k][j] * a[j] for j in range(k + 1, R))) / rows[k][k]
    return lift(np.array([float(v) for v in a]))


# The full-space algorithms the reduced solvers replace, as references.

def _full_gradient(sys, w):
    return sys.gram @ w - sys.atb + sys.lam * w


def _project(z, M):
    return np.clip(0.5 * (z - z[::-1]), -M, M)


def full_space_pg(sys, alpha, iters):
    w = np.zeros(sys.n_coeffs)
    for _ in range(iters):
        w = _project(w - alpha * _full_gradient(sys, w), sys.M)
    return w


def full_space_nag(sys, alpha, iters):
    w = w_prev = np.zeros(sys.n_coeffs)
    t = 1.0
    for _ in range(iters):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w + (t - 1.0) / t_next * (w - w_prev)
        w_prev, w, t = w, _project(y - alpha * _full_gradient(sys, y), sys.M), t_next
    return w


def full_space_admm(sys, rho, iters):
    n = sys.n_coeffs
    C = skew_matrix(sys.R)
    m = C.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = sys.gram + (sys.lam + rho) * np.eye(n)
    K[:n, n:] = C.T
    K[n:, :n] = C
    w = z = u = np.zeros(n)
    for _ in range(iters):
        w = np.linalg.solve(K, np.concatenate([sys.atb + rho * (z - u), np.zeros(m)]))[:n]
        z = np.clip(w + u, -sys.M, sys.M)
        u = u + w - z
    return z


def random_system(seed, R, box_scale=None):
    """Well-conditioned random least-squares problem. With box_scale the
    box is that multiple of the largest unconstrained coefficient."""
    rng = np.random.default_rng(seed)
    n = 2 * R + 1
    A = rng.normal(size=(n + 10, n))
    b = rng.normal(size=n + 10) * 5.0
    lam = float(rng.uniform(0.0, 0.5))
    if box_scale is None:
        return dense_system(A, b, lam=lam, M=1e6)
    free = dense_system(A, b, lam=lam)
    a_free = np.linalg.solve(free.H, free.g)
    return dense_system(A, b, lam=lam, M=box_scale * float(np.max(np.abs(a_free))))


# Reference loops in which the objective and the gradient each form H a,
# with np.clip and np.linalg.norm. The solvers form each iterate's H a
# once; every report field but time_trace must keep these bits, and a
# non-finite objective must stop both at the same iteration. ADMM starts
# from `start`, a triple (a, z, u) of skew coordinates, when one is given.

def looped_solve(method, sys, opts, start=None):
    H, g, M = sys.H, sys.g, sys.M
    rows = []

    def record(a, diff):
        f = 0.5 * float(a @ (H @ a)) - float(g @ a) + 0.5 * sys.btb
        if not np.isfinite(f):
            raise NumericalError(f"{method}: objective became non-finite at iteration {len(rows) + 1}")
        rows.append((f, diff))

    def report(a, reason):
        objective, step_diff = np.array(rows).T
        return lift(a), objective, step_diff, len(rows), reason

    def norm_w(d):
        return np.sqrt(2.0) * float(np.linalg.norm(d))

    lip = np.linalg.eigvalsh(sys.gram)[-1] + sys.lam
    step = 0.5 / lip if lip > 0.0 else 0.5
    a = np.zeros(sys.R)
    if method == PG:
        for _ in range(opts.resolve_max_iters(PG)):
            a_new = np.clip(a - step * (H @ a - g), -M, M)
            diff = norm_w(a_new - a)
            record(a_new, diff)
            a = a_new
            if diff <= opts.tol:
                return report(a, "tol")
        return report(a, "max_iters")
    if method == NAG:
        a_prev, t = a.copy(), 1.0
        for _ in range(opts.resolve_max_iters(NAG)):
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = a + (t - 1.0) / t_next * (a - a_prev)
            a_new = np.clip(y - step * (H @ y - g), -M, M)
            record(a_new, norm_w(a_new - a))
            mapping = norm_w(a_new - np.clip(a_new - step * (H @ a_new - g), -M, M))
            a_prev, a, t = a, a_new, t_next
            if mapping <= opts.tol:
                return report(a, "tol")
        return report(a, "max_iters")
    rho2 = 2.0 * opts.rho
    K = H + rho2 * np.eye(sys.R)
    a, z, u = start if start is not None else (a, np.zeros(sys.R), np.zeros(sys.R))
    for _ in range(opts.resolve_max_iters(ADMM)):
        a_new = np.linalg.solve(K, g + rho2 * (z - u))
        z = np.clip(a_new + u, -M, M)
        u = u + a_new - z
        diff = norm_w(a_new - a)
        record(a_new, diff)
        a = a_new
        if diff <= opts.tol:
            return report(z, "tol")
    return report(z, "max_iters")


def assert_matches_loop(method, sys, opts):
    """The solver and looped_solve give the same bits, or both raise
    NumericalError with the same message; returns the iteration the
    message names, or None when both returned."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = looped_solve(method, sys, opts)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as raised:
                solve(method, sys, build_skew_constraints(sys.R), opts)
            assert str(raised.value) == str(exc)
            assert str(exc).startswith(f"{method}: objective became non-finite at iteration ")
            return int(str(exc).rsplit(" ", 1)[1])
        rep = solve(method, sys, build_skew_constraints(sys.R), opts)
    got = (rep.w_final, rep.objective_trace, rep.step_diff_trace, rep.iterations, rep.stop_reason)
    for x, y in zip(got, expected):
        assert np.array_equal(x, y)
    return None


def block_edges(limit):
    """The iteration counts up to limit at which the solvers' blocks end."""
    edges, end, block = [], 0, _FIRST_BLOCK
    while end + block <= limit:
        end += block
        edges.append(end)
        block = min(2 * block, _LAST_BLOCK)
    return edges


def at_block_edges(test):
    """Examples that run each method to a cap of max_iters = 1 and of one
    either side of each block edge: PG and NAG on the default data at R = 2,
    ADMM at R = 4, where none of them stops before 200 iterations."""
    for edge in block_edges(200):
        for max_iters in (1, edge, edge + 1) if edge == _FIRST_BLOCK else (edge, edge + 1):
            for method, R in ((PG, 2), (NAG, 2), (ADMM, 4)):
                test = example(method=method, seed=None, R=R, scale=None, max_iters=max_iters, tol=1e-14,
                               rho=0.05)(test)
    return test


def assert_kkt(sys, w, tol=1e-9):
    a = skew_coordinates(w)
    grad = sys.H @ a - sys.g
    scale = tol * (np.max(np.abs(sys.g)) + np.max(np.abs(sys.H)) * sys.M)
    assert np.all(np.abs(a) <= sys.M)
    upper, lower = a == sys.M, a == -sys.M
    free = ~(upper | lower)
    assert np.all(np.abs(grad[free]) <= scale)
    assert np.all(grad[upper] <= scale)  # moving inward from +M must not descend
    assert np.all(grad[lower] >= -scale)
    return int(np.sum(~free))


class TestProjectedGradient:
    def test_feasible_unconstrained_minimum(self):
        sys_ = dense_system(np.eye(3), np.array([1.0, 0.0, -1.0]), lam=0.0, M=10.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.allclose(rep.w_final, [1.0, 0.0, -1.0], atol=1e-10)

    def test_symmetric_target_projects_to_zero(self):
        sys_ = dense_system(np.eye(3), np.ones(3), lam=0.0, M=10.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.allclose(rep.w_final, 0.0, atol=1e-10)

    def test_iterates_feasible_throughout(self, system_r1, constraints_r1):
        rep = solve_pg(system_r1, constraints_r1)
        assert constraints_r1.residual(rep.w_final) <= 1e-12

    @pytest.mark.parametrize("M", [100.0, 0.09])
    def test_default_step_from_gram_spectrum(self, M):
        """With A^T A = Q diag(s) Q^T the default step is alpha = 1/(max s + lam),
        so the first iterate from zero is lift(clip(alpha/2 g)), g = P^T A^T b."""
        rng = np.random.default_rng(7)
        s = np.array([0.5, 2.0, 9.0, 4.0, 1.0])
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = np.sqrt(s)[:, None] * Q.T  # A^T A = Q diag(s) Q^T
        sys_ = dense_system(A, rng.normal(size=5), lam=0.25, M=M)
        alpha = 1.0 / (9.0 + 0.25)
        g = sys_.g
        rep = solve_pg(sys_, build_skew_constraints(2), SolverOptions(max_iters=1))
        expected = lift(np.clip(0.5 * alpha * g, -M, M))
        assert np.allclose(rep.w_final, expected, rtol=1e-12, atol=0.0)
        assert (M < 1.0) == bool(np.any(np.abs(expected) == M))  # the small box clips

    def test_monotone_descent(self, system_r1, constraints_r1):
        rep = solve_pg(system_r1, constraints_r1, NO_STOP)
        diffs = np.diff(rep.objective_trace)
        slack = 1e-14 * np.maximum(1.0, np.abs(rep.objective_trace[1:]))
        assert np.all(diffs <= slack)

    def test_box_enforced(self):
        sys_ = dense_system(np.eye(3), np.array([10.0, 0.0, -10.0]), lam=1e-3, M=2.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.array_equal(rep.w_final, [2.0, 0.0, -2.0])
        assert rep.stop_reason == "tol"

    def test_nonfinite_objective_aborts(self):
        assert assert_matches_loop(PG, DIVERGENT, SolverOptions(max_iters=200)) > 1


class TestNesterov:
    def test_first_extrapolation_is_null(self, system_r1, constraints_r1):
        """t_0 = 1 makes beta_1 = 0, so NAG's first iterate equals PG's."""
        one = SolverOptions(max_iters=1, tol=1e-300)
        w_pg = solve_pg(system_r1, constraints_r1, one).w_final
        w_nag = solve_nag(system_r1, constraints_r1, one).w_final
        assert np.array_equal(w_pg, w_nag)

    def test_scalar_strongly_convex(self):
        """At R = 1 the reduced problem is scalar: F(a) = (2a - 4)^2 / 2."""
        sys_ = dense_system(np.array([[-1.0, 0.0, 1.0]]), np.array([4.0]), lam=0.0, M=100.0)
        rep = solve_nag(sys_, build_skew_constraints(1), SolverOptions(max_iters=2000, tol=1e-15))
        assert np.max(np.abs(rep.w_final - [-2.0, 0.0, 2.0])) <= 1e-10

    def test_oscillates_but_beats_pg_at_equal_budget(self, system_r1, constraints_r1):
        rep_pg = solve_pg(system_r1, constraints_r1, NO_STOP)
        rep_nag = solve_nag(system_r1, constraints_r1, NO_STOP)
        assert np.any(np.diff(rep_nag.objective_trace) > 0)
        assert rep_nag.objective_trace[-1] <= rep_pg.objective_trace[-1]

    def test_box_enforced(self, training_set):
        small_box = assemble_regression(training_set, R=1, M=1.0)
        rep = solve_nag(small_box, build_skew_constraints(1))
        assert np.array_equal(rep.w_final, [-1.0, 0.0, 1.0])

    def test_nonfinite_objective_aborts(self):
        assert assert_matches_loop(NAG, DIVERGENT, SolverOptions(max_iters=200)) > 1


class TestADMM:
    def test_nonfinite_objective_aborts(self):
        """A negative definite gram is no least-squares problem, but it makes
        ADMM's iterates triple each step (H = -2, K = H + 2 rho = 1), so the
        objective overflows hundreds of iterations in."""
        indefinite = RegressionSystem(gram=-np.eye(3), atb=np.array([-1.0, 0.0, 1.0]), btb=1.0, rows=1, lam=0.0, M=np.inf)
        assert assert_matches_loop(ADMM, indefinite, SolverOptions(rho=1.5, max_iters=2000)) > 100

    def test_default_problem(self, solver_reports):
        rep = solver_reports[ADMM]
        assert abs(rep.w_final[1]) <= 1e-12
        assert rep.w_final[0] == pytest.approx(-rep.w_final[2], abs=1e-12)
        assert build_skew_constraints(1).residual(rep.w_final) <= 1e-10

    def test_agrees_with_reference(self, solver_reports):
        diff = np.max(np.abs(solver_reports[ADMM].w_final - solver_reports[REFERENCE].w_final))
        assert diff <= 1e-6 * np.max(np.abs(solver_reports[REFERENCE].w_final))

    def test_box_activation_keeps_structure(self, training_set):
        sys_small_box = assemble_regression(training_set, R=1, M=1.0)
        rep = solve_admm(sys_small_box, build_skew_constraints(1))
        assert np.all(np.abs(rep.w_final) <= 1.0)
        assert abs(rep.w_final[1]) <= 1e-12

    def test_fixed_point_at_reference_solution(self, system_r1, solver_reports):
        """One ADMM update from (a*, a*, 0) stays at the reference a*."""
        w_star = solver_reports[REFERENCE].w_final
        a_star = skew_coordinates(w_star)
        w_final, *_ = looped_solve(ADMM, system_r1, SolverOptions(max_iters=1, tol=1e-300),
                                   start=(a_star, a_star.copy(), np.zeros_like(a_star)))
        assert np.linalg.norm(w_final - w_star) <= 1e-9

    @PROPERTY
    @given(seed=st.none() | st.integers(0, 2**32 - 1), R=st.integers(1, 4), max_iters=st.none() | st.integers(1, 300),
           tol=st.floats(-14.0, -2.0).map(lambda e: 10.0**e), rho=st.floats(0.01, 5.0))
    @example(seed=None, R=1, max_iters=None, tol=1e-12, rho=0.05)
    @example(seed=None, R=2, max_iters=None, tol=1e-12, rho=0.05)
    def test_iterates_formed_past_the_stop(self, training_set, seed, R, max_iters, tol, rho):
        """A solve that stops after k iterations forms at most 2k + 4 iterates
        below 64 and k + 64 above, and none past its cap. On the default
        data at R <= 2 ADMM stops after 4 to 7 iterations."""
        sys_ = assemble_regression(training_set, R=R) if seed is None else random_system(seed, R)
        linalg_solve, formed = np.linalg.solve, []

        def counted(*args):
            formed.append(None)
            return linalg_solve(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", counted)
            rep = solve_admm(sys_, build_skew_constraints(R), SolverOptions(max_iters=max_iters, tol=tol, rho=rho))
        k = rep.iterations
        if rep.stop_reason == "max_iters":
            assert len(formed) == k
        else:
            assert k <= len(formed) <= (2 * k + 4 if k < 64 else k + 64)

    def test_agreement_on_random_qps(self, rng):
        for _ in range(10):
            A = rng.normal(size=(30, 5))
            b = rng.normal(size=30) * 3.0
            sys_ = dense_system(A, b, lam=1e-3, M=1000.0)
            cs = build_skew_constraints(2)
            w_admm = solve_admm(sys_, cs, SolverOptions(max_iters=3000, tol=1e-15, rho=1.0)).w_final
            w_ref = solve_reference(sys_, cs).w_final
            scale = max(1.0, np.max(np.abs(w_ref)))
            assert np.max(np.abs(w_admm - w_ref)) <= 1e-6 * scale


class TestReference:
    def test_box_inactive_matches_direct_kkt(self, rng):
        for _ in range(5):
            A = rng.normal(size=(40, 5))
            b = rng.normal(size=40)
            sys_ = dense_system(A, b, lam=1e-3, M=1e6)
            rep = solve_reference(sys_, build_skew_constraints(2))
            w_direct = direct_equality_kkt(sys_)
            assert np.max(np.abs(rep.w_final - w_direct)) <= 1e-12 * max(1.0, np.max(np.abs(w_direct)))

    def test_box_active_agrees_with_admm(self):
        sys_ = dense_system(np.eye(3), np.array([10.0, 0.0, -10.0]), lam=1e-3, M=2.0)
        cs = build_skew_constraints(1)
        rep_ref = solve_reference(sys_, cs)
        rep_admm = solve_admm(sys_, cs, SolverOptions(max_iters=5000, tol=1e-15, rho=1.0))
        assert np.all(np.abs(rep_ref.w_final) <= 2.0 + 1e-12)
        assert np.max(np.abs(rep_ref.w_final) - 2.0) <= 1e-10  # bound truly active
        assert np.max(np.abs(rep_ref.w_final - rep_admm.w_final)) <= 1e-8

    def test_released_constraint(self):
        """An active-set method heading for both bounds must release one
        of them. The unconstrained optimum a = (1, -5) leaves the box in
        a_2 only, so a_2 = w_{+2} is held at -3 and a_1 = w_{+1} = 1 stays
        free."""
        A = np.diag([1.0, 1.0, 1.0, 1.0, 1.0])
        b = np.array([5.0, -1.0, 0.0, 1.0, -5.0])
        sys_ = dense_system(A, b, lam=0.0, M=3.0)
        rep = solve_reference(sys_, build_skew_constraints(2))
        assert np.allclose(rep.w_final, [3.0, -1.0, 0.0, 1.0, -3.0], atol=1e-10)

    def test_strict_convexity_of_regularized_hessian(self, system_r1):
        evals = np.linalg.eigvalsh(system_r1.gram + system_r1.lam * np.eye(3))
        assert evals.min() >= system_r1.lam * (1 - 1e-9)

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_default_data_every_radius(self, training_set, R):
        """Exact at every radius on the default data, including R = 4 where
        the reduced Hessian has condition number ~1e11."""
        sys_ = assemble_regression(training_set, R=R)
        rep = solve_reference(sys_, build_skew_constraints(R))
        assert rep.stop_reason == "exact"
        w_exact = exact_unboxed_solution(sys_)
        assert np.max(np.abs(rep.w_final - w_exact)) <= 1e-8 * np.max(np.abs(w_exact))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 4))
    def test_kkt_box_inactive(self, seed, R):
        sys_ = random_system(seed, R, box_scale=2.0)
        w = solve_reference(sys_, build_skew_constraints(R)).w_final
        assert assert_kkt(sys_, w) == 0

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 4), scale=st.floats(0.05, 0.9))
    def test_kkt_box_active(self, seed, R, scale):
        sys_ = random_system(seed, R, box_scale=scale)
        w = solve_reference(sys_, build_skew_constraints(R)).w_final
        assert assert_kkt(sys_, w) >= 1


class TestReducedMatchesFullSpace:
    """The reduced solvers take the same steps as the full-space algorithms
    they replace: project onto the skew stencils, then onto the box."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), scale=st.sampled_from([None, 0.5]),
           iters=st.integers(1, 60))
    def test_pg_and_nag(self, seed, R, scale, iters):
        sys_ = random_system(seed, R, box_scale=scale)
        alpha = 1.0 / np.linalg.eigvalsh(sys_.gram + sys_.lam * np.eye(sys_.n_coeffs)).max()  # the solvers' step
        opts = SolverOptions(max_iters=iters, tol=1e-300)
        cs = build_skew_constraints(R)
        for solver, reference in ((solve_pg, full_space_pg), (solve_nag, full_space_nag)):
            w = solver(sys_, cs, opts).w_final
            w_ref = reference(sys_, alpha, iters)
            assert np.max(np.abs(w - w_ref)) <= 1e-10 * max(1.0, np.max(np.abs(w_ref)))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), scale=st.sampled_from([None, 0.5]),
           iters=st.integers(1, 60), rho=st.floats(0.05, 5.0))
    def test_admm(self, seed, R, scale, iters, rho):
        sys_ = random_system(seed, R, box_scale=scale)
        w = solve_admm(sys_, build_skew_constraints(R), SolverOptions(max_iters=iters, tol=1e-300, rho=rho)).w_final
        w_ref = full_space_admm(sys_, rho, iters)
        assert np.max(np.abs(w - w_ref)) <= 1e-10 * max(1.0, np.max(np.abs(w_ref)))


class TestMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @at_block_edges
    # stops inside a block: PG after 24 and 396 iterations, NAG after 82, ADMM after 7
    @example(method=PG, seed=0, R=2, scale=None, max_iters=None, tol=1e-4, rho=0.05)
    @example(method=PG, seed=None, R=1, scale=None, max_iters=None, tol=1e-12, rho=0.05)
    @example(method=NAG, seed=1, R=2, scale=None, max_iters=None, tol=1e-8, rho=0.05)
    @example(method=ADMM, seed=None, R=2, scale=None, max_iters=None, tol=1e-12, rho=0.05)
    @given(method=st.sampled_from([PG, NAG, ADMM]), seed=st.none() | st.integers(0, 2**32 - 1), R=st.integers(1, 5),
           scale=st.sampled_from([None, 0.3, 0.9, 2.0]), max_iters=st.none() | st.integers(1, 600),
           tol=st.floats(-14.0, -2.0).map(lambda e: 10.0**e), rho=st.floats(0.01, 5.0))
    def test_reports_bit_for_bit(self, training_set, method, seed, R, scale, max_iters, tol, rho):
        """seed=None solves on the default data, where PG and NAG run to
        their cap at R >= 2; a seed draws a well-conditioned random system.
        A scale puts the box at that multiple of the largest unboxed
        coefficient, so it is active below 1."""
        if seed is None:
            sys_ = assemble_regression(training_set, R=R)
            if scale is not None:
                a_free = np.linalg.solve(sys_.H, sys_.g)
                sys_ = assemble_regression(training_set, R=R, M=scale * float(np.max(np.abs(a_free))))
        else:
            sys_ = random_system(seed, R, box_scale=scale)
        assert_matches_loop(method, sys_, SolverOptions(max_iters=max_iters, tol=tol, rho=rho))


class TestStackedForms:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 10), rows=st.integers(1, 80),
           exponents=st.tuples(*[st.floats(-3.0, 8.0)] * 3))
    def test_rows_keep_their_bits(self, seed, R, rows, exponents):
        """The whole-block forms the solvers' driver measures iterates with
        equal the per-row H @ a, a @ b and g @ a bit for bit (A @ H.T and
        einsum round differently), and H.dot(a) equals H @ a."""
        rng = np.random.default_rng(seed)
        h, x, y = (10.0**e for e in exponents)
        H, g = rng.normal(size=(R, R)) * h, rng.normal(size=R) * h
        A, B = rng.normal(size=(rows, R)) * x, rng.normal(size=(rows, R)) * y
        HA = np.array([H @ a for a in A])
        assert _matvecs(H, A).tobytes() == HA.tobytes()
        assert np.array([H.dot(a) for a in A]).tobytes() == HA.tobytes()
        assert np.vecdot(A, B).tobytes() == np.array([a @ b for a, b in zip(A, B)]).tobytes()
        assert np.vecdot(g, A).tobytes() == np.array([g @ a for a in A]).tobytes()


class TestFeasibilityAcrossMethods:
    def test_final_residuals(self, solver_reports, constraints_r1):
        assert constraints_r1.residual(solver_reports[PG].w_final) <= 1e-8
        assert constraints_r1.residual(solver_reports[NAG].w_final) <= 1e-8
        assert constraints_r1.residual(solver_reports[ADMM].w_final) <= 1e-10
        assert constraints_r1.residual(solver_reports[REFERENCE].w_final) <= 1e-10

    def test_optimality_agreement(self, solver_reports):
        finals = [solver_reports[m].objective_trace[-1] for m in (NAG, ADMM, REFERENCE)]
        assert (max(finals) - min(finals)) / min(finals) <= 1e-5


class TestReportsAndDispatch:
    def test_trace_lengths(self, solver_reports):
        for rep in solver_reports.values():
            assert (
                len(rep.objective_trace)
                == len(rep.step_diff_trace)
                == len(rep.time_trace)
                == rep.iterations
            )
            assert np.all(np.diff(rep.time_trace) >= 0)

    def test_json_and_csv(self, solver_reports, tmp_path):
        rep = solver_reports[ADMM]
        RunDir(tmp_path).write_trace("r.csv", rep)
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == rep.iterations
        assert list(rows[0]) == ["iter", "objective", "step_diff", "elapsed_s"]
        assert float(rows[-1]["objective"]) == pytest.approx(rep.objective_trace[-1])

    def test_stop_reasons(self, solver_reports):
        assert {m: rep.stop_reason for m, rep in solver_reports.items()} == {
            PG: "tol", NAG: "max_iters", ADMM: "tol", REFERENCE: "exact"
        }
        assert solver_reports[NAG].iterations == SolverOptions().resolve_max_iters(NAG)

    @pytest.mark.parametrize("method", [PG, NAG, ADMM])
    def test_nonfinite_objective_at_the_stop_raises(self, method):
        """With b = 0 the first iterate is 0 and passes the stopping test, but
        an overflowed b^T b makes its objective infinite: the objective is
        checked first, so the solve raises at iteration 1."""
        overflowed = RegressionSystem(gram=np.eye(3), atb=np.zeros(3), btb=np.inf, rows=1, lam=0.0, M=1.0)
        assert assert_matches_loop(method, overflowed, SolverOptions()) == 1

    def test_reference_without_a_finite_face_raises(self):
        """The unconstrained minimizer a = 10 lies outside |a| <= 1, and the
        overflowed b^T b makes the objective of every face infinite."""
        overflowed = RegressionSystem(gram=np.eye(3), atb=np.array([-10.0, 0.0, 10.0]), btb=np.inf, rows=1, lam=0.0, M=1.0)
        with pytest.raises(NumericalError, match="no face of the box has a finite objective"):
            solve_reference(overflowed, build_skew_constraints(1))

    def test_dispatch_aliases(self, system_r1, constraints_r1):
        rep = solve("ref", system_r1, constraints_r1)
        assert rep.method == REFERENCE
        with pytest.raises(ValueError):
            solve("simplex", system_r1, constraints_r1)

    @pytest.mark.parametrize("method", ["pg", "nag", "admm", "ref"])
    def test_radius_mismatch_rejected(self, system_r1, method):
        with pytest.raises(ValueError, match="radius"):
            solve(method, system_r1, build_skew_constraints(2))

    def test_option_validation(self):
        for max_iters in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="max_iters"):
                SolverOptions(max_iters=max_iters)
        assert SolverOptions(max_iters=np.int64(3)).resolve_max_iters(PG) == 3
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(rho=-1.0)
        for field in ("tol", "rho"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=field):
                    SolverOptions(**{field: value})

    def test_w_final_is_lifted(self, solver_reports):
        for rep in solver_reports.values():
            assert np.array_equal(rep.w_final, lift(skew_coordinates(rep.w_final)))


class TestOneQP:
    """The system is the QP every solve reads: its H and g are formed once,
    and nothing a solve does changes what the next solve sees."""

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_solves_of_one_system_match_fresh_systems(self, training_set, R):
        shared, cs = assemble_regression(training_set, R=R), build_skew_constraints(R)
        for method in (PG, NAG, ADMM, REFERENCE):
            got = solve(method, shared, cs)
            expected = solve(method, assemble_regression(training_set, R=R), cs)
            for f in fields(SolverReport):
                if f.name != "time_trace":
                    assert np.array_equal(getattr(got, f.name), getattr(expected, f.name)), (method, f.name)

    def test_every_array_is_read_only(self, training_set):
        sys_ = assemble_regression(training_set, R=2)
        for name in ("H", "g", "H_ext", "g_ext", "gram", "atb"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sys_, name)[0] = 1.0

    def test_keeps_no_caller_array_and_replace_forms_afresh(self):
        """H = |lift(e_1)|^2 + 2 lam = 2 + 2 lam for the identity gram."""
        gram, atb = np.eye(3), np.array([-1.0, 0.0, 1.0])
        sys_ = RegressionSystem(gram=gram, atb=atb, btb=2.0, rows=3, lam=0.5)
        assert sys_.H.tolist() == [[3.0]] and sys_.g.tolist() == [2.0]
        gram[2, 2] = atb[2] = 7.0
        assert sys_.gram[2, 2] == 1.0 and sys_.atb[2] == 1.0
        assert replace(sys_, lam=1.5).H.tolist() == [[5.0]] and sys_.H.tolist() == [[3.0]]


@pytest.fixture(scope="module")
def noisy_training_set():
    return generate_training_set(replace(default_training_config(), noise_std=0.05))


class TestScaleCovariance:
    """Fields scaled by s scale A^T A, A^T b and b^T b by s^2, so the learn
    on them is the unit learn at lam / s^2 (and ADMM's rho / s^2): the
    data's scale is not a setting. At a power of two s every product
    scales exactly, so scaling lam and rho by s^2 must give the unit
    solve's stencil, iterations, stop reason and step changes bit for bit,
    and its objective trace times s^2."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "sigma-0.05"])
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_scaled_data_learns_the_same_stencil(self, training_set, noisy_training_set, noisy, R):
        ts = noisy_training_set if noisy else training_set
        cs, opts = build_skew_constraints(R), SolverOptions()
        unit = {m: solve(m, assemble_regression(ts, R=R), cs, opts) for m in (PG, NAG, ADMM, REFERENCE)}
        for s in (2.0**-8, 0.5, 2.0, 2.0**10):
            scaled = TrainingSet(states=s * ts.states, derivatives=s * ts.derivatives, config=ts.config)
            system = assemble_regression(scaled, R=R, lam=RegressionSystem.lam * s * s)
            for method, expected in unit.items():
                got = solve(method, system, cs, replace(opts, rho=opts.rho * s * s))
                for name in ("w_final", "iterations", "stop_reason", "step_diff_trace"):
                    assert np.array_equal(getattr(got, name), getattr(expected, name)), (s, method, name)
                assert np.array_equal(got.objective_trace, s * s * expected.objective_trace), (s, method)
