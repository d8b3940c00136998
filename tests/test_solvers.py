import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencil_lab.core import NumericalError
from stencil_lab.regression import (
    RegressionSystem,
    assemble_regression,
    build_skew_constraints,
    lift,
    reduce_problem,
    skew_coordinates,
)
from stencil_lab.solvers import (
    ADMM,
    NAG,
    PG,
    REFERENCE,
    SolverOptions,
    solve,
    solve_admm,
    solve_nag,
    solve_pg,
    solve_reference,
)

NO_STOP = SolverOptions(max_iters=120, tol=1e-300)  # fixed-budget runs
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
        return RegressionSystem(A=A, b=b, lam=lam, M=1e6)
    prob = reduce_problem(RegressionSystem(A=A, b=b, lam=lam))
    a_free = np.linalg.solve(prob.H, prob.g)
    return RegressionSystem(A=A, b=b, lam=lam, M=box_scale * float(np.max(np.abs(a_free))))


def assert_kkt(sys, w, tol=1e-9):
    prob = reduce_problem(sys)
    a = skew_coordinates(w)
    grad = prob.gradient(a)
    scale = tol * (np.max(np.abs(prob.g)) + np.max(np.abs(prob.H)) * prob.M)
    assert np.all(np.abs(a) <= prob.M)
    upper, lower = a == prob.M, a == -prob.M
    free = ~(upper | lower)
    assert np.all(np.abs(grad[free]) <= scale)
    assert np.all(grad[upper] <= scale)  # moving inward from +M must not descend
    assert np.all(grad[lower] >= -scale)
    return int(np.sum(~free))


class TestProjectedGradient:
    def test_feasible_unconstrained_minimum(self):
        sys_ = RegressionSystem(A=np.eye(3), b=np.array([1.0, 0.0, -1.0]), lam=0.0, M=10.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.allclose(rep.w_final, [1.0, 0.0, -1.0], atol=1e-10)

    def test_symmetric_target_projects_to_zero(self):
        sys_ = RegressionSystem(A=np.eye(3), b=np.ones(3), lam=0.0, M=10.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.allclose(rep.w_final, 0.0, atol=1e-10)

    def test_iterates_feasible_throughout(self, system_r1, constraints_r1):
        rep = solve_pg(system_r1, constraints_r1)
        assert np.max(rep.eq_residual_trace) <= 1e-12

    def test_monotone_descent(self, system_r1, constraints_r1):
        rep = solve_pg(system_r1, constraints_r1, NO_STOP)
        diffs = np.diff(rep.objective_trace)
        slack = 1e-14 * np.maximum(1.0, np.abs(rep.objective_trace[1:]))
        assert np.all(diffs <= slack)

    def test_box_enforced(self):
        sys_ = RegressionSystem(A=np.eye(3), b=np.array([10.0, 0.0, -10.0]), lam=1e-3, M=2.0)
        rep = solve_pg(sys_, build_skew_constraints(1))
        assert np.array_equal(rep.w_final, [2.0, 0.0, -2.0])
        assert rep.stop_reason == "tol"

    def test_nonfinite_objective_aborts(self, training_set):
        unboxed = assemble_regression(training_set, R=1, M=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                solve_pg(unboxed, build_skew_constraints(1), SolverOptions(step=1e12, max_iters=200))


class TestNesterov:
    def test_first_extrapolation_is_null(self, system_r1, constraints_r1):
        """t_0 = 1 makes beta_1 = 0, so NAG's first iterate equals PG's."""
        one = SolverOptions(max_iters=1, tol=1e-300)
        w_pg = solve_pg(system_r1, constraints_r1, one).w_final
        w_nag = solve_nag(system_r1, constraints_r1, one).w_final
        assert np.array_equal(w_pg, w_nag)

    def test_scalar_strongly_convex(self):
        """At R = 1 the reduced problem is scalar: F(a) = (2a - 4)^2 / 2."""
        sys_ = RegressionSystem(A=np.array([[-1.0, 0.0, 1.0]]), b=np.array([4.0]), lam=0.0, M=100.0)
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


class TestADMM:
    def test_default_problem(self, solver_reports):
        rep = solver_reports[ADMM]
        assert abs(rep.w_final[1]) <= 1e-12
        assert rep.w_final[0] == pytest.approx(-rep.w_final[2], abs=1e-12)
        assert rep.eq_residual_trace[-1] <= 1e-10

    def test_agrees_with_reference(self, solver_reports):
        diff = np.max(np.abs(solver_reports[ADMM].w_final - solver_reports[REFERENCE].w_final))
        assert diff <= 1e-6 * np.max(np.abs(solver_reports[REFERENCE].w_final))

    def test_box_activation_keeps_structure(self, training_set):
        sys_small_box = assemble_regression(training_set, R=1, M=1.0)
        rep = solve_admm(sys_small_box, build_skew_constraints(1))
        assert np.all(np.abs(rep.w_final) <= 1.0)
        assert abs(rep.w_final[1]) <= 1e-12

    def test_fixed_point_at_reference_solution(self, system_r1, constraints_r1, solver_reports):
        w_star = solver_reports[REFERENCE].w_final
        rep = solve_admm(
            system_r1,
            constraints_r1,
            SolverOptions(max_iters=1, tol=1e-300),
            init=(w_star, w_star.copy(), np.zeros_like(w_star)),
        )
        assert np.linalg.norm(rep.w_final - w_star) <= 1e-9

    def test_agreement_on_random_qps(self, rng):
        for _ in range(10):
            A = rng.normal(size=(30, 5))
            b = rng.normal(size=30) * 3.0
            sys_ = RegressionSystem(A=A, b=b, lam=1e-3, M=1000.0)
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
            sys_ = RegressionSystem(A=A, b=b, lam=1e-3, M=1e6)
            rep = solve_reference(sys_, build_skew_constraints(2))
            w_direct = direct_equality_kkt(sys_)
            assert np.max(np.abs(rep.w_final - w_direct)) <= 1e-12 * max(1.0, np.max(np.abs(w_direct)))

    def test_box_active_agrees_with_admm(self):
        sys_ = RegressionSystem(A=np.eye(3), b=np.array([10.0, 0.0, -10.0]), lam=1e-3, M=2.0)
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
        sys_ = RegressionSystem(A=A, b=b, lam=0.0, M=3.0)
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
        alpha = 0.5 / np.linalg.eigvalsh(sys_.gram + sys_.lam * np.eye(sys_.n_coeffs)).max()
        opts = SolverOptions(max_iters=iters, tol=1e-300, step=alpha)
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


class TestFeasibilityAcrossMethods:
    def test_final_residuals(self, solver_reports):
        assert solver_reports[PG].eq_residual_trace[-1] <= 1e-8
        assert solver_reports[NAG].eq_residual_trace[-1] <= 1e-8
        assert solver_reports[ADMM].eq_residual_trace[-1] <= 1e-10
        assert solver_reports[REFERENCE].eq_residual_trace[-1] <= 1e-10

    def test_optimality_agreement(self, solver_reports):
        finals = [solver_reports[m].objective_trace[-1] for m in (NAG, ADMM, REFERENCE)]
        assert (max(finals) - min(finals)) / min(finals) <= 1e-5


class TestReportsAndDispatch:
    def test_trace_lengths(self, solver_reports):
        for rep in solver_reports.values():
            assert (
                len(rep.objective_trace)
                == len(rep.eq_residual_trace)
                == len(rep.step_diff_trace)
                == len(rep.time_trace)
                == rep.iterations
            )
            assert np.all(rep.eq_residual_trace >= 0)
            assert np.all(np.diff(rep.time_trace) >= 0)

    def test_json_and_csv(self, solver_reports, tmp_path):
        rep = solver_reports[ADMM]
        rep.save_json(tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["method"] == "ADMM"
        assert data["stop_reason"] == "tol"
        assert len(data["objective_trace"]) == rep.iterations
        rep.save_csv(tmp_path / "r.csv")
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == rep.iterations
        assert list(rows[0]) == ["iter", "objective", "eq_residual", "step_diff", "elapsed_s"]
        assert float(rows[-1]["objective"]) == pytest.approx(rep.objective_trace[-1])

    def test_stop_reasons(self, solver_reports):
        assert {m: rep.stop_reason for m, rep in solver_reports.items()} == {
            PG: "tol", NAG: "max_iters", ADMM: "tol", REFERENCE: "exact"
        }
        assert solver_reports[NAG].iterations == SolverOptions().resolve_max_iters(NAG)

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
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(rho=-1.0)

    def test_w_final_is_lifted(self, solver_reports):
        for rep in solver_reports.values():
            assert np.array_equal(rep.w_final, lift(skew_coordinates(rep.w_final)))
