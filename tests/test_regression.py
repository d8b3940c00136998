import tracemalloc

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stencil_lab.core import Grid1D, lift
from stencil_lab.regression import (
    RegressionSystem,
    assemble_regression,
    build_skew_constraints,
)
from stencil_lab.training import TrainingConfig, TrainingSet, generate_training_set

from oracles import dense_system, objective_and_gradient, operator_matrix, reduced_by_matrix, skew_coordinates


class TestAssembly:
    def test_dimensions(self, system_r1):
        assert system_r1.rows == 2 * 200 * 64 and system_r1.n_coeffs == 3
        assert system_r1.A.shape == (2 * 200 * 64, 3)
        assert system_r1.b.shape == (25600,)

    def test_row_layout(self, grid):
        """Sample-major, H rows before E rows, index ascending, with the
        patch (u_{i-R}, ..., u_{i+R})."""
        cfg = TrainingConfig(n_sims=1, m_max=1, grid=grid, seed=0)
        states = np.zeros((1, 2, 64))
        states[0, 0] = np.arange(64, dtype=float)            # E
        states[0, 1] = 1000.0 + np.arange(64, dtype=float)   # H
        derivs = np.zeros((1, 2, 64))
        derivs[0, 0] = np.arange(64) * 1.0 + 0.5             # dE/dt
        derivs[0, 1] = np.arange(64) * 1.0 - 0.5             # dH/dt
        ts = TrainingSet(states=states, derivatives=derivs, config=cfg)
        sys_ = assemble_regression(ts, R=1)
        # H-patch row at i=0 wraps: (H_63, H_0, H_1), target dE/dt at 0
        assert np.array_equal(sys_.A[0], [1063.0, 1000.0, 1001.0])
        assert sys_.b[0] == 0.5
        # H row at i=5
        assert np.array_equal(sys_.A[5], [1004.0, 1005.0, 1006.0])
        # E rows start after the N H-rows
        assert np.array_equal(sys_.A[64], [63.0, 0.0, 1.0])
        assert sys_.b[64] == -0.5

    def test_constant_field_rows(self, grid):
        cfg = TrainingConfig(n_sims=1, m_max=1, grid=grid, seed=0)
        states = np.zeros((1, 2, 64))
        states[0, 1] = 4.25  # constant H
        derivs = np.zeros((1, 2, 64))
        ts = TrainingSet(states=states, derivatives=derivs, config=cfg)
        sys_ = assemble_regression(ts, R=1)
        assert np.all(sys_.A[:64] == 4.25)
        assert np.all(sys_.b[:64] == 0.0)

    def test_single_mode_least_squares_stencil_fits_exactly(self, grid):
        """For mode-1-only data the optimal R=1 skew stencil is
        w_{+1} = (2 pi / L) / (2 sin(2 pi dx / L)): it reproduces the
        spectral derivative of every mode-1 field exactly."""
        cfg = TrainingConfig(n_sims=10, m_max=1, grid=grid, seed=3)
        ts = generate_training_set(cfg)
        sys_ = assemble_regression(ts, R=1)
        w1 = (2 * np.pi / grid.L) / (2 * np.sin(2 * np.pi * grid.dx / grid.L))
        w = np.array([-w1, 0.0, w1])
        assert np.max(np.abs(sys_.A @ w - sys_.b)) <= 1e-10

    def test_radius_too_large(self, grid):
        cfg = TrainingConfig(n_sims=1, m_max=5, grid=grid, seed=0)
        ts = generate_training_set(cfg)
        with pytest.raises(ValueError):
            assemble_regression(ts, R=32)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dense_system(np.eye(3), np.zeros(3), lam=-1.0)
        with pytest.raises(ValueError):
            dense_system(np.eye(3), np.zeros(3), M=0.0)
        for lam, M, name in ((np.nan, 1.0, "lam"), (np.inf, 1.0, "lam"), (0.0, np.nan, "M")):
            with pytest.raises(ValueError, match=name):
                dense_system(np.eye(3), np.zeros(3), lam=lam, M=M)
        assert dense_system(np.eye(3), np.zeros(3), M=np.inf).M == np.inf  # an open box
        with pytest.raises(ValueError):
            dense_system(np.eye(4), np.zeros(4))  # even stencil dimension
        with pytest.raises(ValueError):
            dense_system(np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            RegressionSystem(gram=np.eye(3), atb=np.zeros(2), btb=0.0, rows=3)
        with pytest.raises(ValueError, match="no training set"):
            RegressionSystem(gram=np.eye(3), atb=np.zeros(3), btb=0.0, rows=3).A

    def test_from_dense_keeps_its_matrices(self, rng):
        A, b = rng.normal(size=(7, 3)), rng.normal(size=7)
        sys_ = dense_system(A, b)
        assert sys_.rows == 7
        assert np.array_equal(sys_.gram, A.T @ A) and np.array_equal(sys_.atb, A.T @ b)


def loop_design(ts: TrainingSet, R: int) -> tuple[np.ndarray, np.ndarray]:
    """The design matrix and targets by their definition, one row at a time:
    sample-major, H rows (target dE/dt) before E rows (target dH/dt),
    row i holding the periodic patch (u_{i-R}, ..., u_{i+R})."""
    N = ts.config.grid.N
    rows, targets = [], []
    for states, derivs in zip(ts.states, ts.derivatives):
        for u, v in ((states[1], derivs[0]), (states[0], derivs[1])):
            for i in range(N):
                rows.append([u[(i + j) % N] for j in range(-R, R + 1)])
                targets.append(v[i])
    return np.array(rows), np.array(targets)


class TestLagCorrelations:
    """assemble_regression sums the products of A.T @ A, A.T @ b and b @ b
    as periodic lag dot products, in another order."""

    @settings(max_examples=100, deadline=None)
    @given(R=st.integers(1, 5), extra=st.integers(0, 70 - 11), n_sims=st.integers(1, 5),
           m_max=st.integers(1, 34), noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(R=1, extra=0, n_sims=1, m_max=1, noisy=False, seed=0)   # N = 3
    @example(R=5, extra=0, n_sims=2, m_max=5, noisy=True, seed=1)    # N = 11, odd
    @example(R=2, extra=1, n_sims=3, m_max=2, noisy=False, seed=2)   # N = 6, even
    def test_match_the_design_matrix(self, R, extra, n_sims, m_max, noisy, seed):
        N = 2 * R + 1 + extra
        cfg = TrainingConfig(n_sims=n_sims, m_max=min(m_max, (N - 1) // 2), grid=Grid1D(N=N),
                             seed=seed, noise_std=0.1 if noisy else 0.0)
        ts = generate_training_set(cfg)
        A, b = loop_design(ts, R)
        dense = dense_system(A, b)
        sys_ = assemble_regression(ts, R=R)
        assert sys_.rows == dense.rows and sys_.n_coeffs == 2 * R + 1
        # |gram| <= r(0) and |atb| <= sqrt(r(0) btb) (Cauchy-Schwarz) set each entry's scale
        r0, btb = dense.gram[0, 0], dense.btb
        assert np.max(np.abs(sys_.gram - dense.gram)) <= 1e-13 * r0
        assert np.max(np.abs(sys_.atb - dense.atb)) <= 1e-13 * np.sqrt(r0 * btb)
        assert abs(sys_.btb - btb) <= 1e-13 * btb
        assert np.array_equal(sys_.A, A) and np.array_equal(sys_.b, b)

    def test_design_matrix_is_never_built(self):
        """Assembly at N = 4096 holds far less than A's bytes, and A
        appears only when read."""
        R = 3
        ts = generate_training_set(TrainingConfig(n_sims=8, m_max=5, grid=Grid1D(N=4096), seed=0))
        tracemalloc.start()
        try:
            sys_ = assemble_regression(ts, R=R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        design_bytes = sys_.rows * (2 * R + 1) * 8
        assert peak < design_bytes / 4
        assert "A" not in vars(sys_)
        assert sys_.A.shape == (sys_.rows, 2 * R + 1)
        assert "A" in vars(sys_)


def project(z):
    """Euclidean projection onto the skew stencils."""
    return lift(skew_coordinates(z))


class TestConstraints:
    def test_r1_layout(self):
        """The residual is the norm of (w_0, w_{-1} + w_{+1})."""
        cs = build_skew_constraints(1)
        assert cs.R == 1
        assert cs.residual(np.array([1.0, 2.0, 5.0])) == np.hypot(2.0, 6.0)

    def test_exact_fd_feasible(self):
        cs = build_skew_constraints(1)
        assert cs.residual(np.array([-32.0, 0.0, 32.0])) == 0.0

    def test_symmetric_infeasible(self):
        cs = build_skew_constraints(1)
        assert cs.residual(np.ones(3)) == np.hypot(1.0, 2.0)

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_full_row_rank(self, R, rng):
        """The R + 1 constraints are independent: the residual vanishes on
        the R-dimensional skew stencils and on no symmetric direction."""
        cs = build_skew_constraints(R)
        for _ in range(5):
            assert cs.residual(lift(rng.normal(size=R))) == 0.0
        center = np.zeros(2 * R + 1)
        center[R] = 1.0
        assert cs.residual(center) == 1.0
        for l in range(1, R + 1):
            pair = np.zeros(2 * R + 1)
            pair[R - l] = pair[R + l] = 1.0
            assert cs.residual(pair) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_skew_constraints(0)
        with pytest.raises(ValueError):
            build_skew_constraints(2).residual(np.zeros(3))


class TestProjection:
    def test_feasible_point_fixed(self):
        z = np.array([-3.0, 0.0, 3.0])
        assert np.array_equal(project(z), z)

    def test_hand_computed_example(self):
        assert np.allclose(project(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0], atol=1e-15)

    def test_matches_antisymmetrization(self, rng):
        """The projection is componentwise antisymmetrization w_l -> (w_l - w_{-l}) / 2."""
        for _ in range(10):
            z = rng.normal(size=5)
            assert np.array_equal(project(z), 0.5 * (z - z[::-1]))

    def test_projection_is_nearest_feasible_point(self, rng):
        z = rng.normal(size=5)
        p = project(z)
        for _ in range(100):
            y = project(rng.normal(size=5) * 3.0)  # random feasible point
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - y) + 1e-12

    def test_projected_operator_is_skew(self, rng):
        from stencil_lab.core import Stencil

        for _ in range(5):
            p = project(rng.normal(size=7))
            D = operator_matrix(Stencil(p, 1.0), 16)
            assert np.array_equal(D.T, -D)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda R: arrays(np.float64, 2 * R + 1, elements=st.floats(-1e6, 1e6, allow_nan=False))))
    def test_idempotent_and_exactly_skew(self, z):
        p = project(z)
        assert np.array_equal(project(p), p)
        assert build_skew_constraints(z.size // 2).residual(p) == 0.0
        assert np.array_equal(p, -p[::-1])


class TestReducedProblem:
    """F(a) = f(P a): H = P^T (A^T A) P + 2 lam I and g = P^T A^T b."""

    def test_hessian_and_linear_term(self, rng):
        A = rng.normal(size=(20, 5))
        sys_ = dense_system(A, rng.normal(size=20), lam=0.3)
        P = np.array([lift(e) for e in np.eye(2)]).T
        assert np.allclose(sys_.H, P.T @ sys_.gram @ P + 0.6 * np.eye(2), rtol=1e-14, atol=0.0)
        assert np.allclose(sys_.g, P.T @ sys_.atb, rtol=1e-14, atol=0.0)
        assert np.array_equal(sys_.H, sys_.H.T)
        assert sys_.H.shape == (2, 2) and sys_.g.shape == (2,)

    def test_objective_and_gradient_match_full_space(self, system_r1, rng):
        for _ in range(5):
            a = rng.normal(size=1) * 30.0
            f, grad = objective_and_gradient(system_r1, lift(a))
            assert system_r1.objective(a) == pytest.approx(f, rel=1e-10)
            assert system_r1.H @ a - system_r1.g == pytest.approx(grad[2] - grad[0], rel=1e-10)

    @pytest.mark.parametrize("R", range(1, 7))
    def test_pairing_is_the_matrix_form_on_assembled_systems(self, training_set, R):
        sys_ = assemble_regression(training_set, R=R, lam=0.0 if R % 2 else 1e-6)
        H, g = reduced_by_matrix(sys_)
        assert np.array_equal(sys_.H_ext, H) and np.array_equal(sys_.g_ext, g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda R: st.tuples(
        arrays(np.float64, (2 * R + 1, 2 * R + 1), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, 2 * R + 1, elements=st.floats(-1e6, 1e6)))), st.floats(0.0, 10.0))
    def test_pairing_is_the_matrix_form(self, gram_atb, lam):
        sys_ = RegressionSystem(*gram_atb, btb=1.0, rows=1, lam=lam)
        H, g = reduced_by_matrix(sys_)
        assert np.array_equal(sys_.H_ext, H) and np.array_equal(sys_.g_ext, g)

    def test_skew_coordinates_invert_lift(self, rng):
        a = rng.normal(size=4)
        assert np.array_equal(skew_coordinates(lift(a)), a)
        assert np.array_equal(lift(a)[:4], -a[::-1])


class TestObjective:
    def test_at_zero(self, system_r1):
        f, grad = objective_and_gradient(system_r1, np.zeros(3))
        assert f == pytest.approx(0.5 * system_r1.btb, rel=1e-12)
        assert np.allclose(grad, -system_r1.atb, rtol=1e-12)

    def test_gradient_vanishes_at_least_squares_solution(self, training_set):
        sys0 = assemble_regression(training_set, R=1, lam=0.0)
        w_ls = np.linalg.solve(sys0.gram, sys0.atb)
        _, grad = objective_and_gradient(sys0, w_ls)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(sys0.atb)

    def test_gradient_matches_central_differences(self, system_r1, rng):
        for _ in range(5):
            w = rng.normal(size=3) * 30.0
            _, grad = objective_and_gradient(system_r1, w)
            fd = np.zeros(3)
            h = 1e-6 * max(1.0, np.linalg.norm(w))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fp, _ = objective_and_gradient(system_r1, w + e)
                fm, _ = objective_and_gradient(system_r1, w - e)
                fd[j] = (fp - fm) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(grad)

    def test_convexity(self, system_r1, rng):
        for _ in range(10):
            w1 = rng.normal(size=3) * 40
            w2 = rng.normal(size=3) * 40
            f_mid, _ = objective_and_gradient(system_r1, 0.5 * (w1 + w2))
            f1, _ = objective_and_gradient(system_r1, w1)
            f2, _ = objective_and_gradient(system_r1, w2)
            assert f_mid <= 0.5 * f1 + 0.5 * f2 + 1e-12 * max(f1, f2)

    def test_dimension_check(self, system_r1):
        with pytest.raises(ValueError):
            objective_and_gradient(system_r1, np.zeros(5))


def test_diagnostics_dump(system_r1, tmp_path):
    import json

    from stencil_lab.cli import main

    # gen-data's defaults write the default training set that system_r1 holds at R=1
    assert main(["gen-data", "--out", str(tmp_path / "data")]) == 0
    assert main(["learn", "--method", "ref", "--data", str(tmp_path / "data" / "training_data.npz"),
                 "--out", str(tmp_path / "learn")]) == 0
    on_disk = json.loads((tmp_path / "learn" / "diagnostics.json").read_text())
    assert on_disk["rows"] == 25600 and on_disk["cols"] == 3
    assert np.allclose(on_disk["gram"], system_r1.gram)
    assert on_disk["lambda"] == system_r1.lam
