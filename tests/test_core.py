import json

import numpy as np
import pytest

from stencil_lab.core import (
    FieldPair,
    Grid1D,
    Stencil,
    apply_stencil,
    centered_difference_stencil,
    discrete_energy,
    inner_product,
    load_stencil,
    operator_matrix,
    save_stencil,
)


def convolution_oracle(w, u):
    """Direct evaluation of the periodic convolution sum, independent of
    the vectorized implementation."""
    R = (len(w) - 1) // 2
    N = len(u)
    out = np.zeros(N)
    for i in range(N):
        for loc, wl in zip(range(-R, R + 1), w):
            out[i] += wl * u[(i + loc) % N]
    return out


def random_skew_stencil(rng, R, dx=1.0 / 64.0):
    half = rng.normal(size=R)
    return Stencil(np.concatenate([-half[::-1], [0.0], half]), dx)


class TestGrid:
    def test_spacing_and_points(self, grid):
        assert grid.dx == 1.0 / 64.0
        assert np.allclose(grid.x, np.arange(64) / 64.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_small(self, n):
        with pytest.raises(ValueError):
            Grid1D(N=n)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Grid1D(N=8, L=0.0)


class TestApplyStencil:
    def test_constant_field_maps_to_zero(self, grid):
        s = centered_difference_stencil(grid)
        out = apply_stencil(s, np.full(grid.N, 3.7), grid)
        assert np.max(np.abs(out)) == 0.0

    def test_sine_mode(self, grid):
        s = centered_difference_stencil(grid)
        u = np.sin(2 * np.pi * grid.x)
        out = apply_stencil(s, u, grid)
        expected = 64.0 * np.sin(2 * np.pi / 64) * np.cos(2 * np.pi * grid.x)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.max(np.abs(out - convolution_oracle(s.w, u))) < 1e-12

    def test_center_only_scales(self, grid, rng):
        s = Stencil(np.array([0.0, 5.0, 0.0]), grid.dx)
        u = rng.normal(size=grid.N)
        assert np.allclose(apply_stencil(s, u, grid), 5.0 * u, rtol=0, atol=0)

    def test_dimension_mismatch(self, grid):
        s = centered_difference_stencil(grid)
        with pytest.raises(ValueError):
            apply_stencil(s, np.zeros(grid.N + 1), grid)

    def test_grid_too_small_for_radius(self):
        tiny = Grid1D(N=4)
        s = Stencil(np.ones(5) / 5, tiny.dx)  # R = 2 needs N >= 5
        with pytest.raises(ValueError):
            apply_stencil(s, np.zeros(4), tiny)


class TestOperatorMatrix:
    def test_four_point_example(self):
        s = Stencil(np.array([-1.0, 0.0, 1.0]), 1.0)
        D = operator_matrix(s, 4)
        expected = np.array([
            [0.0, 1.0, 0.0, -1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
        ])
        assert np.array_equal(D, expected)

    def test_skew_stencil_gives_skew_matrix(self, rng):
        for R in range(1, 5):
            D = operator_matrix(random_skew_stencil(rng, R), 16)
            assert np.array_equal(D.T, -D)

    def test_matches_apply_stencil_on_random_vectors(self, rng):
        for R in (1, 2, 3, 4):
            for N in (8, 64):
                if N < 2 * R + 1:
                    continue  # rejected combination (wrap-around would double-count)
                s = Stencil(rng.normal(size=2 * R + 1), 1.0 / N)
                D = operator_matrix(s, N)
                g = Grid1D(N=N)
                for _ in range(20):
                    u = rng.normal(size=N)
                    dv = D @ u
                    av = apply_stencil(s, u, g)
                    assert np.max(np.abs(dv - av)) <= 1e-13 * max(1.0, np.max(np.abs(dv)))

    def test_too_small(self):
        s = Stencil(np.ones(5), 1.0)
        with pytest.raises(ValueError):
            operator_matrix(s, 4)


class TestInnerProductAndEnergy:
    def test_ones(self, grid):
        assert inner_product(np.ones(64), np.ones(64), grid) == pytest.approx(1.0, abs=1e-15)

    def test_sin_cos_orthogonal(self, grid):
        u = np.sin(2 * np.pi * 3 * grid.x)
        v = np.cos(2 * np.pi * 3 * grid.x)
        assert abs(inner_product(u, v, grid)) < 1e-14

    def test_skew_adjointness_identity(self, grid, rng):
        s = random_skew_stencil(rng, 3, grid.dx)
        for _ in range(5):
            u = rng.normal(size=grid.N)
            v = rng.normal(size=grid.N)
            left = inner_product(apply_stencil(s, u, grid), v, grid)
            right = -inner_product(u, apply_stencil(s, v, grid), grid)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_mismatch(self, grid):
        with pytest.raises(ValueError):
            inner_product(np.ones(64), np.ones(32), grid)

    def test_zero_fields(self, grid):
        assert discrete_energy(FieldPair(np.zeros(64), np.zeros(64)), grid) == 0.0

    def test_single_mode_energy(self, grid):
        f = FieldPair(np.sin(2 * np.pi * grid.x), np.cos(2 * np.pi * grid.x))
        assert discrete_energy(f, grid) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_scaling(self, grid, rng):
        f = FieldPair(rng.normal(size=64), rng.normal(size=64))
        doubled = FieldPair(2 * f.E, 2 * f.H)
        assert discrete_energy(doubled, grid) == pytest.approx(4 * discrete_energy(f, grid), rel=1e-13)

    def test_energy_grid_mismatch(self, grid):
        with pytest.raises(ValueError):
            discrete_energy(FieldPair(np.zeros(32), np.zeros(32)), grid)


class TestCenteredDifference:
    def test_n64(self, grid):
        assert np.array_equal(centered_difference_stencil(grid).w, [-32.0, 0.0, 32.0])

    def test_n128(self):
        s = centered_difference_stencil(Grid1D(N=128))
        assert np.array_equal(s.w, [-64.0, 0.0, 64.0])

    def test_always_skew(self):
        for N in (8, 64, 100):
            assert centered_difference_stencil(Grid1D(N=N)).is_skew()


class TestSkewEquivalence:
    """The skew constraints hold exactly when the operator matrix is skew-symmetric."""

    def test_both_directions(self, rng):
        from stencil_lab.regression import build_skew_constraints

        for R in (1, 2, 3):
            cs = build_skew_constraints(R)
            for _ in range(10):
                w = rng.normal(size=2 * R + 1)
                s = Stencil(w, 1.0)
                D = operator_matrix(s, 16)
                matrix_skew = np.array_equal(D.T, -D)
                constraint_ok = cs.residual(w) <= 1e-15
                assert matrix_skew == constraint_ok
                # skew-symmetrized version always satisfies both
                w_sym = 0.5 * (w - w[::-1])
                D_sym = operator_matrix(Stencil(w_sym, 1.0), 16)
                assert np.array_equal(D_sym.T, -D_sym)
                assert cs.residual(w_sym) == 0.0

    def test_energy_derivative_identity(self, grid, rng):
        for R in (1, 2, 4):
            s = random_skew_stencil(rng, R, grid.dx)
            E = rng.normal(size=grid.N)
            H = rng.normal(size=grid.N)
            total = inner_product(apply_stencil(s, H, grid), E, grid) + inner_product(
                apply_stencil(s, E, grid), H, grid
            )
            scale = abs(inner_product(apply_stencil(s, H, grid), E, grid)) + 1.0
            assert abs(total) <= 1e-12 * scale


class TestStencilSerialization:
    def test_roundtrip(self, tmp_path, rng):
        s = random_skew_stencil(rng, 2, 1.0 / 128.0)
        path = tmp_path / "stencil.json"
        save_stencil(s, path)
        data = json.loads(path.read_text())
        assert set(data) == {"R", "w", "dx"}
        assert data["R"] == 2
        loaded = load_stencil(path)
        assert np.array_equal(loaded.w, s.w)
        assert loaded.dx == s.dx

    def test_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"R": 2, "w": [1.0, 0.0, -1.0], "dx": 0.1}))
        with pytest.raises(ValueError):
            load_stencil(path)

    @pytest.mark.parametrize("data", [{"w": [1.0, 0.0, -1.0]}, {"R": 1, "dx": 0.1}, [1.0, 0.0, -1.0]])
    def test_malformed_file_rejected(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_stencil(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            Stencil(np.array([1.0, 2.0]), 0.1)  # even length
        with pytest.raises(ValueError):
            Stencil(np.array([1.0, np.nan, 1.0]), 0.1)
        with pytest.raises(ValueError):
            Stencil(np.array([1.0, 0.0, -1.0]), -0.1)
