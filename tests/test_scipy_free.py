"""The package runs on numpy alone: its FFTs and circulant matrices are
bit-identical to the scipy forms they replace, and importing it and
running it, the dense CN engine and every solver included, leaves scipy
unloaded. The tests' full DFT oracle (oracles.real_fft) is pinned to
scipy's here too, and modal_energies, which works on the rfft modes, to
scipy's ortho energies with each mode's conjugate twin folded onto it."""

import subprocess
import sys

import numpy as np
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stencil_lab.analysis import modal_energies
from stencil_lab.core import FieldPair, Grid1D, Stencil, circulant
from stencil_lab.training import spectral_derivative

from oracles import operator_matrix, real_fft

_N = st.integers(3, 4097)
_SCALE = st.floats(-8.0, 8.0)  # log10 of the vector's scale
_SEED = st.integers(0, 2**32 - 1)


def _vector(seed, N, scale):
    return np.random.default_rng(seed).normal(size=N) * 10.0 ** scale


class TestBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(N=_N, scale=_SCALE, seed=_SEED)
    def test_real_fft_matches_scipy(self, N, scale, seed):
        u = _vector(seed, N, scale)
        assert np.array_equal(real_fft(u), scipy.fft.fft(u))
        assert np.array_equal(real_fft(u, ortho=True), scipy.fft.fft(u, norm="ortho"))

    @settings(max_examples=100, deadline=None)
    @given(N=_N, scale=_SCALE, seed=_SEED, length=st.floats(0.1, 10.0))
    def test_spectral_derivative_matches_scipy(self, N, scale, seed, length):
        grid = Grid1D(N=N, L=length)
        u = _vector(seed, N, scale)
        mult = 1j * 2.0 * np.pi * scipy.fft.rfftfreq(N, d=grid.dx)
        if N % 2 == 0:
            mult[-1] = 0.0
        assert np.array_equal(spectral_derivative(u, grid), scipy.fft.irfft(mult * scipy.fft.rfft(u), n=N))

    @settings(max_examples=50, deadline=None)
    @given(N=_N, scale=_SCALE, seed=_SEED)
    def test_modal_energies_match_scipy_ortho(self, N, scale, seed):
        grid = Grid1D(N=N)
        E, H = _vector(seed, N, scale), _vector(seed + 1, N, scale)
        Ef, Hf = scipy.fft.fft(E, norm="ortho"), scipy.fft.fft(H, norm="ortho")
        full = 0.5 * grid.dx * (np.abs(Ef) ** 2 + np.abs(Hf) ** 2)
        # entry j folds onto rfft mode min(j, N - j): mode k holds entry k plus its conjugate twin's, entry N - k
        j = np.arange(N)
        expected = np.zeros(N // 2 + 1)
        np.add.at(expected, np.minimum(j, N - j), full)
        assert np.array_equal(modal_energies(FieldPair(E, H), grid), expected)

    @settings(max_examples=60, deadline=None)
    @given(R=st.integers(1, 6), extra=st.integers(0, 250), scale=_SCALE, seed=_SEED)
    def test_operator_matrix_matches_circulant(self, R, extra, scale, seed):
        N = 2 * R + 1 + extra
        stencil = Stencil(_vector(seed, 2 * R + 1, scale), 1.0 / N)
        col = np.zeros(N)
        col[0] = stencil.w[R]
        for l in range(1, R + 1):
            col[l] = stencil.w[R - l]
            col[N - l] = stencil.w[R + l]
        assert np.array_equal(operator_matrix(stencil, N), scipy.linalg.circulant(col))

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 4097), scale=_SCALE, seed=_SEED)
    def test_circulant_matches_scipy(self, N, scale, seed):
        col = _vector(seed, N, scale)
        assert np.array_equal(circulant(col), scipy.linalg.circulant(col))


_CHILD = """
import importlib, pkgutil, sys
from pathlib import Path

import stencil_lab
from stencil_lab import cli
from stencil_lab.core import Grid1D, centered_difference_stencil
from stencil_lab.experiments import RunDir

for module in pkgutil.iter_modules(stencil_lab.__path__):
    importlib.import_module("stencil_lab." + module.name)
out = Path(sys.argv[2])
RunDir(out).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
assert cli.main(["gen-data", "--out", str(out / "data"), "--n-sims", "2"]) == 0
assert cli.main(["dispersion", "--stencil", str(out / "s.json"), "--out", str(out / "disp")]) == 0
assert "scipy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))

if sys.argv[1] == "dense":
    from stencil_lab.simulate import SimConfig, simulate, single_mode_initial_condition
    grid = Grid1D(N=64)
    cfg = SimConfig(dt=0.5 * grid.dx, n_steps=3, grid=grid, stencil=centered_difference_stencil(grid))
    result = simulate(single_mode_initial_condition(grid), cfg, engine="dense")
    assert abs(result.energy_series[-1] - result.energy_series[0]) <= 1e-13
    assert "scipy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))
else:
    from stencil_lab.experiments import default_training_config
    from stencil_lab.regression import assemble_regression, build_skew_constraints
    from stencil_lab.solvers import ADMM, solve
    from stencil_lab.training import generate_training_set
    ts = generate_training_set(default_training_config())
    report = solve(ADMM, assemble_regression(ts, R=1), build_skew_constraints(1))
    assert report.stop_reason == "tol", report.stop_reason
    assert cli.main(["learn", "--method", "admm", "--data", str(out / "data" / "training_data.npz"),
                     "--out", str(out / "learn")]) == 0
    assert "scipy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))
print("ok")
"""


class TestImportGuard:
    def _run(self, engine, out):
        proc = subprocess.run([sys.executable, "-c", _CHILD, engine, str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "ok"

    def test_cli_and_dense_engine_run_without_scipy(self, tmp_path):
        self._run("dense", tmp_path)

    def test_admm_runs_without_scipy(self, tmp_path):
        self._run("admm", tmp_path)
