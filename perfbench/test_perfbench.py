"""The benchmark's own test: tiny-size runs print every named metric with
its unit, and the failure accounting flags a wrong solve and a wrong
stencil.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from stencil_lab import core, regression, simulate, training  # noqa: E402
from stencil_lab.experiments import default_training_config  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def small_system():
    cfg = default_training_config(seed=7)
    ts = training.generate_training_set(training.TrainingConfig(n_sims=20, m_max=5, grid=cfg.grid, seed=7))
    return regression.assemble_regression(ts, R=2)


def test_oracle_solves_the_reduced_system(small_system):
    w_star = checks.oracle_solution(small_system)
    assert checks.skew_residual(w_star) == 0.0
    H = small_system.gram + small_system.lam * np.eye(small_system.n_coeffs)
    grad = H @ w_star - small_system.atb
    # stationary along every skew direction e_{+l} - e_{-l}
    R = small_system.R
    for l in range(1, R + 1):
        assert abs(grad[R + l] - grad[R - l]) <= 1e-6 * np.max(np.abs(small_system.atb))


def test_failure_accounting_flags_a_wrong_solve(small_system):
    tally = checks.Tally()
    w_star = checks.oracle_solution(small_system)
    assert checks.check_solve(tally, "ref", w_star, w_star.copy(), None)
    assert not checks.check_solve(tally, "admm", w_star, w_star * (1 + 1e-4), None)
    not_skew = w_star.copy()
    not_skew[small_system.R] = 1e-6
    assert not checks.check_solve(tally, "ref", w_star, not_skew, None)
    assert not checks.check_solve(tally, "ref", w_star, None, "cycled")
    assert (tally.total_attempted, tally.total_failed) == (4, 3)
    assert tally.invariants_hold  # solver accuracy is counted, it does not void the run


def test_failure_accounting_flags_a_wrong_stencil():
    grid = core.Grid1D(N=64)
    wrong = core.Stencil(w=np.array([-1.0, 0.0, 1.1]) / (2 * grid.dx), dx=grid.dx)  # not skew
    cfg = simulate.SimConfig(dt=0.5 * grid.dx, n_steps=50, grid=grid, stencil=wrong)
    tally = checks.Tally()
    result = simulate.simulate(simulate.single_mode_initial_condition(grid), cfg)
    assert not checks.check_simulation(tally, "dense", result)
    assert tally.total_failed == 1 and not tally.invariants_hold
