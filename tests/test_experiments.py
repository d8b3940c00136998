import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencil_lab import experiments
from stencil_lab.core import Stencil, operator_matrix
from stencil_lab.experiments import (
    DEFAULT_SEED,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    default_training_config,
    fourth_order_centered_difference,
    learn_stencil,
    merge,
    nonstandard_target,
    run_dispersion,
    run_energy,
    run_experiment,
    run_noisy,
    run_nonstandard,
    run_solver_bench,
    run_table1,
)
from stencil_lab.regression import build_skew_constraints
from stencil_lab.simulate import simulate, single_mode_initial_condition


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    cfg = ExperimentConfig(name="table1", output_dir=out)
    return cfg, run_table1(cfg)


class TestTable1:
    def test_rows_and_files(self, table1):
        cfg, report = table1
        rows = {row["method"]: row for row in report["rows"]}
        assert set(rows) == {"exact_fd", "pg", "nag", "admm", "reference"}
        assert all(row["status"] == "ok" for row in rows.values())
        assert rows["exact_fd"]["err"] == 0.0
        assert rows["exact_fd"]["r_eq"] == 0.0
        for method in ("pg", "nag", "admm", "reference"):
            assert rows[method]["r_eq"] <= 1e-8
            assert abs(rows[method]["w_+1"] - 32.0) / 32.0 <= 0.05
            assert rows[method]["w_+1"] == pytest.approx(-rows[method]["w_-1"], abs=1e-8)
        for name in ("table1.csv", "manifest.json", "report.json", "stencil_admm.json", "trace_pg.csv"):
            assert (cfg.output_dir / name).exists()

    def test_manifest_contents(self, table1):
        cfg, _ = table1
        manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "table1"
        assert manifest["seed"] == DEFAULT_SEED
        assert manifest["config"]["training"]["n_sims"] == 200
        assert "table1.csv" in manifest["outputs"]

    def test_csv_parses(self, table1):
        cfg, report = table1
        with open(cfg.output_dir / "table1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        by_method = {r["method"]: r for r in rows}
        assert float(by_method["admm"]["w_+1"]) == pytest.approx(
            next(r for r in report["rows"] if r["method"] == "admm")["w_+1"]
        )


def test_table1_runs_each_stencil_once(tmp_path, monkeypatch):
    calls = []

    def counting(init, cfg, *args, **kwargs):
        calls.append(cfg.stencil.w)
        return simulate(init, cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", counting)
    run_table1(ExperimentConfig(name="table1", output_dir=tmp_path))
    assert len(calls) == 5  # the exact stencil, then one per solver


class TestDeterminism:
    def test_byte_identical_data_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_table1(ExperimentConfig(name="table1", output_dir=a))
        run_table1(ExperimentConfig(name="table1", output_dir=b))
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()
        # trace CSVs carry wall-clock columns and are not compared

    def test_noisy_energy_outputs_identical(self, tmp_path):
        a = tmp_path / "na"
        b = tmp_path / "nb"
        run_noisy(ExperimentConfig(name="noisy", output_dir=a))
        run_noisy(ExperimentConfig(name="noisy", output_dir=b))
        assert (a / "energy_unconstrained_ls.csv").read_bytes() == (b / "energy_unconstrained_ls.csv").read_bytes()


class TestNonstandard:
    def test_target_properties(self, grid):
        w_star = nonstandard_target(grid)
        cs = build_skew_constraints(2)
        assert cs.residual(w_star.w) == 0.0
        D = operator_matrix(w_star, grid.N)
        assert np.array_equal(D.T, -D)
        w_cd4 = fourth_order_centered_difference(grid)
        assert np.linalg.norm(w_star.w - w_cd4.w) > 0.1 * np.linalg.norm(w_star.w)

    def test_recovery(self, tmp_path):
        cfg = ExperimentConfig(name="nonstandard", output_dir=tmp_path / "ns")
        report = run_nonstandard(cfg)
        assert report["relative_error_learned"] <= 1e-6
        assert report["relative_error_centered4"] >= 100 * report["relative_error_learned"]
        for drift in report["relative_energy_drift"].values():
            assert drift <= 1e-10
        for label in ("target", "learned", "centered4"):
            assert (cfg.output_dir / f"final_field_{label}.csv").exists()
            assert (cfg.output_dir / f"energy_{label}.csv").exists()


@pytest.fixture(scope="module")
def noisy(tmp_path_factory):
    out = tmp_path_factory.mktemp("noisy")
    cfg = ExperimentConfig(name="noisy", output_dir=out)
    return cfg, run_noisy(cfg)


class TestNoisy:
    def test_unconstrained_blows_up(self, noisy):
        _, report = noisy
        ls = report["runs"]["unconstrained_ls"]
        assert ls["status"] == "ok"
        assert ls["constraint_residual"] > 0.1
        assert ls["energy_ratio"] >= 10.0

    def test_unconstrained_blows_up_on_spectral_engine_too(self, noisy):
        cfg, report = noisy
        ls = Stencil(np.array(report["runs"]["unconstrained_ls"]["coefficients"]), cfg.training.grid.dx)
        result = simulate(single_mode_initial_condition(cfg.training.grid), cfg.sim_config(ls), engine="spectral")
        assert result.energy_series[-1] / result.energy_series[0] >= 10.0

    def test_constrained_stays_stable(self, noisy):
        _, report = noisy
        qp = report["runs"]["constrained_qp"]
        assert qp["constraint_residual"] <= 1e-10
        assert qp["relative_energy_drift"] <= 1e-8
        assert report["constrained_vs_clean_centered_error"] <= 0.05

    def test_conditioning_reported(self, noisy):
        _, report = noisy
        assert report["ls_gram_condition"] > 1.0

    def test_outputs(self, noisy):
        cfg, _ = noisy
        for label in ("centered", "unconstrained_ls", "constrained_qp"):
            for prefix in ("energy", "final_field", "spacetime"):
                assert (cfg.output_dir / f"{prefix}_{label}.csv").exists()

    def test_manifest_records_capped_solve(self, noisy):
        cfg, report = noisy
        manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
        assert manifest["solves"] == {"constrained_qp": {"method": "ADMM", "iterations": 100, "stop_reason": "max_iters"}}
        assert "solves" not in report

    def test_requires_positive_sigma(self, tmp_path):
        cfg = ExperimentConfig(name="noisy", noisy_sigma=0.0, output_dir=tmp_path)
        with pytest.raises(ValueError):
            run_noisy(cfg)


class TestEnergyAndDispersion:
    def test_energy_drifts(self, tmp_path):
        cfg = ExperimentConfig(name="energy", output_dir=tmp_path / "energy")
        report = run_energy(cfg)
        for label, drift in report["relative_energy_drift"].items():
            assert drift <= 1e-10, label
        assert (cfg.output_dir / "energy_exact_fd.csv").exists()
        assert (cfg.output_dir / "energy_admm_dt2x.csv").exists()

    def test_dispersion(self, tmp_path):
        cfg = ExperimentConfig(name="dispersion", output_dir=tmp_path / "disp")
        report = run_dispersion(cfg)
        for err in report["max_amplification_error"].values():
            assert err <= 1e-13
        assert (cfg.output_dir / "dispersion_learned.csv").exists()
        assert (cfg.output_dir / "symbol_centered.csv").exists()


class TestSolverBench:
    def test_assertions_hold(self, tmp_path):
        cfg = ExperimentConfig(name="solver_bench", output_dir=tmp_path / "bench")
        report = run_solver_bench(cfg)
        assert report["nag_reaches_pg_final_at_iteration"] < report["pg_iterations"]
        assert report["admm_first_iterate_objective"] <= report["nag_20th_iterate_objective"]
        assert abs(report["admm_first_iterate_relative_gap"]) <= 1e-6
        assert report["nag_non_monotone_steps"] >= 1
        for method in ("pg", "nag", "admm", "reference"):
            assert (cfg.output_dir / f"trace_{method}.csv").exists()


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_manifest_lists_exactly_the_written_files(name, tmp_path):
    run_experiment(ExperimentConfig(name=name, output_dir=tmp_path, resolutions=(32, 64), t_final=1.0))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert manifest["solves"]
    assert all(s["stop_reason"] in ("tol", "max_iters", "exact") for s in manifest["solves"].values())


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_config_data = st.fixed_dictionaries({
    "name": st.sampled_from(EXPERIMENT_NAMES),
    "training": st.fixed_dictionaries({
        "n_sims": st.integers(1, 10_000),
        "m_max": st.integers(1, 5),
        "grid": st.fixed_dictionaries({"N": st.integers(12, 1 << 20), "L": _finite(1e-6, 1e6)}),
        "seed": st.integers(0, 2**63),
        "amplitude_std": _finite(1e-6, 1e3),
        "noise_std": _finite(0.0, 1e3),
    }),
    "radius": st.integers(1, 8),
    "lam": _finite(0.0, 1.0),
    "box_bound": _finite(1e-3, 1e9),
    "solver_opts": st.fixed_dictionaries({
        "max_iters": st.none() | st.integers(1, 10_000),
        "tol": _finite(1e-16, 1.0),
        "rho": _finite(1e-6, 1e3),
        "step": st.none() | _finite(1e-9, 1e3),
    }),
    "n_steps": st.integers(0, 10_000),
    "resolutions": st.lists(st.integers(3, 4096), max_size=5),
    "t_final": _finite(1e-3, 1e3),
    "noisy_sigma": _finite(0.0, 1.0),
    "output_dir": st.text("ab_-/.", min_size=1, max_size=12),
})


class TestConfig:
    @settings(max_examples=60, deadline=None)
    @given(data=_config_data)
    def test_roundtrip(self, data):
        cfg = ExperimentConfig.from_dict(data)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert asdict(clone) == asdict(cfg)
        assert clone.training.grid.N == data["training"]["grid"]["N"]
        assert clone.resolutions == tuple(data["resolutions"])

    def test_merge_keeps_nested_defaults(self):
        cfg = merge(ExperimentConfig(name="table1"), {"training": {"grid": {"N": 128}}, "radius": 2})
        assert (cfg.training.grid.N, cfg.training.grid.L, cfg.training.n_sims, cfg.radius) == (128, 1.0, 200, 2)

    def test_merge_names_full_dotted_path(self):
        with pytest.raises(ValueError, match=r"^unknown config key\(s\): training\.grid\.M, training\.grid\.dx$"):
            merge(ExperimentConfig(name="table1"), {"training": {"grid": {"M": 1, "N": 32, "dx": 0.1}}})

    @pytest.mark.parametrize("changes, path", [
        ({"training": 5}, "training"),
        ({"training": {"grid": [64, 1.0]}}, "training.grid"),
        ({"solver_opts": None}, "solver_opts"),
    ])
    def test_merge_rejects_non_object_for_nested_config(self, changes, path):
        with pytest.raises(ValueError, match=rf"^config key {path} must be an object"):
            merge(ExperimentConfig(name="table1"), changes)

    def test_unknown_keys_rejected(self):
        data = ExperimentConfig(name="table1").to_dict()
        data["foo"] = 1
        data["training"]["bar"] = 2
        data["solver_opts"]["enforce_box"] = False  # recorded by older manifests
        with pytest.raises(ValueError, match="foo, training.bar, solver_opts.enforce_box"):
            ExperimentConfig.from_dict(data)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="warp-drive")

    def test_run_experiment_dispatch(self, tmp_path):
        cfg = ExperimentConfig(name="dispersion", output_dir=tmp_path / "d2")
        report = run_experiment(cfg)
        assert "max_amplification_error" in report

    def test_learn_stencil_helper(self, training_set):
        stencil, report = learn_stencil(training_set, R=1, method="admm")
        assert stencil.R == 1
        assert stencil.dx == training_set.config.grid.dx
        assert report.method == "ADMM"
