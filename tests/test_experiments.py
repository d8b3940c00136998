import csv
import json
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stencil_lab
from stencil_lab import experiments
from stencil_lab.core import NumericalError, Stencil, centered_difference_stencil, load_stencil
from stencil_lab.experiments import (
    DEFAULT_SEED,
    EXPERIMENT_NAMES,
    PRESETS,
    ExperimentConfig,
    RunDir,
    default_training_config,
    dispersion_csvs,
    learn_stencil,
    merge,
    nonstandard_target,
    run_experiment,
    run_noisy,
    run_nonstandard,
    run_table1,
)
from stencil_lab.regression import build_skew_constraints
from stencil_lab.simulate import simulate, single_mode_initial_condition

from oracles import operator_matrix


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
    assert len(calls) == 10  # the exact stencil, then one per solver, each at dt and at 2 dt


class TestDeterminism:
    def test_byte_identical_data_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_table1(ExperimentConfig(name="table1", output_dir=a))
        run_table1(ExperimentConfig(name="table1", output_dir=b))
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
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
        w_cd4 = centered_difference_stencil(grid, 2)
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

    def test_max_cn_amplification(self, noisy):
        _, report = noisy
        runs = report["runs"]
        assert abs(runs["centered"]["max_cn_amplification"] - 1.0) <= 1e-12
        assert abs(runs["constrained_qp"]["max_cn_amplification"] - 1.0) <= 1e-12
        assert runs["unconstrained_ls"]["max_cn_amplification"] > 1.0

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
        cfg = merge(ExperimentConfig(name="noisy", output_dir=tmp_path / "out"), {"training": {"noise_std": 0}})
        with pytest.raises(ValueError, match=r"^noisy experiment needs training\.noise_std > 0$"):
            run_noisy(cfg)
        assert not (tmp_path / "out").exists()


class TestEnergyAndDispersion:
    def test_energy_drifts(self, table1):
        cfg, report = table1
        for label, drift in report["relative_energy_drift"].items():
            assert drift <= 1e-10, label
        assert (cfg.output_dir / "energy_exact_fd.csv").exists()
        assert (cfg.output_dir / "energy_admm_dt2x.csv").exists()

    def test_dispersion(self, table1):
        cfg, report = table1
        assert set(report["max_amplification_error"]) == {"exact_fd", "admm"}
        for err in report["max_amplification_error"].values():
            assert err <= 1e-13
        for name in ("dispersion_admm.csv", "symbol_admm.csv", "dispersion_exact_fd.csv", "symbol_exact_fd.csv"):
            assert (cfg.output_dir / name).exists()

    def test_admm_curves_are_those_of_its_stencil_file(self, table1, tmp_path):
        cfg, _ = table1
        stencil = load_stencil(cfg.output_dir / "stencil_admm.json")
        dispersion_csvs(RunDir(tmp_path), stencil, cfg.dt_ratio * stencil.dx, 512, "_admm")
        for name in ("dispersion_admm.csv", "symbol_admm.csv"):
            assert (cfg.output_dir / name).read_bytes() == (tmp_path / name).read_bytes()


class TestRadius3:
    """table1's rows and dispersion curves compare against the centered
    difference of the configured radius, here the sixth-order one."""

    @pytest.fixture(scope="class")
    def table1_r3(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("table1_r3")
        return out, run_table1(ExperimentConfig(name="table1", radius=3, output_dir=out))

    def test_table1(self, table1_r3, grid):
        _, report = table1_r3
        exact = report["rows"][0]
        assert exact["method"] == "exact_fd" and exact["r_eq"] == 0.0
        assert [exact[f"w_{l:+d}" if l else "w_0"] for l in range(-3, 4)] == list(centered_difference_stencil(grid, 3).w)
        assert all(row["status"] == "ok" for row in report["rows"])

    def test_dispersion(self, table1_r3, tmp_path, grid):
        out, _ = table1_r3
        dispersion_csvs(RunDir(tmp_path), centered_difference_stencil(grid, 3), 0.5 * grid.dx, 512, "_sixth")
        assert (out / "symbol_exact_fd.csv").read_bytes() == (tmp_path / "symbol_sixth.csv").read_bytes()


class TestSolverBench:
    def test_assertions_hold(self, table1):
        cfg, report = table1
        assert report["nag_reaches_pg_final_at_iteration"] < report["pg_iterations"]
        assert report["admm_first_iterate_objective"] <= report["nag_20th_iterate_objective"]
        assert abs(report["admm_first_iterate_relative_gap"]) <= 1e-6
        assert report["nag_non_monotone_steps"] >= 1
        for method in ("pg", "nag", "admm", "reference"):
            assert (cfg.output_dir / f"trace_{method}.csv").exists()

    def test_failed_solve_skips_the_comparison(self, tmp_path, monkeypatch):
        real_solve = experiments.solve

        def solve(method, *args):
            if method == "NAG":
                raise NumericalError("NAG diverged")
            return real_solve(method, *args)

        monkeypatch.setattr(experiments, "solve", solve)
        report = run_table1(ExperimentConfig(name="table1", output_dir=tmp_path))
        rows = {row["method"]: row for row in report["rows"]}
        assert rows["nag"]["status"] == "failed: NAG diverged"
        assert all(rows[m]["status"] == "ok" for m in ("exact_fd", "pg", "admm", "reference"))
        assert set(report) == {"rows", "system_shape", "relative_energy_drift", "max_amplification_error", "n_steps", "dt_ratio"}
        assert not (tmp_path / "energy_nag.csv").exists()


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_manifest_lists_exactly_the_written_files(name, tmp_path):
    run_experiment(ExperimentConfig(name=name, output_dir=tmp_path, resolutions=(32, 64), t_final=1.0))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert manifest["solves"]
    assert all(s["stop_reason"] in ("tol", "max_iters", "exact") for s in manifest["solves"].values())


def test_manifest_version_is_the_pyproject_version(table1):
    tomllib = pytest.importorskip("tomllib")
    version = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]["version"]
    cfg, _ = table1
    assert stencil_lab.__version__ == version
    assert json.loads((cfg.output_dir / "manifest.json").read_text())["version"] == version


_FLOATS = st.floats(allow_nan=False, width=64)
_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(), st.none())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=8), max_size=8))
@example([[0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7e308, -1.7e308]])
@example([[np.float64(-0.0), np.float64(-5e-324), np.float64(1.7e308), 64, -3, None], [None]])
def test_csv_cells_read_back_exactly(rows):
    """RunDir.write_csv: floats read back bit for bit, ints as ints and
    None as an empty cell."""
    with tempfile.TemporaryDirectory() as root:
        run = RunDir(root)
        header = [f"c{k}" for k in range(8)]
        run.write_csv("cells.csv", header, rows)
        with open(run.root / "cells.csv", newline="") as fh:
            back = list(csv.reader(fh))
    assert back[0] == header and len(back) == len(rows) + 1
    for cells, texts in zip(rows, back[1:]):
        assert len(texts) == len(cells)
        for v, text in zip(cells, texts):
            if v is None:
                assert text == ""
            elif isinstance(v, int):
                assert text == str(v) and int(text) == v
            else:
                assert struct.pack("<d", float(text)) == struct.pack("<d", v)


def test_run_dir_is_made_at_the_first_write(tmp_path):
    run = RunDir(tmp_path / "a" / "b", command="test")
    assert not (tmp_path / "a").exists()
    run.finish()
    assert json.loads((tmp_path / "a" / "b" / "manifest.json").read_text())["command"] == "test"


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_common_data = {
    "training": st.fixed_dictionaries({
        "n_sims": st.integers(1, 10_000),
        "m_max": st.integers(1, 5),
        "grid": st.fixed_dictionaries({"N": st.integers(12, 1 << 20), "L": _finite(1e-6, 1e6)}),
        "seed": st.integers(0, 2**63),
        "noise_std": _finite(0.0, 1e3),
    }),
    "lam": _finite(0.0, 1.0),
    "box_bound": _finite(1e-3, 1e9),
    "solver_opts": st.fixed_dictionaries({
        "max_iters": st.none() | st.integers(1, 10_000),
        "tol": _finite(1e-16, 1.0),
        "rho": _finite(1e-6, 1e3),
    }),
    "output_dir": st.text("ab_-/.", min_size=1, max_size=12),
}
_preset_data = {
    "radius": st.none() | st.integers(1, 8),
    "dt_ratio": st.none() | _finite(1e-3, 10.0),
    "n_steps": st.integers(0, 10_000),
    "snapshot_every": st.integers(1, 100),
    "resolutions": st.lists(st.integers(3, 4096), max_size=5),
    "t_final": _finite(1e-3, 1e3),
}
# a preset's name with its common settings and the others it reads
_config_data = st.sampled_from(EXPERIMENT_NAMES).flatmap(lambda name: st.fixed_dictionaries({
    "name": st.just(name),
    **_common_data,
    **{key: _preset_data[key] for key in PRESETS[name][1] if key != "training"},
}))


class TestConfig:
    @settings(max_examples=60, deadline=None)
    @given(data=_config_data)
    def test_roundtrip(self, data):
        cfg = ExperimentConfig.from_dict(data)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert asdict(clone) == asdict(cfg)
        assert clone.training.grid.N == data["training"]["grid"]["N"]
        if data["name"] == "convergence":
            assert clone.resolutions == tuple(data["resolutions"])
        assert set(cfg.to_dict()) == set(data)

    # (radius, dt_ratio, training.noise_std) each preset runs with by default;
    # a setting the preset does not read stays None: nonstandard learns its
    # radius-2 target
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_preset_defaults(self, name):
        expected = {
            "table1": (1, 0.5, 0.0),
            "convergence": (1, 0.2, 0.0),
            "nonstandard": (None, 0.5, 0.0),
            "noisy": (3, 0.5, 0.05),
        }[name]
        cfg = ExperimentConfig(name=name)
        assert (cfg.radius, cfg.dt_ratio, cfg.training.noise_std) == expected
        unset = {key: None for key in ("radius", "dt_ratio") if key in cfg.settings()}
        assert ExperimentConfig.from_dict({"name": name, **unset}).to_dict() == cfg.to_dict()

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

    @pytest.mark.parametrize("changes, message", [
        ({"n_steps": 12.5}, "n_steps: invalid value 12.5 (expected int)"),
        ({"n_steps": True}, "n_steps: invalid value True (expected int)"),
        ({"lam": "small"}, "lam: invalid value 'small' (expected float)"),
        ({"resolutions": [64, 128.5]}, "resolutions: invalid value [64, 128.5] (expected tuple[int, ...])"),
        ({"output_dir": 3}, "output_dir: invalid value 3 (expected Path)"),
        ({"training": {"grid": {"N": "64"}}}, "training.grid.N: invalid value '64' (expected int)"),
        ({"solver_opts": {"max_iters": 2.0}}, "solver_opts.max_iters: invalid value 2.0 (expected int | None)"),
    ])
    def test_merge_rejects_wrong_scalar_type(self, changes, message):
        with pytest.raises(ValueError) as info:
            merge(ExperimentConfig(name="table1"), changes)
        assert str(info.value) == f"config key {message}"

    def test_merge_accepts_json_forms_of_field_types(self):
        changes = {"lam": 1, "resolutions": [32, 64], "output_dir": "out", "dt_ratio": 2, "solver_opts": {"max_iters": None}}
        cfg = merge(ExperimentConfig(name="convergence"), changes)
        assert (cfg.lam, cfg.resolutions, cfg.output_dir) == (1, (32, 64), Path("out"))
        assert (cfg.solver_opts.max_iters, cfg.dt_ratio) == (None, 2)
        # an int given for a float (or float | None) field is stored as a float
        assert (type(cfg.lam), type(cfg.dt_ratio), type(cfg.resolutions[0])) == (float, float, int)

    def test_unknown_keys_rejected(self):
        data = ExperimentConfig(name="table1").to_dict()
        data["foo"] = 1
        data["training"]["bar"] = 2
        data["solver_opts"]["enforce_box"] = False  # recorded by older manifests
        with pytest.raises(ValueError, match="foo, training.bar, solver_opts.enforce_box"):
            ExperimentConfig.from_dict(data)

    def test_merge_refuses_a_new_name(self):
        # the old preset's resolved defaults would carry over: radius 1 and clean data for noisy
        with pytest.raises(ValueError, match=r"^cannot rename experiment table1 to noisy; build the config from the new name$"):
            merge(ExperimentConfig(name="table1"), {"name": "noisy"})
        assert merge(ExperimentConfig(name="noisy"), {"name": "noisy", "n_steps": 10}).radius == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="warp-drive")

    def test_run_experiment_dispatch(self, tmp_path):
        cfg = ExperimentConfig(name="nonstandard", output_dir=tmp_path / "d2")
        report = run_experiment(cfg)
        assert "relative_error_learned" in report

    def test_learn_stencil_helper(self, training_set):
        stencil, report = learn_stencil(training_set, R=1, method="admm")
        assert stencil.R == 1
        assert stencil.dx == training_set.config.grid.dx
        assert report.method == "ADMM"
