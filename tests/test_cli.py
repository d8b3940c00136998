import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from stencil_lab.core import Grid1D, Stencil, centered_difference_stencil, save_stencil


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stencil_lab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestPipeline:
    def test_gen_data(self, workdir):
        proc = run_cli("gen-data", "--out", str(workdir), "--n-sims", "40", "--seed", "9")
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "training_data.npz").exists()

    def test_learn_from_saved_data(self, workdir):
        proc = run_cli(
            "learn", "--method", "admm",
            "--data", str(workdir / "training_data.npz"),
            "--out", str(workdir / "learned"),
        )
        assert proc.returncode == 0, proc.stderr
        stencil = json.loads((workdir / "learned" / "stencil.json").read_text())
        assert stencil["R"] == 1
        assert abs(stencil["w"][2] - 32.0) / 32.0 < 0.05
        assert (workdir / "learned" / "trace.csv").exists()
        assert (workdir / "learned" / "diagnostics.json").exists()
        assert json.loads((workdir / "learned" / "solver_report.json").read_text())["stop_reason"] == "tol"
        assert "warning" not in proc.stderr

    def test_learn_warns_at_iteration_cap(self, workdir):
        proc = run_cli(
            "learn", "--method", "nag", "--max-iters", "5",
            "--data", str(workdir / "training_data.npz"),
            "--out", str(workdir / "learned_nag"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "warning: NAG stopped at its iteration cap (5)" in proc.stderr
        report = json.loads((workdir / "learned_nag" / "solver_report.json").read_text())
        assert report["stop_reason"] == "max_iters"

    def test_simulate(self, workdir):
        proc = run_cli(
            "simulate", "--stencil", str(workdir / "learned" / "stencil.json"),
            "--out", str(workdir / "sim"), "--steps", "50", "--snapshot-every", "10",
        )
        assert proc.returncode == 0, proc.stderr
        with open(workdir / "sim" / "energy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        drift = max(abs(float(r["energy_minus_initial"])) for r in rows)
        assert drift <= 1e-11
        assert (workdir / "sim" / "spacetime.csv").exists()

    def test_dispersion(self, workdir):
        proc = run_cli(
            "dispersion", "--stencil", str(workdir / "learned" / "stencil.json"),
            "--out", str(workdir / "disp"),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((workdir / "disp" / "report.json").read_text())
        assert report["max_amplification_error"] <= 1e-13
        assert report["cfl_bound"] == pytest.approx(2.0 / report["c_max"])

    def test_converge_small(self, workdir):
        proc = run_cli(
            "converge", "--out", str(workdir / "conv"),
            "--resolutions", "32,64", "--t-final", "1", "--n-sims", "40",
        )
        assert proc.returncode == 0, proc.stderr
        with open(workdir / "conv" / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["error"]) < float(rows[0]["error"])

    def test_experiment_solver_bench(self, workdir):
        proc = run_cli("experiment", "solver-bench", "--out", str(workdir / "bench"))
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "bench" / "manifest.json").exists()
        # NAG stops at its 500-iteration cap on the default problem
        assert proc.stderr.startswith("warning: NAG stopped at its iteration cap (500); not converged\n")

    @pytest.mark.parametrize("sub, command", [
        (".", "gen-data"), ("learned", "learn"), ("sim", "simulate"), ("disp", "dispersion"),
    ])
    def test_every_subcommand_writes_manifest(self, workdir, sub, command):
        root = workdir / sub
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["outputs"] == sorted(p.name for p in root.iterdir() if p.is_file() and p.name != "manifest.json")
        assert manifest["config"]["out"] == str(root)
        assert "config" not in manifest["config"] and "func" not in manifest["config"]

    def test_manifest_records_solve_and_settings(self, workdir):
        manifest = json.loads((workdir / "learned" / "manifest.json").read_text())
        assert manifest["solves"] == {"admm": {"method": "ADMM", "iterations": 4, "stop_reason": "tol"}}
        assert manifest["config"]["radius"] == 1 and manifest["config"]["lam"] == 1e-6
        gen = json.loads((workdir / "manifest.json").read_text())
        assert (gen["seed"], gen["config"]["n_sims"]) == (9, 40)


class TestConfigFile:
    def test_config_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_sims": 12, "m_max": 3}))
        proc = run_cli("gen-data", "--config", str(cfg_file), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "12 samples" in proc.stdout
        with np.load(tmp_path / "training_data.npz") as data:
            assert int(data["n_sims"]) == 12
            assert int(data["m_max"]) == 3

    def test_cli_flag_beats_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_sims": 12}))
        proc = run_cli("gen-data", "--config", str(cfg_file), "--out", str(tmp_path), "--n-sims", "7")
        assert proc.returncode == 0
        assert "7 samples" in proc.stdout


    @pytest.mark.parametrize("argv", [
        ("gen-data",),
        ("learn", "--method", "admm"),
        ("simulate", "--stencil", "s.json"),
        ("dispersion", "--stencil", "s.json"),
        ("converge",),
    ])
    def test_unknown_key_is_two(self, tmp_path, argv):
        (tmp_path / "cfg.json").write_text(json.dumps({"nsims": 12, "steps": 3, "foo": 1}))
        proc = run_cli(*argv, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        unknown = "nsims, foo" if argv[0] == "simulate" else "nsims, steps, foo"
        assert proc.stderr.strip() == f"error: unknown config key(s): {unknown}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"n_sims": 12.5}, "error: config key n_sims: invalid value 12.5"),
        ({"n_sims": None}, "error: config key n_sims: invalid value null"),
        ({"sigma": "lots"}, 'error: config key sigma: invalid value "lots"'),
        ({"grid_n": [64, 128]}, "error: config key grid_n: invalid value [64, 128]"),
        ({"m_max": {"value": 3}}, 'error: config key m_max: invalid value {"value": 3}'),
    ])
    def test_wrong_value_type_is_two(self, tmp_path, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        proc = run_cli("gen-data", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == message
        assert not (tmp_path / "out").exists()

    def test_file_values_take_the_command_line_forms(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"resolutions": [16, 32], "t_final": 1, "max_iters": None}))
        proc = run_cli("converge", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert (config["resolutions"], config["t_final"]) == ([16, 32], 1.0)

    def test_file_value_outside_choices_is_two(self, tmp_path):
        save_stencil(centered_difference_stencil(Grid1D(N=64)), tmp_path / "s.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"engine": "analog"}))
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == 'error: config key engine: invalid value "analog"'

    @pytest.mark.parametrize("seed", [(), ("--seed", "3")])
    def test_experiment_non_object_for_nested_config_is_two(self, tmp_path, seed):
        (tmp_path / "cfg.json").write_text(json.dumps({"training": 5}))
        proc = run_cli("experiment", "dispersion", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
                       *seed)
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: config key training must be an object, got 5"
        assert not (tmp_path / "out").exists()

    def test_file_key_reaches_simulate_and_flag_beats_it(self, tmp_path):
        save_stencil(centered_difference_stencil(Grid1D(N=64)), tmp_path / "s.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"steps": 10}))

        def run(*flags):
            out = tmp_path / f"out{len(flags)}"
            proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--config", str(tmp_path / "cfg.json"),
                           "--out", str(out), *flags)
            assert proc.returncode == 0, proc.stderr
            with open(out / "energy.csv") as fh:
                rows = len(list(csv.DictReader(fh)))
            return rows, json.loads((out / "manifest.json").read_text())["config"]["steps"]

        assert run() == (11, 10)
        assert run("--steps", "4") == (5, 4)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli("gen-data", "--out", str(tmp_path), "--n-sims", "2").returncode == 0

    def test_config_error_is_two(self, tmp_path):
        proc = run_cli("learn", "--method", "admm", "--max-iters", "0", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_is_two(self, tmp_path):
        proc = run_cli("simulate", "--stencil", str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_bad_subcommand_is_two(self):
        assert run_cli("teleport").returncode == 2

    def test_numerical_failure_is_one(self, tmp_path):
        # strongly non-skew stencil: Crank-Nicolson amplifies roundoff until overflow
        bad = Stencil(np.array([-120.0, 0.0, -120.0]), 1.0 / 64.0)
        save_stencil(bad, tmp_path / "bad.json")
        proc = run_cli(
            "simulate", "--stencil", str(tmp_path / "bad.json"),
            "--out", str(tmp_path), "--steps", "400",
        )
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr

    def test_bad_config_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("gen-data", "--config", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_malformed_training_file_is_two(self, tmp_path):
        np.savez(tmp_path / "bad.npz", states=np.zeros((1, 2, 8)), derivatives=np.zeros((1, 2, 8)))
        proc = run_cli("learn", "--method", "admm", "--data", str(tmp_path / "bad.npz"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
        assert "lacks key(s): n_sims" in proc.stderr

    def test_malformed_stencil_file_is_two(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"w": [1, 0, -1]}))
        proc = run_cli("simulate", "--stencil", str(tmp_path / "bad.json"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: stencil file lacks key(s): R, dx"

    def test_convergence_config_error_is_two(self, tmp_path):
        # m_max=5 is not resolved on the N=8 grid
        proc = run_cli("converge", "--resolutions", "8,16", "--t-final", "1", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: m_max must satisfy 1 <= m_max < N/2")

    def test_unknown_config_key_is_two(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"foo": 1}))
        proc = run_cli("experiment", "table1", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: unknown config key(s): foo"
