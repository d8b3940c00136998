import csv
import inspect
import json
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stencil_lab import cli, experiments
from stencil_lab.core import Grid1D, Stencil, centered_difference_stencil, load_stencil
from stencil_lab.experiments import EXPERIMENT_NAMES, ExperimentConfig, RunDir, default_training_config, learn_stencil, run_convergence
from stencil_lab.regression import RegressionSystem, assemble_regression
from stencil_lab.simulate import SimConfig, simulate, single_mode_initial_condition
from stencil_lab.solvers import SolverOptions
from stencil_lab.training import TrainingConfig, generate_training_set, save_training_set


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


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    """gen-data's 10-sample default-seed set, for the learn runs outside TestPipeline."""
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["gen-data", "--out", str(out), "--n-sims", "10"]) == 0
    return out / "training_data.npz"


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
        assert json.loads((workdir / "learned" / "manifest.json").read_text())["solves"]["admm"]["stop_reason"] == "tol"
        assert "warning" not in proc.stderr

    def test_learn_warns_at_iteration_cap(self, workdir):
        proc = run_cli(
            "learn", "--method", "nag", "--max-iters", "5",
            "--data", str(workdir / "training_data.npz"),
            "--out", str(workdir / "learned_nag"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "warning: NAG stopped at its iteration cap (5)" in proc.stderr
        solves = json.loads((workdir / "learned_nag" / "manifest.json").read_text())["solves"]
        assert solves["nag"]["stop_reason"] == "max_iters"

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

    def test_converge_small(self, workdir, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"resolutions": [32, 64], "t_final": 1, "training": {"n_sims": 40}}))
        proc = run_cli("experiment", "convergence", "--config", str(tmp_path / "cfg.json"), "--out", str(workdir / "conv"))
        assert proc.returncode == 0, proc.stderr
        with open(workdir / "conv" / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["error"]) < float(rows[0]["error"])

    def test_experiment_solver_bench(self, workdir):
        proc = run_cli("experiment", "table1", "--out", str(workdir / "bench"))
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

    def test_learn_records_the_settings_of_its_data_file(self, workdir):
        # the seed and the training settings are the data file's; config holds learn's own options
        manifest = json.loads((workdir / "learned" / "manifest.json").read_text())
        with np.load(workdir / "training_data.npz") as data:
            held = {key: data[key].item() for key in ("seed", "n_sims", "m_max", "N", "L", "sigma")}
            assert sorted(data.files) == sorted(["states", "derivatives", *held])
        assert manifest["seed"] == held["seed"] == 9
        assert manifest["training"] == {
            "n_sims": held["n_sims"], "m_max": held["m_max"], "grid": {"N": held["N"], "L": held["L"]},
            "seed": held["seed"], "noise_std": held["sigma"],
        } == {"n_sims": 40, "m_max": 5, "grid": {"N": 64, "L": 1.0}, "seed": 9, "noise_std": 0.0}
        # the layout of a preset manifest's training entry
        assert ExperimentConfig(name="table1").to_dict()["training"].keys() == manifest["training"].keys()
        assert set(manifest["config"]) == {"out", "radius", "lam", "box", "rho", "max_iters", "tol", "method", "data"}


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
    ])
    def test_unknown_key_is_two(self, tmp_path, argv):
        (tmp_path / "cfg.json").write_text(json.dumps({"nsims": 12, "steps": 3, "foo": 1}))
        proc = run_cli(*argv, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        unknown = "nsims, foo" if argv[0] == "simulate" else "nsims, steps, foo"
        assert proc.stderr.strip() == f"error: unknown config key(s): {unknown}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"n_sims": 12.5}, "error: config key n_sims: invalid value 12.5 (expected int)"),
        ({"n_sims": None}, "error: config key n_sims: invalid value None (expected int)"),
        ({"sigma": "lots"}, "error: config key sigma: invalid value 'lots' (expected float)"),
        ({"grid_n": [64, 128]}, "error: config key grid_n: invalid value [64, 128] (expected int)"),
        ({"m_max": {"value": 3}}, "error: config key m_max: invalid value {'value': 3} (expected int)"),
    ])
    def test_wrong_value_type_is_two(self, tmp_path, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        proc = run_cli("gen-data", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == message
        assert not (tmp_path / "out").exists()

    def test_file_values_take_the_command_line_forms(self, tmp_path, data_file):
        (tmp_path / "cfg.json").write_text(json.dumps({"resolutions": [16, 32], "t_final": 1}))
        proc = run_cli("experiment", "convergence", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "conv"))
        assert proc.returncode == 0, proc.stderr
        config = json.loads((tmp_path / "conv" / "manifest.json").read_text())["config"]
        assert (config["resolutions"], config["t_final"]) == ([16, 32], 1.0)
        (tmp_path / "learn.json").write_text(json.dumps({"max_iters": None, "data": str(data_file)}))
        proc = run_cli("learn", "--method", "admm", "--config", str(tmp_path / "learn.json"), "--out", str(tmp_path / "learn"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "learn" / "manifest.json").read_text())["config"]["max_iters"] is None

    def test_file_value_outside_choices_is_two(self, tmp_path):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        (tmp_path / "cfg.json").write_text(json.dumps({"engine": "analog"}))
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: config key engine: invalid value 'analog' (expected Literal['dense', 'spectral'])"

    @pytest.mark.parametrize("seed", [(), ("--seed", "3")])
    def test_experiment_non_object_for_nested_config_is_two(self, tmp_path, seed):
        (tmp_path / "cfg.json").write_text(json.dumps({"training": 5}))
        proc = run_cli("experiment", "nonstandard", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
                       *seed)
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: config key training must be an object, got 5"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ({"n_steps": 12.5}, "error: config key n_steps: invalid value 12.5 (expected int)"),
        ({"training": {"n_sims": "many"}}, "error: config key training.n_sims: invalid value 'many' (expected int)"),
    ])
    def test_experiment_wrong_value_type_is_two(self, tmp_path, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        proc = run_cli("experiment", "table1", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == message
        assert not (tmp_path / "out").exists()

    def test_experiment_manifest_records_int_for_float_as_float(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"lam": 1, "training": {"noise_std": 0}}))
        proc = run_cli("experiment", "nonstandard", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert (config["lam"], config["training"]["noise_std"]) == (1.0, 0.0)
        assert type(config["lam"]) is type(config["training"]["noise_std"]) is float

    def test_file_gives_method_and_flag_beats_it(self, tmp_path, data_file):
        (tmp_path / "cfg.json").write_text(json.dumps({"method": "nag", "max_iters": 3, "data": str(data_file)}))

        def solves(*flags):
            out = tmp_path / f"out{len(flags)}"
            proc = run_cli("learn", "--config", str(tmp_path / "cfg.json"), "--out", str(out), *flags)
            assert proc.returncode == 0, proc.stderr
            return json.loads((out / "manifest.json").read_text())["solves"]

        assert solves() == {"nag": {"method": "NAG", "iterations": 3, "stop_reason": "max_iters"}}
        assert solves("--method", "admm") == {"admm": {"method": "ADMM", "iterations": 3, "stop_reason": "max_iters"}}
        # the reference solve reads no max_iters
        proc = run_cli("learn", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "ref"), "--method", "ref")
        assert proc.returncode == 2
        assert proc.stderr == "error: learn --method ref does not read setting(s): max_iters\n"
        assert not (tmp_path / "ref").exists()

    @pytest.mark.parametrize("command", ["simulate", "dispersion"])
    def test_file_gives_stencil_and_flag_beats_it(self, tmp_path, command):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        (tmp_path / "cfg.json").write_text(json.dumps({"stencil": str(tmp_path / "s.json")}))
        proc = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["stencil"] == str(tmp_path / "s.json")
        proc = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--stencil", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out2"))
        assert proc.returncode == 2
        assert str(tmp_path / "nope.json") in proc.stderr

    @pytest.mark.parametrize("command, option", [
        ("learn", "--method"), ("learn", "--data"), ("simulate", "--stencil"), ("dispersion", "--stencil"),
    ])
    @pytest.mark.parametrize("config", [None, {"out": "unused"}], ids=["no-file", "file-without-it"])
    def test_required_option_from_neither_is_two(self, tmp_path, command, option, config):
        # learn's other required option is given
        given = {"--method": "admm", "--data": str(tmp_path / "d.npz")} if command == "learn" else {}
        flags = [arg for flag, value in given.items() if flag != option for arg in (flag, value)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags += ["--config", str(tmp_path / "cfg.json")]
        proc = run_cli(command, *flags, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines()[-1] == f"stencil-lab {command}: error: the following arguments are required: {option}"
        assert not (tmp_path / "out").exists()


# the flat subcommands and their settings classes
_FLAT = {"gen-data": cli.GenDataSettings, "learn": cli.LearnSettings, "simulate": cli.SimulateSettings,
         "dispersion": cli.DispersionSettings}

# a value of each flat setting but out, data and stencil, and another that the flag's value beats in the file
_SAMPLES = {
    "seed": (3, 4), "n_sims": (12, 7), "m_max": (3, 2), "grid_n": (32, 48), "length": (2.0, 0.5), "sigma": (0.1, 0.2),
    "radius": (2, 3), "lam": (1e-5, 1e-4), "box": (50.0, 60.0), "rho": (0.1, 0.2),
    "max_iters": (3, 5), "tol": (1e-8, 1e-9), "method": ("nag", "pg"), "dt_ratio": (0.25, 0.4), "steps": (10, 4),
    "snapshot_every": (5, 7), "engine": ("spectral", "dense"), "samples": (16, 32),
}

# the SolverOptions fields each learn method reads
_READS = {"pg": ("max_iters", "tol"), "nag": ("max_iters", "tol"), "admm": ("max_iters", "tol", "rho"), "ref": ()}


def _check_outputs(command, key, value, root, stdout):
    """What a run's own outputs show of the setting, for the settings whose outputs a test reads."""
    if command == "gen-data" and key in ("n_sims", "m_max"):
        with np.load(root / "training_data.npz") as data:
            assert int(data[key]) == value
        assert key != "n_sims" or f"{value} samples" in stdout
    if (command, key) == ("simulate", "steps"):
        with open(root / "energy.csv") as fh:
            assert len(list(csv.DictReader(fh))) == value + 1


class TestSettings:
    """Each field of a flat subcommand's settings class is a flag and a config key."""

    @pytest.mark.parametrize("command, key", [
        pytest.param(command, f.name, id=f"{command}-{f.name}")
        for command, settings in _FLAT.items() for f in fields(settings)
    ])
    def test_flag_and_file_agree_and_flag_beats_it(self, tmp_path, capsys, data_file, command, key):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        samples = {**_SAMPLES, "out": (tmp_path / "set", tmp_path / "unused"), "data": (data_file, tmp_path / "unused.npz"),
                   "stencil": (tmp_path / "s.json", tmp_path / "unused.json")}
        value, other = samples[key]
        required = {"learn": {"method": "admm", "data": data_file}}.get(command, {"stencil": tmp_path / "s.json"})
        given = {**(required if command != "gen-data" else {}), "out": tmp_path / "out"}
        base = [arg for name, v in given.items() if name != key for arg in (f"--{name}", str(v))]
        out = value if key == "out" else tmp_path / "out"

        def config(flags, file):
            (tmp_path / "cfg.json").write_text(json.dumps(file, default=str))
            assert cli.main([command, *base, *flags, "--config", str(tmp_path / "cfg.json")]) == 0
            _check_outputs(command, key, value, out, capsys.readouterr().out)
            return json.loads((out / "manifest.json").read_text())["config"]

        flag = [f"--{key.replace('_', '-')}", str(value)]
        from_file = config([], {key: value})
        assert from_file[key] == json.loads(json.dumps(value, default=str))
        assert config(flag, {}) == from_file
        assert config(flag, {key: other}) == from_file
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("method, key, given", [
        pytest.param(method, key, given, id=f"{given}-{method}-{key}")
        for method, reads in _READS.items() for key in ("max_iters", "tol", "rho") if key not in reads
        for given in ("flag", "file")
    ])
    def test_setting_the_method_does_not_read_is_two(self, tmp_path, capsys, method, key, given):
        value = _SAMPLES[key][0]
        (tmp_path / "cfg.json").write_text(json.dumps({key: value} if given == "file" else {}))
        flags = [f"--{key.replace('_', '-')}", str(value)] if given == "flag" else []
        # the data file does not exist: learn checks its settings before it reads the data
        argv = ["learn", "--method", method, "--data", str(tmp_path / "none.npz"), *flags]
        assert cli.main([*argv, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: learn --method {method} does not read setting(s): {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", list(_READS))
    def test_manifest_holds_the_settings_the_method_reads(self, tmp_path, data_file, method):
        assert cli.main(["learn", "--method", method, "--data", str(data_file), "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        unread = {"max_iters", "tol", "rho"}.difference(_READS[method])
        assert list(config) == [f.name for f in fields(cli.LearnSettings) if f.name not in unread]

    def test_number_as_string_is_two(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"steps": "10"}))
        proc = run_cli("simulate", "--stencil", "s.json", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == "error: config key steps: invalid value '10' (expected int)\n"

    @pytest.mark.parametrize("command", list(_FLAT))
    def test_help_lists_exactly_the_settings(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        # one entry per option: its first flag, then its help with the line breaks taken out
        entries = re.split(r"\n  (?=-)", capsys.readouterr().out.split("\noptions:\n")[1])
        helps = {entry.split()[0].rstrip(","): " ".join(entry.split()) for entry in entries}
        settings = {f"--{f.name.replace('_', '-')}": f for f in fields(_FLAT[command])}
        assert set(helps) == {"-h", "--config", *settings}
        for flag, f in settings.items():
            if f.name in ("method", "data", "stencil"):
                assert helps[flag].endswith("(required, as a flag or a config key)")
            else:
                assert helps[flag].endswith(f"(default {'per method' if f.default is None else f.default})")


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli("gen-data", "--out", str(tmp_path), "--n-sims", "2").returncode == 0

    def test_config_error_is_two(self, tmp_path, data_file):
        proc = run_cli("learn", "--method", "admm", "--max-iters", "0", "--data", str(data_file), "--out", str(tmp_path))
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
        RunDir(tmp_path).write_json("bad.json", bad.to_dict())
        proc = run_cli(
            "simulate", "--stencil", str(tmp_path / "bad.json"),
            "--out", str(tmp_path), "--steps", "400",
        )
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr

    def test_near_singular_dense_system_is_one(self, tmp_path):
        # (dt/2) mu(0) = 1 - 1e-10 at the default dt = dx/2: the dense engine's conjugate gradients hit their cap
        dx = 1.0 / 64.0
        a = (1.0 - 1e-10) / (0.5 * dx)
        RunDir(tmp_path).write_json("s.json", Stencil(np.array([a, 0.0, a]), dx).to_dict())
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--out", str(tmp_path / "out"), "--steps", "1")
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr and "did not converge" in proc.stderr

    @pytest.mark.parametrize("method", ["pg", "nag", "admm", "ref"])
    def test_overflowing_statistics_are_two(self, tmp_path, method):
        # fields of 1e300 are finite, but their squares overflow A^T A
        path = tmp_path / "data.npz"
        save_training_set(generate_training_set(TrainingConfig(n_sims=4, m_max=5, grid=Grid1D(N=64), seed=1)), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{**arrays, "states": 1e300 * arrays["states"]})
        proc = run_cli("learn", "--method", method, "--data", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == ("error: the training fields' sum of squares is not finite; "
                               "A^T A, A^T b and b^T b would overflow\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["pg", "nag", "admm", "ref"])
    def test_lam_whose_double_overflows_is_two(self, tmp_path, capsys, method):
        # the data file does not exist: lam is refused before it is read
        argv = ["learn", "--method", method, "--lam", "1e308", "--data", str(tmp_path / "none.npz")]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: lam must be at most half the largest float (H holds 2 lam), got 1e+308\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [name.replace("_", "-") for name in EXPERIMENT_NAMES])
    def test_preset_lam_whose_double_overflows_is_two(self, tmp_path, monkeypatch, capsys, name):
        def generate(*args):
            raise AssertionError("the preset generated training data before checking lam")

        for fn in ("generate_training_set", "generate_operator_training_set"):
            monkeypatch.setattr(experiments, fn, generate)
        (tmp_path / "cfg.json").write_text(json.dumps({"lam": 1e308}))
        assert cli.main(["experiment", name, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: lam must be at most half the largest float (H holds 2 lam), got 1e+308\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitude, code", [(1.0, 0), (3.0, 2)])
    def test_older_training_file_must_state_unit_amplitude(self, tmp_path, capsys, data_file, amplitude, code):
        # a file written while the amplitude was a setting holds an amplitude_std member
        path = tmp_path / "old.npz"
        with np.load(data_file) as data:
            np.savez(path, **{name: data[name] for name in data.files}, amplitude_std=np.float64(amplitude))
        assert cli.main(["learn", "--method", "ref", "--data", str(path), "--out", str(tmp_path / "old")]) == code
        if code:
            assert capsys.readouterr().err == f"error: training file {path}: header field amplitude_std must be 1.0, got 3.0\n"
            assert not (tmp_path / "old").exists()
        else:
            assert cli.main(["learn", "--method", "ref", "--data", str(data_file), "--out", str(tmp_path / "new")]) == 0
            assert (tmp_path / "old" / "stencil.json").read_bytes() == (tmp_path / "new" / "stencil.json").read_bytes()

    def test_linalg_error_in_a_solve_is_one(self, tmp_path, monkeypatch, capsys, data_file):
        # np.linalg.LinAlgError is a ValueError, which alone would exit 2
        def solve(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "solve", solve)
        assert cli.main(["learn", "--method", "admm", "--data", str(data_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "numerical failure: Singular matrix\n"

    @pytest.mark.parametrize("radius, code", [(4, 0), (6, 1), (7, 1)])
    def test_reference_on_a_singular_hessian_is_one(self, tmp_path, capsys, training_set, radius, code):
        """At lam = 0 on the default data, lambda_min(H) / lambda_max(H) is
        7.5e-12 at R = 4. At R = 6 and 7 it is roundoff, below R eps (1.3e-15
        and 1.6e-15): 6.3e-17 and -5.2e-18 on one BLAS thread, 2.3e-16 and
        -3.6e-17 on two."""
        save_training_set(training_set, tmp_path / "data.npz")
        argv = ["learn", "--method", "ref", "--lam", "0", "--radius", str(radius), "--data", str(tmp_path / "data.npz")]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == code
        if code:
            assert capsys.readouterr().err == "numerical failure: reference solver: singular reduced Hessian\n"

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_grid_too_small_for_stencil_is_two(self, tmp_path, engine):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64), 2).to_dict())
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--length", "0.046875", "--engine", engine,
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: grid N=3 too small for stencil radius R=2 (need N >= 5)"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("change, got", [
        ({"R": None}, "R=null, dx=0.1"),
        ({"R": [1]}, "R=[1], dx=0.1"),
        ({"R": 1.7}, "R=1.7, dx=0.1"),
        ({"dx": None}, "R=1, dx=null"),
        ({"dx": [0.1]}, "R=1, dx=[0.1]"),
    ])
    def test_malformed_stencil_value_is_two(self, tmp_path, change, got):
        (tmp_path / "bad.json").write_text(json.dumps({"R": 1, "w": [-0.5, 0.0, 0.5], "dx": 0.1, **change}))
        proc = run_cli("simulate", "--stencil", str(tmp_path / "bad.json"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: stencil file needs an integer R and a number dx, got {got}"

    @pytest.mark.parametrize("defect", ["truncated", "non-scalar N"])
    def test_malformed_training_archive_is_two(self, tmp_path, defect):
        path = tmp_path / "bad.npz"
        save_training_set(generate_training_set(TrainingConfig(n_sims=2, m_max=2, grid=Grid1D(N=16), seed=1)), path)
        if defect == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
            np.savez(path, **{**arrays, "N": np.array([16, 17])})
        proc = run_cli("learn", "--method", "admm", "--data", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: training file {path}")

    @pytest.mark.parametrize("key, value", [("N", 16.5), ("m_max", 2.9), ("n_sims", 2.0), ("seed", 1.5)])
    def test_non_integer_training_header_is_two(self, tmp_path, key, value):
        path = tmp_path / "bad.npz"
        save_training_set(generate_training_set(TrainingConfig(n_sims=2, m_max=2, grid=Grid1D(N=16), seed=1)), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{**arrays, key: np.array(value)})
        proc = run_cli("learn", "--method", "admm", "--data", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: training file {path}: header field {key} must be an integer, got {value}"
        assert not (tmp_path / "out" / "stencil.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("L", np.nan, "domain length must be positive and finite, got L=nan"),
        ("sigma", np.nan, "noise_std must be nonnegative and finite, got nan"),
        ("amplitude_std", np.inf, "training file {path}: header field amplitude_std must be 1.0, got inf"),
        ("L", "one", "training file {path}: header field L must be a number, got one"),
    ], ids=["L-nan", "sigma-nan", "amplitude_std-inf", "L-text"])
    def test_bad_training_number_header_is_two(self, tmp_path, key, value, message):
        path = tmp_path / "bad.npz"
        save_training_set(generate_training_set(TrainingConfig(n_sims=2, m_max=2, grid=Grid1D(N=16), seed=1)), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{**arrays, key: np.array(value)})
        proc = run_cli("learn", "--method", "admm", "--data", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: " + message.format(path=path)
        assert not (tmp_path / "out" / "stencil.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--length", "nan", "domain length must be positive and finite, got L=nan"),
        ("--sigma", "nan", "noise_std must be nonnegative and finite, got nan"),
    ], ids=["length-nan", "sigma-nan"])
    def test_non_finite_training_flag_is_two(self, tmp_path, flag, value, message):
        proc = run_cli("gen-data", flag, value, "--n-sims", "2", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: {message}"
        assert not (tmp_path / "training_data.npz").exists()

    @pytest.mark.parametrize("dx, flags, message", [
        ("NaN", [], "dx must be positive and finite, got nan"),
        ("0.015625", ["--dt-ratio", "nan"], "dt must be positive and finite, got nan"),
    ], ids=["stencil-dx", "dt"])
    def test_non_finite_dispersion_value_is_two(self, tmp_path, dx, flags, message):
        # json reads the bare token NaN as a float
        (tmp_path / "s.json").write_text(f'{{"R": 1, "w": [-32, 0, 32], "dx": {dx}}}')
        proc = run_cli("dispersion", "--stencil", str(tmp_path / "s.json"), *flags, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: {message}"
        assert not (tmp_path / "out" / "report.json").exists()

    # cfg.json holds the config, where given, and d.npz does not exist: learn checks its settings first;
    # json writes NaN and Infinity as those bare tokens
    @pytest.mark.parametrize("argv, config, message", [
        (["learn", "--method", "admm", "--data", "d.npz", "--tol", "nan"], None, "tol must be positive and finite, got nan"),
        (["learn", "--method", "admm", "--data", "d.npz", "--lam", "nan"], None, "lam must be nonnegative and finite, got nan"),
        (["learn", "--method", "admm", "--data", "d.npz", "--box", "nan"], None, "box bound M must be positive, got nan"),
        (["learn", "--method", "admm", "--data", "d.npz", "--rho", "inf"], None,
         "ADMM penalty rho must be positive and finite, got inf"),
        (["simulate", "--stencil", "s.json", "--length", "inf"], None, "length must be positive and finite, got inf"),
        (["simulate", "--stencil", "s.json", "--length", "nan"], None, "length must be positive and finite, got nan"),
        (["experiment", "convergence", "--config", "cfg.json"], {"training": {"n_sims": 10}, "t_final": float("nan")},
         "final time T must be positive and finite, got nan"),
        (["experiment", "convergence", "--config", "cfg.json"], {"training": {"n_sims": 10}, "dt_ratio": float("inf")},
         "dt_ratio must be positive and finite, got inf"),
    ], ids=["tol-nan", "lam-nan", "box-nan", "rho-inf", "length-inf", "length-nan", "t-final-nan", "dt-ratio-inf"])
    def test_non_finite_setting_is_two(self, tmp_path, argv, config, message):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [str(tmp_path / arg) if arg in ("s.json", "cfg.json", "d.npz") else arg for arg in argv]
        proc = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: {message}"

    # simulate does not run backward in time, as dispersion does not
    @pytest.mark.parametrize("argv", [["simulate", "--steps", "3"], ["dispersion"]], ids=["simulate", "dispersion"])
    def test_negative_dt_is_two(self, tmp_path, argv):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        proc = run_cli(*argv, "--stencil", str(tmp_path / "s.json"), "--dt-ratio", "-0.5", "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: dt must be positive and finite, got -0.0078125"
        assert not (tmp_path / "out").exists()

    # no preset runs backward in time: each one reads dt_ratio, and the config rejects it before any output
    @pytest.mark.parametrize("name", [name.replace("_", "-") for name in EXPERIMENT_NAMES])
    def test_experiment_negative_dt_ratio_is_two(self, tmp_path, name):
        (tmp_path / "cfg.json").write_text(json.dumps({"dt_ratio": -0.5}))
        proc = run_cli("experiment", name, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: dt_ratio must be positive and finite, got -0.5"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["gen-data"], ["experiment", "nonstandard"]], ids=["gen-data", "experiment"])
    def test_negative_seed_is_two(self, tmp_path, argv):
        proc = run_cli(*argv, "--seed", "-1", "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: seed must be nonnegative, got -1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b"hello\n", np.zeros(3).tobytes()], ids=["text", "raw-floats"])
    def test_training_file_not_npz_is_two(self, tmp_path, content):
        path = tmp_path / "notnpz.npz"
        path.write_bytes(content)
        proc = run_cli("learn", "--method", "admm", "--data", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: training file {path} is not a training .npz archive"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_dispersion_without_samples_is_two(self, tmp_path, samples):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        proc = run_cli("dispersion", "--stencil", str(tmp_path / "s.json"), "--samples", samples, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: the dispersion curves need at least one theta sample, got {samples}"

    def test_convergence_config_error_is_two(self, tmp_path):
        # m_max=5 is not resolved on the N=8 grid
        (tmp_path / "cfg.json").write_text(json.dumps({"resolutions": [8, 16], "t_final": 1}))
        proc = run_cli("experiment", "convergence", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: m_max must satisfy 1 <= m_max < N/2")

    def test_empty_convergence_study_is_two(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"resolutions": []}))
        proc = run_cli("experiment", "convergence", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: resolutions must be nonempty and strictly ascending"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_two(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"foo": 1}))
        proc = run_cli("experiment", "table1", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: unknown config key(s): foo"


# a value of the right type for each setting some preset does not read
_SAMPLE_VALUES = {"radius": 2, "dt_ratio": 0.3, "n_steps": 10, "snapshot_every": 2, "resolutions": [32, 64], "t_final": 1.0}

# one config-file case per (preset, setting) pair the preset does not read
_UNREAD_SETTINGS = [
    pytest.param([name.replace("_", "-")], {key: _SAMPLE_VALUES[key]}, f"experiment {name} does not read setting(s): {key}",
                 id=f"file-{name}-{key}")
    for name in EXPERIMENT_NAMES
    for key in (f.name for f in fields(ExperimentConfig))
    if key not in ExperimentConfig(name=name).settings()
]


class TestExperimentFlags:
    def test_radius_sets_the_noisy_radius(self, tmp_path):
        proc = run_cli("experiment", "noisy", "--radius", "2", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["radius"] == 2
        assert all(len(run["coefficients"]) == 5 for label, run in report["runs"].items() if label != "centered")
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["radius"] == 2

    def test_config_file_radius_reaches_noisy(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"radius": 2}))
        proc = run_cli("experiment", "noisy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["radius"], report["sigma"]) == (2, 0.05)
        assert len(report["runs"]["constrained_qp"]["coefficients"]) == 5

    def test_sigma_sets_the_training_noise(self, tmp_path):
        proc = run_cli("experiment", "nonstandard", "--sigma", "0.3", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["training"]["noise_std"] == 0.3

    def test_convergence_reads_dt_ratio(self, tmp_path):
        # the preset with a config-file dt_ratio matches the runner called at that dt_ratio
        (tmp_path / "cfg.json").write_text(json.dumps({"dt_ratio": 0.1, "resolutions": [32, 64], "t_final": 1}))
        proc = run_cli("experiment", "convergence", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "exp"))
        assert proc.returncode == 0, proc.stderr
        run_convergence(ExperimentConfig(name="convergence", dt_ratio=0.1, resolutions=(32, 64), t_final=1.0,
                                         output_dir=tmp_path / "lib"))
        assert (tmp_path / "exp" / "convergence.csv").read_bytes() == (tmp_path / "lib" / "convergence.csv").read_bytes()
        assert json.loads((tmp_path / "exp" / "manifest.json").read_text())["config"]["dt_ratio"] == 0.1

    # keys of older manifests: each preset default now lives in its plain field
    @pytest.mark.parametrize("preset, key, value", [
        ("noisy", "noisy_radius", 2), ("convergence", "convergence_dt_ratio", 0.1), ("nonstandard", "noisy_sigma", 0.3),
    ])
    def test_removed_preset_key_is_two(self, tmp_path, preset, key, value):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        proc = run_cli("experiment", preset, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: unknown config key(s): {key}"
        assert not (tmp_path / "out").exists()

    # table1 runs what these presets ran
    @pytest.mark.parametrize("name", ["energy", "solver-bench", "dispersion"])
    def test_removed_preset_is_two(self, tmp_path, capsys, name):
        with pytest.raises(SystemExit) as info:
            cli.main(["experiment", name, "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert f"argument name: invalid choice: '{name}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, config, message", [
        pytest.param(["nonstandard", "--radius", "4"], None, "experiment nonstandard does not read setting(s): radius",
                     id="nonstandard-radius"),
        *_UNREAD_SETTINGS,
    ])
    def test_flag_the_preset_does_not_read_is_two(self, tmp_path, monkeypatch, capsys, argv, config, message):
        def generate(*args):
            raise AssertionError("the preset generated training data before checking its settings")

        for name in ("generate_training_set", "generate_operator_training_set"):
            monkeypatch.setattr(experiments, name, generate)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        assert cli.main(["experiment", *argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestSimulateGrid:
    """simulate runs on --length measured in cells of the stencil's own dx."""

    def test_length_sets_the_cell_count(self, tmp_path):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--length", "2", "--steps", "20",
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        grid = Grid1D(N=128, L=2.0)
        cfg = SimConfig(dt=0.5 * grid.dx, n_steps=20, grid=grid, stencil=load_stencil(tmp_path / "s.json"))
        final = simulate(single_mode_initial_condition(grid), cfg).final
        field = np.loadtxt(tmp_path / "out" / "final_field.csv", delimiter=",", skiprows=1)
        assert np.array_equal(field, np.column_stack([grid.x, final.E, final.H]))

    @pytest.mark.parametrize("length", ["1.3", "0.001"])
    def test_length_not_whole_stencil_cells_is_two(self, tmp_path, length):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        proc = run_cli("simulate", "--stencil", str(tmp_path / "s.json"), "--length", length, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: length {length} is not a whole number of stencil cells (dx=0.015625)\n"
        assert not (tmp_path / "out").exists()


# each setting a subcommand no longer takes, with a value of its old type
_REMOVED = [
    *(("learn", flag, value) for flag, value in (("n-sims", "7"), ("m-max", "3"), ("grid-n", "128"), ("length", "2.0"),
                                                 ("sigma", "0.3"), ("amplitude-std", "2.0"), ("seed", "99"))),
    ("gen-data", "amplitude-std", "2"),
    ("simulate", "seed", "77"), ("simulate", "dt", "0.001"), ("simulate", "grid-n", "128"),
    ("dispersion", "seed", "5"), ("dispersion", "dt", "0.001"),
]


class TestRemovedSettings:
    @pytest.mark.parametrize("command, flags, config, message", [
        *(case for command, flag, value in _REMOVED for case in (
            pytest.param(command, [f"--{flag}", value], None, f"stencil-lab: error: unrecognized arguments: --{flag} {value}",
                         id=f"{command}-flag-{flag}"),
            pytest.param(command, [], {flag.replace("-", "_"): json.loads(value)},
                         f"error: unknown config key(s): {flag.replace('-', '_')}", id=f"{command}-file-{flag}"),
        )),
        pytest.param("experiment", [], {"solver_opts": {"step": 1}}, "error: unknown config key(s): solver_opts.step",
                     id="experiment-file-solver_opts.step"),
        pytest.param("experiment", [], {"training": {"amplitude_std": 2}}, "error: unknown config key(s): training.amplitude_std",
                     id="experiment-file-training.amplitude_std"),
    ])
    def test_removed_setting_is_two(self, tmp_path, capsys, data_file, command, flags, config, message):
        RunDir(tmp_path).write_json("s.json", centered_difference_stencil(Grid1D(N=64)).to_dict())
        required = {"gen-data": [], "learn": ["--method", "admm", "--data", str(data_file)], "experiment": ["table1"]}
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        argv = [command, *required.get(command, ["--stencil", str(tmp_path / "s.json")]), *flags, "--out", str(tmp_path / "out")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own error
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == message and err.count("error:") == 1
        assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    @pytest.mark.parametrize("argv", [
        ["learn", "--method", "admm", "--tol", "nan", "--data", "missing.npz"],
        ["simulate", "--stencil", "missing.json"],
    ], ids=["learn-tol-nan", "simulate-missing-stencil"])
    def test_rejected_run_leaves_no_directory(self, tmp_path, argv):
        argv = [str(tmp_path / arg) if arg.startswith("missing.") else arg for arg in argv]
        proc = run_cli(*argv, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert not (tmp_path / "o").exists()

    # the data file does not exist, so the settings error shows that learn checked them before reading it
    def test_learn_checks_solver_settings_before_generating_data(self, tmp_path, capsys):
        argv = ["learn", "--method", "admm", "--tol", "nan", "--data", str(tmp_path / "none.npz"), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.strip() == "error: tol must be positive and finite, got nan"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lam", "nan", "lam must be nonnegative and finite, got nan"),
        ("--box", "0", "box bound M must be positive, got 0.0"),
        ("--radius", "0", "radius must be >= 1, got 0"),
    ], ids=["lam-nan", "box-0", "radius-0"])
    def test_learn_checks_regression_settings_before_generating_data(self, tmp_path, capsys, flag, value, message):
        argv = ["learn", "--method", "admm", flag, value, "--data", str(tmp_path / "none.npz"), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "o").exists()


def test_readme_commands_parse():
    """Every `stencil-lab ...` line of README's sh blocks, continuations
    joined, parses."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    commands = [line for line in "\n".join(blocks).replace("\\\n", " ").splitlines() if line.startswith("stencil-lab ")]
    assert len(commands) >= 6
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_defaults_are_the_librarys():
    """Each default of the subcommands and the presets is the library value
    it stands for: gen-data's build the standard training set, every
    regression and solver default is RegressionSystem's and SolverOptions',
    and learn's radius, simulate's and dispersion's time step and step
    count and every output directory are the presets'."""
    gen = cli.GenDataSettings()
    assert TrainingConfig(n_sims=gen.n_sims, m_max=gen.m_max, grid=Grid1D(N=gen.grid_n, L=gen.length), seed=gen.seed,
                          noise_std=gen.sigma) == default_training_config()
    learn, preset, opts = cli.LearnSettings(), ExperimentConfig(name="table1"), SolverOptions()
    penalties = (RegressionSystem.lam, RegressionSystem.M)
    for fn in (assemble_regression, learn_stencil):
        params = inspect.signature(fn).parameters
        assert (params["lam"].default, params["M"].default) == penalties
    assert (learn.lam, learn.box) == (preset.lam, preset.box_bound) == penalties == (1e-6, 100.0)
    assert (learn.rho, learn.tol, learn.max_iters) == (opts.rho, opts.tol, opts.max_iters) == (0.05, 1e-12, None)
    assert preset.solver_opts == opts
    presets = {name: ExperimentConfig(name=name) for name in EXPERIMENT_NAMES}
    assert learn.radius == presets["table1"].radius == presets["convergence"].radius == 1
    sim, disp = cli.SimulateSettings(), cli.DispersionSettings()
    for name in ("table1", "nonstandard", "noisy"):
        assert (sim.dt_ratio, disp.dt_ratio, sim.steps) == (presets[name].dt_ratio, presets[name].dt_ratio, presets[name].n_steps)
    assert (sim.dt_ratio, sim.steps) == (0.5, 300)
    outs = {s.out for s in (gen, learn, sim, disp)} | {cfg.output_dir for cfg in presets.values()}
    assert outs == {Path("stencil-lab-out")}
