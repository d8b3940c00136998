"""Every input boundary of the flat subcommands, generated.

One property test draws a settings dict for gen-data, learn, simulate or
dispersion from the fields of its settings dataclass, writes it as the
run's config file and calls cli.main in-process. The values mix in-range
settings, boundaries (0, -1, +-1e300, 1e-320, nan, inf, the largest
float) and values of the wrong JSON type. Whatever the draw, the run
ends in a documented exit code: 0, or 1 with one `numerical failure:`
line, or 2 with one `error:` line and no output directory; it prints no
traceback and raises no warning. A run that succeeds is also checked for
what it promises: a skew stencil conserves energy, and a training file
is one that `learn` accepts.

Sizes (sample, cell, step, theta and iteration counts, the radius, and
simulate's length, which sets its cell count) take small values only,
besides 0 and -1: a large size would allocate, not test a check.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stencil_lab import cli
from stencil_lab.core import Grid1D, centered_difference_stencil
from stencil_lab.experiments import RunDir
from stencil_lab.training import TrainingConfig, generate_training_set, save_training_set

_COMMANDS = {"gen-data": cli.GenDataSettings, "learn": cli.LearnSettings, "simulate": cli.SimulateSettings,
             "dispersion": cli.DispersionSettings}

_BOUNDARIES = [0, -1, 1e300, -1e300, 1e-320, math.nan, math.inf, sys.float_info.max]
_WRONG_TYPES = ["x", True, None, [1.0], {"a": 1}]

# the stencil file's grid: N = 16 cells on [0, 1]
_DX = 1.0 / 16

# the in-range values of each setting that is not a file
_IN_RANGE = {
    "seed": st.integers(0, 2**64),
    "n_sims": st.integers(1, 4),
    "m_max": st.integers(1, 3),
    "grid_n": st.integers(8, 32),
    "sigma": st.floats(0.0, 1.0),
    "radius": st.integers(1, 3),
    "lam": st.floats(0.0, 1.0),
    "box": st.floats(1e-3, 1e3),
    "rho": st.floats(1e-3, 10.0),
    "max_iters": st.none() | st.integers(1, 50),
    "tol": st.floats(1e-14, 1e-2),
    "dt_ratio": st.floats(1e-3, 10.0),
    "steps": st.integers(0, 20),
    "snapshot_every": st.integers(0, 5),
    "samples": st.integers(1, 32),
}
# settings that size an allocation or a loop: no large value is drawn
_SIZES = {"n_sims", "m_max", "grid_n", "radius", "max_iters", "steps", "snapshot_every", "samples"}


def _in_range(command: str, name: str, hint) -> st.SearchStrategy:
    """Values of a setting that its checks accept. A file setting names
    its file by a token that the test replaces with the path."""
    if name in ("data", "stencil"):
        return st.just(f"<{name}>")
    if get_origin(hint) is Literal:
        return st.sampled_from(get_args(hint))
    if (command, name) == ("gen-data", "length"):
        return st.floats(0.1, 10.0)
    if name == "length":  # simulate's: a whole number of the stencil's cells
        return st.integers(3, 32).map(lambda k: k * _DX)
    return _IN_RANGE[name]


def _edges(command: str, name: str, hint) -> st.SearchStrategy:
    """Values of a setting at a boundary or of the wrong type."""
    wrong = st.sampled_from(_WRONG_TYPES)
    if name in ("data", "stencil"):
        return st.just("<missing>") | wrong
    if get_origin(hint) is Literal:
        return st.sampled_from(["", "PG"]) | wrong
    small = [b for b in _BOUNDARIES if not (isinstance(b, float) and math.isfinite(b) and abs(b) > 1)]
    if (command, name) == ("simulate", "length"):  # in the stencil's cells, which size the grid
        return st.sampled_from([*small, 1.3]) | wrong
    return st.sampled_from(small if name in _SIZES else _BOUNDARIES) | wrong


def _draws():
    """(command, settings dict): in-range values of the file settings and
    of any others, with up to two of them at a boundary or of the wrong
    type."""
    def for_command(command: str):
        settings_cls = _COMMANDS[command]
        hints = get_type_hints(settings_cls)
        names = [f.name for f in fields(settings_cls) if f.name != "out"]
        valid = {name: _in_range(command, name, hints[name]) for name in names}
        required = {name: valid.pop(name) for name in names if name in cli._REQUIRED}
        edge = st.sampled_from(names).flatmap(lambda name: st.tuples(st.just(name), _edges(command, name, hints[name])))
        return st.builds(lambda drawn, edges: (command, {**drawn, **dict(edges)}),
                         st.fixed_dictionaries(required, optional=valid), st.lists(edge, max_size=2))

    return st.sampled_from(list(_COMMANDS)).flatmap(for_command)


def _run(argv: list[str]) -> tuple[int, str, list]:
    """cli.main's exit code, stderr and warnings; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught]


def _relative_drift(energy_csv: Path) -> float:
    e = np.loadtxt(energy_csv, delimiter=",", skiprows=1, usecols=2, ndmin=1)
    return float(np.max(np.abs(e - e[0])) / e[0])


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """One tiny training file and one skew stencil file, made once, by the
    tokens that stand for them."""
    root = tmp_path_factory.mktemp("boundaries")
    save_training_set(generate_training_set(TrainingConfig(n_sims=2, m_max=2, grid=Grid1D(N=16), seed=1)),
                      root / "data.npz")
    RunDir(root).write_json("s.json", centered_difference_stencil(Grid1D(N=16)).to_dict())
    return {"<data>": str(root / "data.npz"), "<stencil>": str(root / "s.json"), "<missing>": str(root / "missing.json")}


@settings(max_examples=500, deadline=None)
@given(draw=_draws())
# at 1e154 the dense engine's CG residual overflows, and its zero solution was taken as converged
@example(draw=("simulate", {"stencil": "<stencil>", "dt_ratio": 1e154, "steps": 5}))
# 2 lam overflows in the Hessian
@example(draw=("learn", {"method": "ref", "data": "<data>", "lam": sys.float_info.max}))
# finite noise whose squares overflow: no learn could read the file
@example(draw=("gen-data", {"n_sims": 4, "sigma": 1e300}))
@example(draw=("gen-data", {"n_sims": 4, "length": 1e-300}))
def test_every_run_ends_in_a_documented_exit(files, draw):
    command, config = draw
    config = {key: files.get(value, value) if isinstance(value, str) else value for key, value in config.items()}
    root = Path(tempfile.mkdtemp(dir=Path(files["<data>"]).parent))
    try:
        (root / "cfg.json").write_text(json.dumps(config))
        out = root / "out"
        code, stderr, caught = _run([command, "--config", str(root / "cfg.json"), "--out", str(out)])
        assert caught == []
        assert code in (0, 1, 2)
        lines = stderr.splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), stderr
            assert not out.exists()
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("numerical failure: "), stderr
        elif command == "simulate":  # the stencil file is skew
            assert _relative_drift(out / "energy.csv") <= 1e-10
        elif command == "gen-data":
            code, stderr, caught = _run(["learn", "--method", "ref", "--data", str(out / "training_data.npz"),
                                            "--out", str(root / "learned")])
            assert caught == [] and code in (0, 1), stderr
    finally:
        shutil.rmtree(root)
