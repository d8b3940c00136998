import numpy as np
import pytest

from stencil_lab.core import Grid1D
from stencil_lab.experiments import DEFAULT_SEED, default_training_config
from stencil_lab.regression import assemble_regression, build_skew_constraints
from stencil_lab.solvers import ADMM, NAG, PG, REFERENCE, solve
from stencil_lab.training import generate_training_set


@pytest.fixture(scope="session")
def grid():
    return Grid1D(N=64, L=1.0)


@pytest.fixture(scope="session")
def training_set(grid):
    assert grid == default_training_config().grid
    return generate_training_set(default_training_config(seed=DEFAULT_SEED))


@pytest.fixture(scope="session")
def system_r1(training_set):
    return assemble_regression(training_set, R=1)


@pytest.fixture(scope="session")
def constraints_r1():
    return build_skew_constraints(1)


@pytest.fixture(scope="session")
def solver_reports(system_r1, constraints_r1):
    """Default-option runs of all four methods on the standard problem."""
    return {method: solve(method, system_r1, constraints_r1) for method in (PG, NAG, ADMM, REFERENCE)}


@pytest.fixture()
def rng():
    return np.random.default_rng(4242)
