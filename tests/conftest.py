"""Shared fixtures: the benchmark discretization and its spectral objects.

Session scope keeps the 50x50 eigensolve and PCCA computations to one
evaluation for the whole suite.
"""

# chi_exit before numpy, so the suite runs under the package's thread policy
from chi_exit import (
    RegularGrid,
    benchmark_potential,
    build_sqrt_generator,
    eigensolve,
    flat_potential,
    pcca_single,
    rate_from_eigenpair,
)

import numpy as np
import pytest


@pytest.fixture(scope="session")
def bench():
    return benchmark_potential()


@pytest.fixture(scope="session")
def grid50(bench):
    return RegularGrid(50, 50, bench.domain)


@pytest.fixture(scope="session")
def gen50(bench, grid50):
    return build_sqrt_generator(bench, grid50, 1.0)


@pytest.fixture(scope="session")
def eig3(gen50):
    return eigensolve(gen50, 3)


@pytest.fixture(scope="session")
def chi1(eig3):
    return pcca_single(eig3, 3)


@pytest.fixture(scope="session")
def report1(chi1):
    return rate_from_eigenpair(chi1.meta["eps_bar"], chi1.meta["beta_bar"])


@pytest.fixture(scope="session")
def flat_chain3():
    pot = flat_potential()
    grid = RegularGrid(3, 1, pot.domain)
    return build_sqrt_generator(pot, grid, 1.0)


@pytest.fixture(scope="session")
def gen_small(bench):
    grid = RegularGrid(20, 20, bench.domain)
    return build_sqrt_generator(bench, grid, 1.0)


def assert_close(actual, expected, rtol=1e-9, atol=0.0, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol,
                               err_msg=label)
