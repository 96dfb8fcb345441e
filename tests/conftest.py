"""Shared fixtures.

The one heavy session fixture (the exact N-body convergence sweep) takes
78-79 s over two runs on a shared 2-vCPU x86-64 host with one BLAS thread,
where the N-body step runs on two workers, and 108 s with BLAS threads
unset (one step worker); most of it is the 250 steps at N = 6.  It is
shared between the acceptance tests; everything else builds small
throwaway objects per test.
"""

import time
from collections import namedtuple

import pytest

from meanfieldlab import bogoliubov as bg
from meanfieldlab import hartree as ha
from meanfieldlab.grid import sample_potential
from meanfieldlab.harness import ExperimentConfig, run_convergence

TimedRun = namedtuple("TimedRun", "run seconds")


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def main_grid(config):
    return config.grid()


@pytest.fixture(scope="session")
def potential_samples(config, main_grid):
    return sample_potential(config.potential, main_grid)


@pytest.fixture(scope="session")
def phi0(config, main_grid):
    return config.initial_state.build(main_grid)


@pytest.fixture(scope="session")
def trajectory(config, main_grid, potential_samples, phi0):
    return ha.evolve_hartree(phi0, potential_samples, main_grid, config.horizon, config.dt)


@pytest.fixture(scope="session")
def pair_run(config, main_grid, potential_samples, trajectory):
    """Bogoliubov kernels on the main grid with quarter-horizon snapshots."""
    times = (0.25, 0.5, 1.0)
    pair, snaps = bg.evolve_pair(
        main_grid, potential_samples, trajectory, config.horizon, config.dt, times
    )
    return pair, snaps


@pytest.fixture(scope="session")
def convergence(config):
    """Exact N-body sweep over the default particle counts, wall-clocked (minutes)."""
    start = time.perf_counter()
    run = run_convergence(config)
    return TimedRun(run, time.perf_counter() - start)
