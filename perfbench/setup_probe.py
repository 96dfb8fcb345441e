"""Times the set-up of one workload in a fresh process and prints it.

Usage (started by run.py, with PYTHONPATH pointing at the checkout's src):

    python3 perfbench/setup_probe.py <config.json> <fock 0|1>

It prints the set-up time and the same time scaled to the nominal speed of
the ``cache`` reference kernel in speedref.py, timed once set-up has ended.

Set-up is importing ``meanfieldlab``, parsing the workload config and
building its static operators through public constructors: the grid, the
potential samples and the initial orbital, and with fock 1 also the lattice
Fock space and generator set at the base and the swept cutoff.
"""

import sys
import time

start = time.perf_counter()

from meanfieldlab import fock, harness  # noqa: E402
from meanfieldlab.grid import sample_potential  # noqa: E402


def build(config_path: str, with_fock: bool):
    cfg = harness.ExperimentConfig.from_json(config_path)
    grid = cfg.grid()
    built = [grid, sample_potential(cfg.potential, grid), cfg.initial_state.build(grid)]
    if with_fock:
        fgrid = cfg.fock_grid()
        fsamp = sample_potential(cfg.potential, fgrid)
        built += [fsamp, cfg.fock.initial_state.build(fgrid)]
        for cutoff in (cfg.fock.cutoff, cfg.fock.cutoff + cfg.fock.cutoff_step):
            built.append(fock.GeneratorSet(fock.LatticeFockSpace(fgrid, cutoff), fsamp))
    return built


if __name__ == "__main__":
    build(sys.argv[1], sys.argv[2] == "1")
    setup = time.perf_counter() - start
    from speedref import burst_seconds, scaled  # noqa: E402  (after the clock stops)

    burst_seconds("cache")  # warm-up
    print(repr(setup), repr(scaled(setup, [burst_seconds("cache") for _ in range(5)], "cache")))
