"""End-to-end checks of every advertised guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
the slow pieces (the exact N-body sweep and the lattice flows) are module
or session fixtures, so the whole file took 91 s in one run on a shared
2-vCPU x86-64 host with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), 79 s
of it in the N-body sweep and about 11 s in the lattice flows, with each
timed computation also asserting its own wall-clock budget.
"""

import json
import math
import time
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import meanfieldlab.harness as hn
from meanfieldlab import bogoliubov as bg
from meanfieldlab import combinatorics as cb
from meanfieldlab import fock as fk
from meanfieldlab import hartree as ha
from meanfieldlab import nbody as nb
from meanfieldlab.grid import GridSpec, sample_potential


def _verdict(name, ok, detail):
    line = f"ACCEPTANCE {name}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    return line


# ---------------------------------------------------------------- lattice fixtures

LatticeSetup = namedtuple("LatticeSetup", "config fsec grid vsamp phi0 space gens")


@pytest.fixture(scope="module")
def lattice(config):
    fsec = config.fock
    grid = config.fock_grid()
    vsamp = sample_potential(config.potential, grid)
    phi0 = fsec.initial_state.build(grid)
    space = fk.LatticeFockSpace(grid, fsec.cutoff)
    gens = fk.GeneratorSet(space, vsamp)
    return LatticeSetup(config, fsec, grid, vsamp, phi0, space, gens)


@pytest.fixture(scope="module")
def quadratic_flow(lattice):
    """Quadratic lattice flow to t=1 with pair kernels alongside, wall-clocked."""
    ts = (0.25, 0.5, 1.0)
    start = time.perf_counter()
    traj = ha.evolve_hartree(lattice.phi0, lattice.vsamp, lattice.grid, 1.0, lattice.fsec.dt)
    _, pair_snaps = bg.evolve_pair(lattice.grid, lattice.vsamp, traj, 1.0, lattice.fsec.dt, ts)
    flow = fk.evolve_fock(lattice.gens, fk.vacuum(lattice.space), traj, 0.0, 1.0, lattice.fsec.dt, math.inf, ts)
    return ts, pair_snaps, flow, time.perf_counter() - start


@pytest.fixture(scope="module")
def residual_battery(lattice):
    """Annihilator residuals of the interacting lattice flows at t=0.5, wall-clocked.

    Runs at dt 2e-3: the asserted ratios move by less than 1e-4 between this
    and the configured 1e-3 step, and the halved step count keeps the whole
    battery well inside its wall-clock budget.
    """
    dt = 2e-3
    t_res = 0.5
    couplings = (8, 16, 32, 64)
    start = time.perf_counter()
    traj = ha.evolve_hartree(lattice.phi0, lattice.vsamp, lattice.grid, t_res, dt)
    quad = fk.evolve_fock(lattice.gens, fk.vacuum(lattice.space), traj, 0.0, t_res, dt, math.inf, (t_res,))
    (quad_backs,), qb_top = fk.site_backs(lattice.gens, traj, [(quad.snapshots[t_res], t_res, None)], dt, math.inf)
    leak = max(quad.top_mass, qb_top)
    aggregates = {}
    for n in couplings:
        full = fk.evolve_fock(lattice.gens, fk.vacuum(lattice.space), traj, 0.0, t_res, dt, n, (t_res,))
        (full_backs,), fb_top = fk.site_backs(lattice.gens, traj, [(full.snapshots[t_res], t_res, None)], dt, n)
        leak = max(leak, full.top_mass, fb_top)
        aggregates[n] = fk.residual_aggregates(full_backs, quad_backs)[1]
    return aggregates, leak, time.perf_counter() - start


@pytest.fixture(scope="module")
def count_moments(lattice):
    """Final number moment of the fully interacting flow per coupling value."""
    dt = 2e-3
    traj = ha.evolve_hartree(lattice.phi0, lattice.vsamp, lattice.grid, 1.0, dt)
    moments = {}
    for n in (8, 16, 32, 64):
        full = fk.evolve_fock(lattice.gens, fk.vacuum(lattice.space), traj, 0.0, 1.0, dt, n)
        moments[n] = fk.number_moment(full.state, 1)
    return moments


# ---------------------------------------------------------------- the nine checks


def test_marginal_error_decays_at_inverse_count_rate(convergence, config):
    run, seconds = convergence
    fit = run.fits[repr(float(max(config.sample_times)))]
    lo, hi = hn.THRESHOLDS.rate_band
    budget = 600.0
    ok = (
        lo <= fit["slope"] <= hi
        and fit["r_squared"] >= hn.THRESHOLDS.r_squared_min
        and seconds <= budget
    )
    side = run.fits[repr(float(min(config.sample_times)))]
    line = _verdict(
        "inverse-count-rate", ok,
        f"slope {fit['slope']:.4f} in [{lo}, {hi}], R^2 {fit['r_squared']:.6f} >= "
        f"{hn.THRESHOLDS.r_squared_min}, {seconds:.0f}s <= {budget:.0f}s "
        f"(secondary slope {side['slope']:.4f} at t={min(config.sample_times)})",
    )
    assert ok, line


def test_scaled_correction_norm_is_count_independent(pair_run, trajectory, phi0):
    pair, _ = pair_run
    phi_t = trajectory.interpolate(pair.t)
    scaled = {n: n * bg.correction_kernel(pair, phi0, phi_t, n).norm() for n in (8, 16, 32, 64)}
    spread = max(scaled.values()) / min(scaled.values())
    ok = spread <= 1.10
    line = _verdict(
        "scaled-correction-norm", ok,
        f"count * norm in [{min(scaled.values()):.6f}, {max(scaled.values()):.6f}], "
        f"spread {spread:.4f} <= 1.10 over counts {sorted(scaled)}",
    )
    assert ok, line


def test_lattice_residuals_halve_when_count_doubles(residual_battery):
    aggregates, leak, seconds = residual_battery
    ratios = {n: aggregates[n] / aggregates[2 * n] for n in (8, 16, 32)}
    budget = 300.0
    ok = all(1.6 <= r <= 2.4 for r in ratios.values()) and leak <= 1e-6 and seconds <= budget
    line = _verdict(
        "residual-count-scaling", ok,
        f"doubling ratios {[f'{ratios[n]:.3f}' for n in sorted(ratios)]} in [1.6, 2.4], "
        f"leakage {leak:.2e} <= 1e-6, {seconds:.0f}s <= {budget:.0f}s",
    )
    assert ok, line


def test_number_identity_between_kernel_and_lattice_engines(quadratic_flow):
    ts, pair_snaps, flow, seconds = quadratic_flow
    budget = 120.0
    gaps = {}
    for t in ts:
        dep = bg.depletion(pair_snaps[t])
        gaps[t] = (abs(dep - fk.number_moment(flow.snapshots[t], 1)), 1e-4 * (1.0 + dep))
    ok = all(gap <= thr for gap, thr in gaps.values()) and seconds <= budget
    line = _verdict(
        "depletion-number-identity", ok,
        ", ".join(f"t={t}: gap {g:.2e} <= {thr:.2e}" for t, (g, thr) in gaps.items())
        + f", {seconds:.0f}s <= {budget:.0f}s",
    )
    assert ok, line


def test_pair_relations_hold_and_refine_at_second_order(config, main_grid, potential_samples, phi0, pair_run):
    pair, _ = pair_run
    d1, d2 = bg.symplectic_defect(pair)
    steps = (1e-3, 5e-4, 2.5e-4)
    defects = []
    for dt in steps:
        traj = ha.evolve_hartree(phi0, potential_samples, main_grid, config.horizon, dt)
        p, _ = bg.evolve_pair(main_grid, potential_samples, traj, config.horizon, dt)
        defects.append(bg.symplectic_defect(p))
    slopes = []
    for which in (0, 1):
        fit = hn.fit_rate([(1.0 / dt, defects[i][which]) for i, dt in enumerate(steps)])
        slopes.append(-fit.slope)
    ok = max(d1, d2) <= 1e-6 and all(1.7 <= s <= 2.3 for s in slopes)
    line = _verdict(
        "pair-relation-invariants", ok,
        f"defects at dt 1e-3: {d1:.2e}, {d2:.2e} <= 1e-6; "
        f"refinement slopes {slopes[0]:.3f}, {slopes[1]:.3f} in [1.7, 2.3]",
    )
    assert ok, line


def test_quadratic_flow_conserves_parity(quadratic_flow):
    ts, _, flow, _ = quadratic_flow
    masses = {t: fk.odd_sector_mass(flow.snapshots[t]) for t in ts}
    worst = max(masses.values())
    ok = worst <= 1e-10
    line = _verdict(
        "parity-conservation", ok,
        f"odd-sector mass <= {worst:.2e} at t in {ts}, bound 1e-10",
    )
    assert ok, line


def test_dressed_vacuum_moment_is_count_uniform(count_moments):
    spread = max(count_moments.values()) / min(count_moments.values())
    ok = spread <= 3.0
    line = _verdict(
        "number-moment-uniformity", ok,
        f"moments {[f'{count_moments[n]:.5f}' for n in sorted(count_moments)]} "
        f"over counts {sorted(count_moments)}, max/min {spread:.4f} <= 3.0",
    )
    assert ok, line


def test_sector_overlap_table_honors_its_bounds(config):
    counts = config.combinatorics_counts
    scaled = []
    first_ok = mass_ok = kras_ok = True
    for n in counts:
        table = cb.sector_overlaps(n)
        first_ok &= abs(table[0] - np.exp(-cb.log_coherent_norm(n))) <= 1e-12 * abs(table[0])
        mass_ok &= np.cumsum(table**2)[-1] <= 1.0
        scaled.append(np.sqrt(n) * cb.weighted_sector_sum(table))
        kras_ok &= bool(np.all(np.less(*cb.krasikov_check(table))))
    spread = max(scaled) / min(scaled)

    # independent realization of the same numbers on a one-site lattice:
    # shift the (count-1)-fold condensate and read off the sector amplitudes
    n_cross = 6
    space = fk.LatticeFockSpace(GridSpec(1, 1.0), cutoff=48)
    one = np.array([1.0 + 0.0j])
    shifted, _ = fk.weyl_apply(space, -np.sqrt(n_cross) * one, fk.product_state_fock(space, one, n_cross - 1))
    got = shifted.coeffs[space.locate(np.arange(n_cross)[:, None])].real
    cross_err = float(np.max(np.abs(got - cb.sector_overlaps(n_cross))))

    ok = first_ok and mass_ok and spread <= 10.0 and kras_ok and cross_err <= 1e-8
    line = _verdict(
        "sector-overlap-table", ok,
        f"leading value matches closed form to 1e-12: {first_ok}, total mass <= 1: {mass_ok}, "
        f"scaled-sum spread {spread:.3f} <= 10, envelope bound strict on counts "
        f"{config.combinatorics_counts}: {kras_ok}, lattice cross-check err {cross_err:.1e} <= 1e-8",
    )
    assert ok, line


def test_solver_hygiene(convergence, config, main_grid, potential_samples, phi0):
    run, _ = convergence
    mass_worst = float(np.max(run.mass_drifts))

    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = ha.evolve_hartree(phi0, potential_samples, main_grid, config.horizon, dt)
        e0 = ha.hartree_energy(traj.states[0], potential_samples, main_grid)
        stride = max(1, len(traj.states) // 32)
        drifts.append(
            (dt, max(abs(ha.hartree_energy(s, potential_samples, main_grid) - e0)
                     for s in traj.states[::stride]))
        )
    energy_slope = -hn.fit_rate([(1.0 / dt, d) for dt, d in drifts]).slope

    start = nb.product_state(phi0, 3, main_grid)
    residuals = []
    for h in (8e-3, 4e-3, 2e-3):
        samples = [nb.evolve_nbody(replace(start, psi=start.psi.copy()), potential_samples, 0.5 - h, config.dt)]
        for _ in range(2):
            last = samples[-1]
            samples.append(nb.evolve_nbody(replace(last, psi=last.psi.copy()), potential_samples, h, config.dt))
        residuals.append((h, nb.bbgky_residual(samples, potential_samples)))
    bbgky_slope = hn.fit_rate(residuals).slope

    reduced = hn.ExperimentConfig.from_dict({
        "grid": {"points": 20, "length": 10.0},
        "initial_state": {"center": 5.0, "width": 0.6},
        "particle_counts": [2, 3],
        "time": {"horizon": 0.1, "dt": 1e-3, "nbody_dt": 2e-3, "sample_times": [0.05, 0.1]},
    })
    blobs = []
    for _ in range(2):
        _, files = hn.convergence_check(reduced, fit=True)
        blobs.append(files)
    deterministic = blobs[0] == blobs[1]

    ok = (
        mass_worst <= 1e-10
        and 1.7 <= energy_slope <= 2.3
        and 1.7 <= bbgky_slope <= 2.3
        and deterministic
    )
    line = _verdict(
        "solver-hygiene", ok,
        f"mass drift {mass_worst:.2e} <= 1e-10, energy-drift order {energy_slope:.3f} in "
        f"[1.7, 2.3], hierarchy-residual refinement order {bbgky_slope:.3f} in [1.7, 2.3], "
        f"bitwise-identical rerun: {deterministic}",
    )
    assert ok, line
