"""Recorded values of the one-body flows and of the small N-body sweep.

The Hartree orbital and the Bogoliubov pair feed every record the lab
writes, and no oracle pins them to round-off.  These values were recorded
with the FFT-based split steps that preceded the grid-space matrix steps;
each tolerance is ten times the round-off change that switch made (the
pair runs with snapshots at 0.25, 0.5 and 1.0, as in the ``pair_run``
fixture, because a snapshot splits a kinetic step in two).

The N-body records at the default config with N = 2..4 (the benchmark's
rate-small workload at seed 0) were recorded with the potential phase taken
as cos/sin of the dense interaction tensor, before it became a product of
pair phases; each relative tolerance is ten times the round-off change that
switch made.

The lattice battery's items at the benchmark's fock-check-coarse config
(seed 0) were recorded with each Fock step's Chebyshev interval built from
the generator's weights and the quadratic site backs run as one block; the
tolerance is 1e-12 relative, with an absolute floor for the exact zeros
that stays below 1e-12 of every non-zero value.  The same run counts its
work: generator assemblies and Chebyshev terms.

The ``laguerre`` table at the default config was recorded while the
envelope was checked one order per call, and the envelope margin, the worst
over the tables of ``combinatorics.counts``, once each table served its own
envelope check; the tolerance is 1e-13 relative.
"""

import io
from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import bogoliubov as bg
from meanfieldlab import fock as fk
from meanfieldlab import hartree as ha
from meanfieldlab.harness import ExperimentConfig, cross_validate, laguerre_check, run_convergence

# t: {quantity: (recorded value, absolute tolerance)}
RECORDED = {
    0.5: {
        "mass": (1.000000000000023, 6.9e-13),
        "energy": (0.39433927802748575, 2.3e-13),
        "depletion": (0.025210275929368114, 1.7e-14),
        "identity_defect": (1.3330777879348709e-08, 2.9e-14),
        "symmetry_defect": (2.3217875476908717e-09, 1.4e-14),
    },
    1.0: {
        "mass": (1.0000000000000542, 1.5e-12),
        "energy": (0.3943392809323043, 5.6e-13),
        "depletion": (0.08272628745779952, 1.1e-13),
        "identity_defect": (3.271815522139692e-08, 3.2e-13),
        "symmetry_defect": (4.344608765416976e-09, 2.7e-14),
    },
}


@pytest.mark.parametrize("t", sorted(RECORDED))
def test_one_body_flows_keep_their_recorded_values(t, main_grid, potential_samples, trajectory, pair_run):
    phi = trajectory.state_at(t)
    pair = pair_run[1][t]
    identity_defect, symmetry_defect = bg.symplectic_defect(pair)
    got = {
        "mass": ha.mass(phi, main_grid),
        "energy": ha.hartree_energy(phi, potential_samples, main_grid),
        "depletion": bg.depletion(pair),
        "identity_defect": identity_defect,
        "symmetry_defect": symmetry_defect,
    }
    for name, (want, tol) in RECORDED[t].items():
        assert got[name] == pytest.approx(want, rel=0, abs=tol), name


# (N, t): (trace_err, hs_err, e_minus_e2_norm)
RECORDED_SWEEP = {
    (2, 0.5): (0.034232651313663515, 0.02370121315738795, 0.006444194986901193),
    (2, 1.0): (0.06118910285932075, 0.04177017147876631, 0.021173704234866038),
    (3, 0.5): (0.02295573350762511, 0.01579013111400143, 0.0033670213788848497),
    (3, 1.0): (0.04108806543100023, 0.0277664488185727, 0.010852625402061004),
    (4, 0.5): (0.01726920950592779, 0.01184101204193103, 0.0021801228191060873),
    (4, 1.0): (0.03093652842773771, 0.02080665550382843, 0.006927761417042945),
}
SWEEP_REL_TOL = {"trace_err": 1.3e-12, "hs_err": 2.8e-12, "e_minus_e2_norm": 1.9e-10}


def test_small_sweep_keeps_its_recorded_records(config):
    run = run_convergence(replace(config, particle_counts=(2, 3, 4)))
    assert {(r.N, r.t) for r in run.records} == set(RECORDED_SWEEP)
    for rec in run.records:
        for name, want in zip(SWEEP_REL_TOL, RECORDED_SWEEP[rec.N, rec.t]):
            assert getattr(rec, name) == pytest.approx(want, rel=SWEEP_REL_TOL[name], abs=0), (rec.N, rec.t, name)


# item: (measured, details.base, details.swept)
RECORDED_BATTERY = {
    "leakage": (6.266398135415886e-07, 6.266398135415886e-07, 1.035070675557212e-07),
    "depletion_identity_t0.25": (6.519133291899189e-06, 0.0076109615035685136, 0.007610961503568651),
    "depletion_identity_t0.5": (1.8238275533967452e-05, 0.027469257315642363, 0.02746925731700503),
    "depletion_identity_t1.0": (4.689417177367039e-05, 0.09635679157085605, 0.09635680158922168),
    "kernel_columns": (6.305705826206834e-05, 6.305705826206834e-05, 6.293205169798324e-05),
    "parity_odd_mass": (0.0, 0.0, 0.0),
    "moment_stability": (1.0031860515145266, 0.09575143438790651, 0.09575158711366993),
    "residual_ratio_8_to_16": (2.038194073675094, 0.0001811190757581427, 0.00018111650428338064),
}
BATTERY_REL_TOL = 1e-12
BATTERY_ZERO_FLOOR = 1e-20


@pytest.fixture(scope="module")
def coarse_battery():
    """fock-check-coarse's report at seed 0, and its generator assemblies and Chebyshev terms."""
    work = {"matrix": 0, "terms": 0}

    def matrix(*args, _original=fk.GeneratorSet.matrix):
        work["matrix"] += 1
        return _original(*args)

    def chebyshev_weights(rho, _original=fk._chebyshev_weights):
        weights = _original(rho)
        work["terms"] += len(weights)
        return weights

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(fk.GeneratorSet, "matrix", matrix)
        patched.setattr(fk, "_chebyshev_weights", chebyshev_weights)
        report, _ = cross_validate(ExperimentConfig.from_dict({"fock": {"dt": 0.025, "coupling_values": [8, 16]}}))
    return report, work


def test_lattice_battery_keeps_its_recorded_items(coarse_battery):
    report, _ = coarse_battery
    assert [item.name for item in report.items] == list(RECORDED_BATTERY)
    for item in report.items:
        got = (item.measured, item.details["base"], item.details["swept"])
        for what, value, want in zip(("measured", "base", "swept"), got, RECORDED_BATTERY[item.name]):
            assert value == pytest.approx(want, rel=BATTERY_REL_TOL, abs=BATTERY_ZERO_FLOOR), (item.name, what)


def test_lattice_battery_takes_its_counted_work(coarse_battery):
    """340 steps, one assembly each, and at most 7,000 Chebyshev terms in all; counted, not timed.

    The quadratic site backs from t = 1 and from the residual time 0.5 share
    their steps below 0.5 (380 steps before), and the weight-built interval
    is narrower than the generator's Gershgorin interval (7,760 terms before).
    """
    _, work = coarse_battery
    assert work["matrix"] == 340
    assert work["terms"] <= 7000


# laguerre.csv rows: n, first_overlap, sum_sq, weighted_sum, scaled_weighted_sum
RECORDED_LAGUERRE = [
    (4, 0.44200318416631856, 0.36834784876232063, 0.2528575702139135, 0.505715140427827),
    (16, 0.3149881452089196, 0.3305183876453287, 0.13938478584136843, 0.5575391433654737),
    (64, 0.22316562419241626, 0.33301325550482275, 0.0740354005596455, 0.592283204477164),
    (256, 0.15787899590711676, 0.333137621076237, 0.03809041634339589, 0.6094466614943342),
    (1024, 0.11165093703668041, 0.33335853517776987, 0.019314095274668097, 0.6180510487893791),
]
RECORDED_ENVELOPE_MARGIN = -0.5786605947074435
LAGUERRE_REL_TOL = 1e-13


def test_laguerre_keeps_its_recorded_table_and_margin():
    report, files = laguerre_check(ExperimentConfig())
    rows = np.loadtxt(io.StringIO(files["laguerre.csv"]), delimiter=",", skiprows=1)
    assert rows == pytest.approx(np.array(RECORDED_LAGUERRE), rel=LAGUERRE_REL_TOL, abs=0)
    margin = next(item.measured for item in report.items if item.name == "envelope_log_margin")
    assert margin == pytest.approx(RECORDED_ENVELOPE_MARGIN, rel=LAGUERRE_REL_TOL, abs=0)
