"""Fluctuation kernel pair against dense doubled-generator oracles.

For a time-frozen condensate the coupled kernel system is linear with a
constant generator, so ``scipy.linalg.expm`` of the doubled (u, conj v)
block matrix is an exact reference.  The blocks are assembled here from
scratch out of the grid primitives, independent of the stepper.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from meanfieldlab import bogoliubov, harness
from meanfieldlab.bogoliubov import (
    BogoliubovPair,
    correction_kernel,
    coupling_kernels,
    depletion,
    evolve_pair,
    identity_pair,
    symplectic_defect,
)
from meanfieldlab.grid import (
    GridSpec,
    PotentialSpec,
    gaussian_packet,
    kinetic_matrix,
    sample_potential,
)
from meanfieldlab.hartree import HartreeTrajectory, evolve_hartree


@pytest.fixture()
def setup():
    g = GridSpec(16, 8.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    phi = gaussian_packet(g, 3.5, 0.9)
    return g, vs, phi


def frozen_trajectory(phi, horizon, dt):
    """Trajectory whose stored state never changes (condensate held fixed)."""
    times = np.arange(0.0, horizon + 0.5 * dt, dt)
    states = np.tile(phi, (len(times), 1))
    return HartreeTrajectory(times, states)


def doubled_generator(grid, vs, phi):
    """Constant-condensate generator on stacked (u, conj v) columns."""
    kern = coupling_kernels(phi, vs, grid)
    a = kinetic_matrix(grid) + np.diag(kern.u_eff) + grid.dx * kern.k1
    b = grid.dx * kern.k2
    return np.block([[a, b], [-b.conj(), -a.conj()]])


# ---------------------------------------------------------------------------
# construction


def test_identity_pair(setup):
    g, _, _ = setup
    pair = identity_pair(g)
    assert np.allclose(pair.u, np.eye(16) / g.dx)
    assert np.all(pair.v == 0)
    assert pair.t == 0.0
    d1, d2 = symplectic_defect(pair)
    assert d1 == 0.0 and d2 == 0.0
    assert depletion(pair) == 0.0


def test_coupling_kernels_match_direct_loops(setup):
    g, vs, _ = setup
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    kern = coupling_kernels(phi, vs, g)
    for i in range(16):
        want = sum(vs[(i - j) % 16] * abs(phi[j]) ** 2 for j in range(16)) * g.dx
        assert kern.u_eff[i] == pytest.approx(want, rel=1e-12)
        for j in range(16):
            v_ij = vs[(i - j) % 16]
            assert kern.k1[i, j] == pytest.approx(v_ij * phi[i] * np.conj(phi[j]), rel=1e-13)
            assert kern.k2[i, j] == pytest.approx(v_ij * phi[i] * phi[j], rel=1e-13)


def test_stacked_coupling_kernels_equal_per_orbital_calls(setup):
    g, vs, _ = setup
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
    kern = coupling_kernels(stack, vs, g)
    for index in np.ndindex(2, 3):
        for got, want in zip(kern, coupling_kernels(stack[index], vs, g)):
            assert np.array_equal(got[index], want)


def test_depletion_is_weighted_v_mass(setup):
    g, _, _ = setup
    rng = np.random.default_rng(7)
    v = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    pair = BogoliubovPair(g, np.eye(16, dtype=complex) / g.dx, v, 0.0)
    assert depletion(pair) == pytest.approx(float(np.sum(np.abs(v) ** 2)) * g.dx**2, rel=1e-13)


# ---------------------------------------------------------------------------
# propagation


def test_zero_potential_reduces_to_free_kinetics(setup):
    g, _, phi = setup
    vs = np.zeros(16)
    traj = frozen_trajectory(phi, 0.5, 1e-2)
    pair, _ = evolve_pair(g, vs, traj, 0.5, 1e-2)
    want = expm(-1j * kinetic_matrix(g) * 0.5) / g.dx
    assert np.linalg.norm(pair.u - want) * g.dx < 1e-12
    assert np.all(pair.v == 0)
    d1, d2 = symplectic_defect(pair)
    assert d1 < 1e-12 and d2 == 0.0


def test_frozen_condensate_matches_dense_exponential(setup):
    g, vs, phi = setup
    dt = 1e-3
    traj = frozen_trajectory(phi, 0.25, dt)
    gen = doubled_generator(g, vs, phi)
    x0 = np.zeros((32, 16), dtype=complex)
    x0[:16] = np.eye(16) / g.dx
    xt = expm(-1j * gen * 0.25) @ x0
    pair, _ = evolve_pair(g, vs, traj, 0.25, dt)
    err_u = np.linalg.norm(pair.u - xt[:16]) * g.dx
    err_v = np.linalg.norm(pair.v - xt[16:].conj()) * g.dx
    assert err_u < 1e-5 and err_v < 1e-5
    # halving the step shrinks the error by the second-order factor
    pair2, _ = evolve_pair(g, vs, traj, 0.25, dt / 2)
    err2 = np.linalg.norm(pair2.u - xt[:16]) * g.dx
    assert 3.0 <= err_u / err2 <= 5.0


def test_self_convergence_on_moving_condensate(setup):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.5, 5e-4)
    results = {}
    for dt in (4e-3, 2e-3, 1e-3):
        pair, _ = evolve_pair(g, vs, traj, 0.5, dt)
        results[dt] = pair
    d_coarse = np.linalg.norm(results[4e-3].u - results[2e-3].u)
    d_fine = np.linalg.norm(results[2e-3].u - results[1e-3].u)
    # successive-difference ratio for a second-order scheme: (16-4)/(4-1) = 4
    assert 3.0 <= d_coarse / d_fine <= 5.0


def test_pair_relation_defects_shrink_quadratically(setup):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.5, 5e-4)
    defects = {}
    for dt in (4e-3, 2e-3, 1e-3):
        pair, _ = evolve_pair(g, vs, traj, 0.5, dt)
        defects[dt] = symplectic_defect(pair)
    for which in (0, 1):
        r1 = defects[4e-3][which] / defects[2e-3][which]
        r2 = defects[2e-3][which] / defects[1e-3][which]
        assert 3.0 <= r1 <= 5.5
        assert 3.0 <= r2 <= 5.5


def test_snapshots_and_validation(setup):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.4, 2e-3)
    pair, snaps = evolve_pair(g, vs, traj, 0.4, 2e-3, snapshot_times=(0.0, 0.2, 0.4))
    assert set(snaps) == {0.0, 0.2, 0.4}
    ident = identity_pair(g)
    assert np.array_equal(snaps[0.0].u, ident.u)
    assert np.array_equal(snaps[0.4].u, pair.u)
    direct, _ = evolve_pair(g, vs, traj, 0.2, 2e-3)
    assert np.array_equal(snaps[0.2].u, direct.u)
    with pytest.raises(ValueError):
        evolve_pair(g, vs, traj, 0.4003, 2e-3)
    with pytest.raises(ValueError):
        evolve_pair(g, vs, traj, 0.5, 2e-3)  # beyond the stored horizon
    with pytest.raises(ValueError):
        evolve_pair(g, vs, traj, 0.4, 2e-3, snapshot_times=(0.2001,))


def test_pair_flow_does_not_depend_on_kernel_batch_size(setup, monkeypatch):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.4, 4e-3)
    runs = []
    for batch in (bogoliubov.PAIR_CHUNK_STEPS, 1, 7):
        monkeypatch.setattr(bogoliubov, "PAIR_CHUNK_STEPS", batch)
        runs.append(evolve_pair(g, vs, traj, 0.4, 4e-3, snapshot_times=(0.1, 0.2)))
    (pair, snaps), others = runs[0], runs[1:]
    for other, other_snaps in others:
        for want, got in [(pair, other)] + [(snaps[t], other_snaps[t]) for t in snaps]:
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


def test_pair_flow_memory_stays_bounded(setup):
    """A 1000-step flow at M = 16 peaks below 2 MiB; one kernel batch for
    the whole run would hold about 18 MB."""
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 1.0, 1e-3)
    tracemalloc.start()
    try:
        evolve_pair(g, vs, traj, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024**2


@pytest.mark.parametrize("points", [4, 16, 64])
def test_pair_flow_peaks_within_its_admission_charge(points, monkeypatch):
    """The batch kernels, kinetic matrices and snapshots of a flow stay inside what ``admit_pair`` charged."""
    g = GridSpec(points, 16.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    traj = evolve_hartree(gaussian_packet(g, 8.0, 1.0), vs, g, 0.5, 1e-2)
    charged = []
    monkeypatch.setattr(bogoliubov, "admit", lambda what, need: charged.append(need))
    tracemalloc.start()
    try:
        # 50 steps: a whole batch of stage kernels and a partial one
        evolve_pair(g, vs, traj, 0.5, 1e-2, snapshot_times=(0.0, 0.1, 0.3, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak < charged[0]


# ---------------------------------------------------------------------------
# marginal correction kernel


def test_correction_kernel_structure(setup):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.5, 1e-3)
    pair, _ = evolve_pair(g, vs, traj, 0.5, 1e-3)
    corr = correction_kernel(pair, phi, traj.final, 12)
    # Hermitian, traceless in leading order is not required, but symmetry is
    assert np.linalg.norm(corr.matrix - corr.matrix.conj().T) < 1e-13 * np.linalg.norm(corr.matrix)
    assert corr.k == 1 and corr.t == pytest.approx(0.5)
    with pytest.raises(ValueError):
        correction_kernel(pair, phi, traj.final, 0)


def test_correction_kernel_rational_coefficients(setup):
    """The count dependence is exactly P/n + Q/n^2 with no constant term.

    Two particle counts pin the matrices P and Q; every other count then
    follows with no freedom left.
    """
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.5, 1e-3)
    pair, _ = evolve_pair(g, vs, traj, 0.5, 1e-3)
    m2 = correction_kernel(pair, phi, traj.final, 2).matrix
    m3 = correction_kernel(pair, phi, traj.final, 3).matrix
    coeff = np.array([[1 / 2, 1 / 4], [1 / 3, 1 / 9]])
    inv = np.linalg.inv(coeff)
    p = inv[0, 0] * m2 + inv[0, 1] * m3
    q = inv[1, 0] * m2 + inv[1, 1] * m3
    for n in (5, 17, 100):
        want = p / n + q / n**2
        got = correction_kernel(pair, phi, traj.final, n).matrix
        assert np.linalg.norm(got - want) < 1e-11 * np.linalg.norm(got)
    # as the count grows the 1/n coefficient is all that survives
    got = correction_kernel(pair, phi, traj.final, 10**6).matrix
    assert np.linalg.norm(10**6 * got - p) < 1e-4 * np.linalg.norm(p)


def test_correction_norm_decays_like_inverse_count(setup):
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, 0.5, 1e-3)
    pair, _ = evolve_pair(g, vs, traj, 0.5, 1e-3)
    scaled = [n * correction_kernel(pair, phi, traj.final, n).norm() for n in (8, 32, 128)]
    assert max(scaled) / min(scaled) < 1.25


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("n", [2, 6, 100])
def test_correction_trace_has_its_closed_form(setup, n, t):
    """dx Tr E2 = (n-1)/n^2 D - (n-2)/n^2 ||b||^2 - (2/n) dx Re<phi_t, b>, with b = dx v conj(phi0)."""
    g, vs, phi = setup
    traj = evolve_hartree(phi, vs, g, t, 1e-3)
    pair, _ = evolve_pair(g, vs, traj, t, 1e-3)
    b = g.dx * (pair.v @ phi.conj())
    want = (
        (n - 1) / n**2 * depletion(pair)
        - (n - 2) / n**2 * g.dx * np.sum(np.abs(b) ** 2)
        - 2 / n * g.dx * np.vdot(traj.final, b).real
    )
    assert correction_kernel(pair, phi, traj.final, n).trace() == pytest.approx(want, rel=1e-12)


def test_correction_trace_at_the_default_config():
    """N dx Tr E2 at N = 6 on the default config: 7.31e-3 at t = 0.5 and 2.27e-2 at t = 1."""
    g, vs, phi0, traj = harness._hartree_flow(harness.ExperimentConfig())
    _, snaps = evolve_pair(g, vs, traj, 1.0, 1e-3, (0.5, 1.0))
    scaled = [6 * correction_kernel(snaps[t], phi0, traj.state_at(t), 6).trace() for t in (0.5, 1.0)]
    assert scaled == pytest.approx([7.31e-3, 2.27e-2], rel=2e-3)
