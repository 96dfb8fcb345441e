"""Hartree split-step solver: conservation laws, oracles, convergence order."""

import numpy as np
import pytest

from meanfieldlab.grid import (
    GridSpec,
    PotentialSpec,
    free_gaussian_exact,
    gaussian_packet,
    l2_norm,
    normalize,
    sample_potential,
)
from meanfieldlab.hartree import (
    HartreeTrajectory,
    boundary_mass,
    effective_potential,
    evolve_hartree,
    hartree_energy,
    mass,
)


@pytest.fixture()
def setup():
    g = GridSpec(16, 16.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    phi0 = gaussian_packet(g, 8.0, 1.0)
    return g, vs, phi0


# ---------------------------------------------------------------------------
# free evolution against the closed form


def test_zero_potential_matches_free_gaussian():
    g = GridSpec(64, 16.0)
    raw = free_gaussian_exact(g.x, 0.0, 8.0, 1.0, 0.5, g.length)
    scale = l2_norm(raw, g)
    traj = evolve_hartree(raw / scale, np.zeros(64), g, 1.0, 1e-3)
    want = free_gaussian_exact(g.x, 1.0, 8.0, 1.0, 0.5, g.length) / scale
    # with V = 0 the splitting is exact: only roundoff accumulates
    assert np.max(np.abs(traj.final - want)) < 1e-11


# ---------------------------------------------------------------------------
# conservation


def test_mass_conserved_to_roundoff(setup):
    g, vs, phi0 = setup
    traj = evolve_hartree(phi0, vs, g, 1.0, 1e-3)
    drifts = [abs(mass(s, g) - 1.0) for s in traj.states]
    assert max(drifts) < 1e-12


def test_energy_drift_small_and_second_order(setup):
    g, vs, phi0 = setup
    e0 = hartree_energy(phi0, vs, g)
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = evolve_hartree(phi0, vs, g, 1.0, dt)
        drifts.append(abs(hartree_energy(traj.final, vs, g) - e0))
    assert drifts[-1] < 1e-6 * max(1.0, abs(e0))
    orders = [np.log2(a / b) for a, b in zip(drifts, drifts[1:])]
    for order in orders:
        assert 1.7 <= order <= 2.3


def test_self_convergence_is_second_order(setup):
    g, vs, phi0 = setup
    finals = [evolve_hartree(phi0, vs, g, 0.5, dt).final for dt in (4e-3, 2e-3, 1e-3)]
    drop = l2_norm(finals[0] - finals[1], g) / l2_norm(finals[1] - finals[2], g)
    # successive differences of a second-order family shrink by (16-4)/(4-1) = 4;
    # comparing both coarse runs against the finest instead lands exactly on 5,
    # the degenerate edge, so stick to successive differences
    assert 3.0 <= drop <= 5.0


# ---------------------------------------------------------------------------
# effective potential oracle


def test_effective_potential_direct_sum(setup):
    g, vs, phi0 = setup
    rho = np.abs(phi0) ** 2
    want = np.zeros(g.points)
    for i in range(g.points):
        for j in range(g.points):
            want[i] += vs[(i - j) % g.points] * rho[j] * g.dx
    got = effective_potential(phi0, vs, g)
    assert np.allclose(got, want, atol=1e-12)


def test_energy_matches_quadrature_forms(setup):
    # independent energy evaluation from dense matrices
    g, vs, phi0 = setup
    from meanfieldlab.grid import kinetic_matrix

    t = kinetic_matrix(g)
    kinetic = np.vdot(phi0, t @ phi0).real * g.dx
    u = effective_potential(phi0, vs, g)
    interaction = 0.5 * float(np.sum(u * np.abs(phi0) ** 2) * g.dx)
    assert hartree_energy(phi0, vs, g) == pytest.approx(kinetic + interaction, rel=1e-12)


# ---------------------------------------------------------------------------
# trajectory access


def test_trajectory_sampling_and_interpolation(setup):
    g, vs, phi0 = setup
    traj = evolve_hartree(phi0, vs, g, 0.5, 1e-3)
    assert traj.horizon == pytest.approx(0.5)
    assert np.array_equal(traj.state_at(0.0), traj.states[0])
    assert np.array_equal(traj.state_at(0.5), traj.final)
    for t in (0.50037, 0.501, -1e-3):  # between samples, past the end, before the start
        with pytest.raises(ValueError, match="does not land"):
            traj.state_at(t)
    # interpolation halfway between stored samples is the average
    t_mid = 0.2505
    want = 0.5 * (traj.state_at(0.250) + traj.state_at(0.251))
    assert np.allclose(traj.interpolate(t_mid), want, atol=1e-14)
    with pytest.raises(ValueError):
        traj.interpolate(0.6)


def test_interpolate_on_an_array_equals_the_calls_at_each_time(setup):
    g, vs, phi0 = setup
    traj = evolve_hartree(phi0, vs, g, 0.5, 1e-3)

    def one_time(t):  # the scalar rule, in Python floats
        s = min(max(t / (traj.times[1] - traj.times[0]), 0.0), len(traj.times) - 1.0)
        i = min(int(s), len(traj.times) - 2)
        return (1.0 - (s - i)) * traj.states[i] + (s - i) * traj.states[i + 1]

    times = np.array([[0.0, 0.2505, 0.1234567], [0.499, 0.4995, 0.5]])
    got = traj.interpolate(times)
    assert got.shape == (2, 3, g.points)
    for index in np.ndindex(times.shape):
        t = float(times[index])
        assert np.array_equal(got[index], traj.interpolate(t))
        assert np.array_equal(got[index], one_time(t))
    with pytest.raises(ValueError, match="0.6"):
        traj.interpolate(np.array([0.1, 0.6]))


def test_interpolation_error_is_second_order(setup):
    g, vs, phi0 = setup
    dt = 1e-3
    fine = evolve_hartree(phi0, vs, g, 0.5, dt)
    # every 5th and every 25th sample of the same run
    mid = HartreeTrajectory(fine.times[::5], fine.states[::5])
    wide = HartreeTrajectory(fine.times[::25], fine.states[::25])
    # probe instants sitting mid-gap for both coarse sample spacings; the
    # full trajectory's own interpolation error is 625x smaller, so it
    # serves as the reference
    for t in (0.1125, 0.3875):
        e5 = l2_norm(mid.interpolate(t) - fine.interpolate(t), g)
        e25 = l2_norm(wide.interpolate(t) - fine.interpolate(t), g)
        assert e5 < 1e-5
        assert 15.0 <= e25 / e5 <= 40.0


def test_horizon_and_shape_validation(setup):
    g, vs, phi0 = setup
    with pytest.raises(ValueError):
        evolve_hartree(phi0, vs, g, 0.5005, 1e-3)
    with pytest.raises(ValueError):
        evolve_hartree(phi0[:-1], vs, g, 0.5, 1e-3)


# ---------------------------------------------------------------------------
# diagnostics


def test_boundary_mass_detects_wraparound():
    g = GridSpec(32, 16.0)
    centered = gaussian_packet(g, 8.0, 1.0)
    at_edge = gaussian_packet(g, 0.5, 1.0)
    assert boundary_mass(centered, g) < 1e-8
    assert boundary_mass(at_edge, g) > 0.5


def test_boundary_mass_of_uniform_state_matches_fraction():
    g = GridSpec(32, 16.0)
    flat = normalize(np.ones(32), g)
    # two edges of 4 points each out of 32
    assert boundary_mass(flat, g) == pytest.approx(8.0 / 32.0, rel=1e-12)
