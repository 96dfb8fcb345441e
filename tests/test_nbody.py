"""Exact N-body propagation and marginals against dense-matrix oracles.

The oracles: dense two- and three-particle Hamiltonians exponentiated
directly, an explicit pair-sum loop for the interaction tensor, the
one-body closed form of a product state's energy in extended precision, and
a hand-rolled cyclic Jacobi eigensolver (checked against its own invariants)
for the trace distance.  None of them share code with the implementations under test.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from meanfieldlab.grid import (
    GridSpec,
    PotentialSpec,
    gaussian_packet,
    kinetic_matrix,
    normalize,
    potential_matrix,
    sample_potential,
)
from meanfieldlab.nbody import (
    MarginalDensity,
    NBodyState,
    bbgky_residual,
    evolve_nbody,
    hs_distance,
    interaction_tensor,
    marginal_boundary_mass,
    nbody_energy,
    potential_phase,
    product_state,
    projection_marginal,
    reduce_marginal,
    symmetry_defect,
    trace_distance,
    working_set_bytes,
)


@pytest.fixture()
def small():
    g = GridSpec(8, 8.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    phi = gaussian_packet(g, 4.0, 1.0)
    return g, vs, phi


# ---------------------------------------------------------------------------
# oracle: hand-rolled Jacobi eigensolver


def jacobi_eigenvalues(sym: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Cyclic Jacobi diagonalization of a real symmetric matrix."""
    a = sym.copy()
    m = a.shape[0]
    for _ in range(sweeps):
        biggest = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                biggest = max(biggest, abs(a[p, q]))
                if abs(a[p, q]) < tol:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(m)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if biggest < tol:
            break
    return np.sort(np.diag(a))


def hermitian_eigs_by_jacobi(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix via the real embedding.

    [[Re, -Im], [Im, Re]] is symmetric with every eigenvalue of h doubled.
    """
    a, b = h.real, h.imag
    s = np.block([[a, -b], [b, a]])
    eig = jacobi_eigenvalues(s)
    return eig[::2]


def test_jacobi_oracle_self_consistency():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (raw + raw.conj().T)
    eig = hermitian_eigs_by_jacobi(h)
    # invariants that do not rely on any eigensolver
    assert np.sum(eig) == pytest.approx(np.trace(h).real, abs=1e-10)
    assert np.sum(eig**2) == pytest.approx(np.linalg.norm(h) ** 2, abs=1e-10)


# ---------------------------------------------------------------------------
# states and marginals


def test_product_state_properties(small):
    g, _, phi = small
    st = product_state(phi, 3, g)
    assert st.norm() == pytest.approx(1.0, rel=1e-12)
    assert st.psi.shape == (8, 8, 8)
    # factorized: psi(x,y,z) = phi(x) phi(y) phi(z)
    want = np.einsum("i,j,k->ijk", phi, phi, phi)
    assert np.allclose(st.psi, want, atol=1e-14)
    with pytest.raises(ValueError):
        product_state(phi, 0, g)


def test_product_state_refuses_by_working_set_before_allocating():
    # 16^7 = 2^28 amplitudes: one state is 4 GiB, a sweep needs four of them
    g = GridSpec(16, 16.0)
    phi = gaussian_packet(g, 8.0, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="exceeds the budget"):
            product_state(phi, 7, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert working_set_bytes(16, 6) <= 2**32 < working_set_bytes(16, 7)


def test_sweep_peak_stays_inside_the_admitted_working_set():
    g = GridSpec(16, 16.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    phi = gaussian_packet(g, 8.0, 1.0, 0.5)
    n = 4
    evolve_nbody(product_state(phi, 2, g), vs, 4e-3, 4e-3)  # warm up outside the trace
    tracemalloc.start()
    try:
        st = product_state(phi, n, g)
        state_bytes = st.psi.nbytes
        st = evolve_nbody(st, vs, 0.02, 4e-3)
        nbody_energy(st, vs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # allowance for one-body scratch (propagators, kinetic sums), far below a state
    assert peak <= working_set_bytes(g.points, n) + state_bytes // 16


def test_marginal_of_product_state_is_projection(small):
    g, _, phi = small
    st = product_state(phi, 4, g)
    gamma = reduce_marginal(st, 1)
    proj = projection_marginal(phi, g)
    assert gamma.trace() == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(gamma.matrix, proj.matrix, atol=1e-12)
    assert trace_distance(gamma, proj) < 1e-12


def test_marginal_tower_property(small):
    # tracing the two-body marginal down one slot reproduces the one-body one
    g, vs, phi = small
    st = product_state(phi, 3, g)
    st = evolve_nbody(st, vs, 0.2, 2e-3)
    g1 = reduce_marginal(st, 1)
    g2 = reduce_marginal(st, 2).matrix.reshape(8, 8, 8, 8)
    traced = np.einsum("xzyz->xy", g2) * g.dx
    assert np.allclose(traced, g1.matrix, atol=1e-12)


def test_marginal_validation(small):
    g, _, phi = small
    st = product_state(phi, 2, g)
    with pytest.raises(ValueError):
        reduce_marginal(st, 3)
    with pytest.raises(ValueError):
        reduce_marginal(product_state(phi, 1, g), 2)  # k must not exceed N
    # at k = N the marginal is the pure-state projection itself
    one = reduce_marginal(product_state(phi, 1, g), 1)
    assert np.allclose(one.matrix, projection_marginal(phi, g).matrix, atol=1e-15)
    pair = reduce_marginal(st, 2).matrix
    assert np.allclose(pair, np.outer(st.psi, st.psi.conj()), atol=1e-15)
    with pytest.raises(ValueError):
        marginal_boundary_mass(reduce_marginal(product_state(phi, 3, g), 2))


# ---------------------------------------------------------------------------
# distances


def test_trace_distance_orthogonal_pure_states(small):
    g, _, _ = small
    a = normalize(np.exp(1j * g.wavenumbers[1] * g.x), g)
    b = normalize(np.exp(1j * g.wavenumbers[2] * g.x), g)
    da = projection_marginal(a, g)
    db = projection_marginal(b, g)
    assert trace_distance(da, db) == pytest.approx(2.0, abs=1e-12)
    assert hs_distance(da, db) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert trace_distance(da, da) == 0.0


def test_trace_distance_against_jacobi_oracle(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    st = evolve_nbody(st, vs, 0.3, 2e-3)
    gamma = reduce_marginal(st, 1)
    proj = projection_marginal(phi, g)
    diff = gamma.matrix - proj.matrix
    want = float(np.sum(np.abs(hermitian_eigs_by_jacobi(diff))) * g.dx)
    assert trace_distance(gamma, proj) == pytest.approx(want, abs=1e-9)


def test_distance_grid_compatibility(small):
    g, _, phi = small
    other = GridSpec(8, 4.0)
    with pytest.raises(ValueError):
        trace_distance(
            projection_marginal(phi, g),
            MarginalDensity(other, 1, np.outer(phi, phi.conj()), 0.0),
        )


# ---------------------------------------------------------------------------
# interaction tensor


def test_interaction_tensor_matches_pair_loop():
    g = GridSpec(4, 4.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    n = 3
    w = interaction_tensor(g, vs, n)
    assert w.shape == (4, 4, 4)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                idx = (i, j, k)
                want = 0.0
                for a in range(n):
                    for b in range(a + 1, n):
                        want += vs[(idx[a] - idx[b]) % 4]
                want /= n
                assert w[i, j, k] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_phase_product_matches_the_interaction_tensor(n):
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    dt = 4e-3
    angle = -dt * interaction_tensor(g, vs, n)
    phase = potential_phase(g, vs, n, dt)
    assert phase.shape == (6,) * n
    assert np.max(np.abs(phase - (np.cos(angle) + 1j * np.sin(angle)))) <= 1e-14
    assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-14


# ---------------------------------------------------------------------------
# propagation against dense few-body oracles


def dense_hamiltonian(g, vs, n):
    """Sum of the kinetic matrix on each factor plus the diagonal pair term."""
    t = kinetic_matrix(g)
    eye = np.eye(g.points)
    h = np.diag(interaction_tensor(g, vs, n).ravel())
    for axis in range(n):
        factors = [eye] * n
        factors[axis] = t
        h += functools.reduce(np.kron, factors)
    return h


def test_two_body_evolution_matches_dense_exponential(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    h = dense_hamiltonian(g, vs, 2)
    want = expm(-1j * h * 0.25) @ st.psi.ravel()
    got = evolve_nbody(st, vs, 0.25, 1e-3)
    err = np.linalg.norm(got.psi.ravel() - want) * g.dx
    assert err < 1e-6
    # and the splitting error shrinks at second order
    got2 = evolve_nbody(st, vs, 0.25, 5e-4)
    err2 = np.linalg.norm(got2.psi.ravel() - want) * g.dx
    assert 3.0 <= err / err2 <= 5.0


def test_asymmetric_three_body_evolution_keeps_each_axis_in_place():
    # three different packets, so an axis left permuted cannot go unnoticed
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    packets = [
        gaussian_packet(g, 1.5, 0.8),
        gaussian_packet(g, 3.0, 1.0, 2.0),
        gaussian_packet(g, 4.5, 0.6, -1.0),
    ]
    psi = np.einsum("i,j,k->ijk", *packets)
    st = NBodyState(g, 3, psi, 0.0)
    assert symmetry_defect(st) > 0.1
    want = expm(-1j * dense_hamiltonian(g, vs, 3) * 0.25) @ psi.ravel()
    got = evolve_nbody(st, vs, 0.25, 1e-3)
    err = np.linalg.norm(got.psi.ravel() - want) * g.dx ** 1.5
    assert err < 1e-6


def test_energy_matches_dense_quadratic_form(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    h = dense_hamiltonian(g, vs, 2)
    want = float(np.vdot(st.psi.ravel(), h @ st.psi.ravel()).real * g.dx**2)
    assert nbody_energy(st, vs) == pytest.approx(want, rel=1e-11)


def test_energy_of_product_state_matches_one_body_closed_form():
    # E = N <phi, T phi> + ((N-1)/2) <|phi|^2, V |phi|^2>, summed in long double
    g = GridSpec(16, 16.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    phi = gaussian_packet(g, 8.0, 1.0, 0.5)
    n = 5
    ld = np.longdouble
    spectrum = np.fft.fft(phi)
    k2 = g.wavenumbers.astype(ld) ** 2
    one_body = np.sum(k2 * np.abs(spectrum).astype(ld) ** 2) * ld(g.dx) / g.points
    density = np.abs(phi).astype(ld) ** 2
    pair = density @ potential_matrix(vs, g).astype(ld) @ density * ld(g.dx) ** 2
    want = n * one_body + ld(n - 1) / 2 * pair
    got = nbody_energy(product_state(phi, n, g), vs)
    assert abs(float((ld(got) - want) / want)) <= 2e-14


def test_energy_of_symmetrized_state_matches_dense_quadratic_form():
    # a sum over all orderings of three different packets: symmetric, not a product
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), g)
    packets = [
        gaussian_packet(g, 1.5, 0.8),
        gaussian_packet(g, 3.0, 1.0, 2.0),
        gaussian_packet(g, 4.5, 0.6, -1.0),
    ]
    psi = sum(np.einsum("i,j,k->ijk", *(packets[i] for i in order)) for order in itertools.permutations(range(3)))
    psi /= np.linalg.norm(psi) * g.dx**1.5
    st = NBodyState(g, 3, psi, 0.0)
    assert symmetry_defect(st) < 1e-15
    assert np.linalg.matrix_rank(psi.reshape(6, 36)) > 1
    h = dense_hamiltonian(g, vs, 3)
    want = float(np.vdot(psi.ravel(), h @ psi.ravel()).real * g.dx**3)
    assert nbody_energy(st, vs) == pytest.approx(want, rel=1e-12)


def test_conservation_and_symmetry(small):
    g, vs, phi = small
    st = product_state(phi, 3, g)
    e0 = nbody_energy(st, vs)
    fin = evolve_nbody(st, vs, 0.5, 2e-3)
    assert abs(fin.norm() ** 2 - 1.0) < 1e-12
    assert abs(nbody_energy(fin, vs) - e0) < 1e-6
    assert symmetry_defect(fin) < 1e-12


def test_symmetry_defect_detects_asymmetry(small):
    g, _, phi = small
    other = gaussian_packet(g, 2.0, 0.7)
    psi = np.einsum("i,j->ij", phi, other)
    st = NBodyState(g, 2, psi / (np.linalg.norm(psi) * g.dx), 0.0)
    assert symmetry_defect(st) > 0.1


def test_evolution_validation(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    with pytest.raises(ValueError):
        evolve_nbody(st, vs, 0.1003, 1e-3)
    with pytest.raises(ValueError):
        evolve_nbody(st, vs, 0.0, 1e-3)


# ---------------------------------------------------------------------------
# hierarchy residual


def test_bbgky_residual_shrinks_at_second_order(small):
    g, vs, phi = small
    st = product_state(phi, 3, g)
    dt = 5e-4
    resid = {}
    for spacing in (8e-3, 4e-3):
        samples = [evolve_nbody(st, vs, 0.1 - spacing, dt)]
        for _ in range(2):
            samples.append(evolve_nbody(samples[-1], vs, spacing, dt))
        resid[spacing] = bbgky_residual(samples, vs)
    order = math.log2(resid[8e-3] / resid[4e-3])
    assert 1.7 <= order <= 2.3


def test_bbgky_residual_validation(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    samples = [evolve_nbody(st, vs, 0.1, 1e-3)]
    for _ in range(2):
        samples.append(evolve_nbody(samples[-1], vs, 0.1, 1e-3))
    with pytest.raises(ValueError):
        bbgky_residual(samples[:2], vs)
