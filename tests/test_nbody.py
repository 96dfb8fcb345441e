"""Exact N-body propagation and marginals against dense-matrix oracles.

The oracles: dense two- and three-particle Hamiltonians exponentiated
directly, an explicit pair-sum loop for the interaction tensor, the
one-body closed form of a product state's energy in extended precision, and
a hand-rolled cyclic Jacobi eigensolver (checked against its own invariants)
for the trace distance; and, on the default grid, the lattice engine's
N-particle sector, exponentiated exactly.  None of them share code with the
implementations under test.
"""

import functools
import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from meanfieldlab import fock as fk
from meanfieldlab import grid, nbody
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
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
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
    assert reduce_marginal(st, 1).trace() == pytest.approx(1.0, rel=1e-12)
    assert st.psi.shape == (8, 8, 8)
    # factorized: psi(x,y,z) = phi(x) phi(y) phi(z)
    want = np.einsum("i,j,k->ijk", phi, phi, phi)
    assert np.allclose(st.psi, want, atol=1e-14)
    # evolve_nbody overwrites the state, so even N = 1 must not share the orbital's memory
    assert not np.shares_memory(product_state(phi, 1, g).psi, phi)
    with pytest.raises(ValueError):
        product_state(phi, 0, g)


def test_product_state_refuses_by_working_set_before_allocating():
    # 16^7 = 2^28 amplitudes: one state is 4 GiB, the whole budget before any scratch
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
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    phi = gaussian_packet(g, 8.0, 1.0, 0.5)

    def sweep(n):
        # run_convergence's sequence for one N, with two sample times
        st = product_state(phi, n, g)
        nbody_energy(st, vs, reduce_marginal(st, 1))
        for _ in range(2):
            evolve_nbody(st, vs, 8e-3, 4e-3)
            nbody_energy(st, vs, reduce_marginal(st, 1))
            symmetry_defect(st)
        return st.psi.nbytes

    n = 5
    sweep(2)  # warm up outside the trace
    tracemalloc.start()
    try:
        sweep(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the model leaves out the one-body operators: the step's two kinetic
    # propagators, the two a slab folds them into, and room for two more
    assert peak <= working_set_bytes(g.points, n) + 6 * 16 * g.points**2


@pytest.mark.parametrize("workers", [2, 3])
def test_threaded_sweep_peak_stays_inside_the_admitted_working_set(monkeypatch, workers):
    # each worker holds its own buffers and the model charges them per worker
    monkeypatch.setattr(nbody, "pool_size", lambda: workers)
    test_sweep_peak_stays_inside_the_admitted_working_set()


@pytest.mark.parametrize(
    "blas, cpus, want",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),  # OpenBLAS reads its own first
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 4),  # and skips a count below one
        ({"OMP_NUM_THREADS": " 2 "}, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 4, 1),  # BLAS then uses every core
        ({}, 4, 1),
    ],
)
def test_pool_size_is_the_cpus_over_the_blas_threads(monkeypatch, blas, cpus, want):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(grid.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert grid.pool_size() == want


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
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
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
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    dt = 4e-3
    angle = -dt * interaction_tensor(g, vs, n)
    # evolve_nbody's phase on 6^n <= SLAB amplitudes, where it spans every axis
    pair = np.exp((-1j * dt / n) * potential_matrix(vs, g))
    inner, column = nbody._pair_tables(pair, n - 1)
    phase = inner[..., None] * column
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
    got = evolve_nbody(replace(st, psi=st.psi.copy()), vs, 0.25, 1e-3)
    err = np.linalg.norm(got.psi.ravel() - want) * g.dx
    assert err < 1e-6
    # and the splitting error shrinks at second order
    got2 = evolve_nbody(st, vs, 0.25, 5e-4)
    err2 = np.linalg.norm(got2.psi.ravel() - want) * g.dx
    assert 3.0 <= err / err2 <= 5.0


def three_packets(g):
    """Three different packets, so an axis left permuted cannot go unnoticed."""
    return [
        gaussian_packet(g, 1.5, 0.8),
        gaussian_packet(g, 3.0, 1.0, 2.0),
        gaussian_packet(g, 4.5, 0.6, -1.0),
    ]


def test_asymmetric_three_body_evolution_keeps_each_axis_in_place():
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    psi = np.einsum("i,j,k->ijk", *three_packets(g))
    st = NBodyState(g, 3, psi, 0.0)
    assert symmetry_defect(st) > 0.1
    want = expm(-1j * dense_hamiltonian(g, vs, 3) * 0.25) @ psi.ravel()
    got = evolve_nbody(st, vs, 0.25, 1e-3)
    err = np.linalg.norm(got.psi.ravel() - want) * g.dx ** 1.5
    assert err < 1e-6


def test_non_contiguous_state_matches_dense_exponential():
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    psi = np.swapaxes(np.einsum("i,j,k->ijk", *three_packets(g)), 0, 1)
    assert not psi.flags.c_contiguous
    want = expm(-1j * dense_hamiltonian(g, vs, 3) * 0.25) @ psi.ravel()
    got = evolve_nbody(NBodyState(g, 3, psi, 0.0), vs, 0.25, 1e-3)
    err = np.linalg.norm(got.psi.ravel() - want) * g.dx ** 1.5
    assert err < 1e-6


def test_blocked_step_matches_the_dense_exponential_at_every_split(monkeypatch):
    # Five different packets and a potential with V(x) != V(-x): every axis
    # and both orders of every pair have their own phase, so a leading index
    # read with its digits in the wrong order cannot go unnoticed.
    g = GridSpec(4, 4.0)
    vs = np.array([0.8, 0.5, -0.3, 0.1])
    packets = [
        gaussian_packet(g, center, width, momentum)
        for center, width, momentum in ((0.5, 0.6, 0.0), (1.5, 0.8, 1.0), (2.0, 0.5, -1.5), (2.5, 0.9, 0.5), (3.5, 0.7, -0.5))
    ]
    psi = functools.reduce(np.multiply.outer, packets)
    assert symmetry_defect(NBodyState(g, 5, psi, 0.0)) > 0.1
    want = expm(-1j * dense_hamiltonian(g, vs, 5) * 0.25) @ psi.ravel()
    runs, powers = [], []
    for lead in range(5):
        # a slab of 4^(5 - lead) amplitudes leaves `lead` leading axes
        monkeypatch.setattr(nbody, "SLAB", 4 ** (5 - lead))
        assert nbody._trailing_axes(4, 5) == 5 - lead
        st = evolve_nbody(NBodyState(g, 5, psi.copy(), 0.0), vs, 0.25, 1e-3)
        assert np.linalg.norm(st.psi.ravel() - want) * g.dx**2.5 < 1e-6
        runs.append(
            (
                st.psi,
                reduce_marginal(st, 1).matrix,
                reduce_marginal(st, 2).matrix,
                symmetry_defect(st),
                nbody_energy(st, vs, reduce_marginal(st, 1)),
            )
        )
        powers.append(product_state(packets[1], 5, g).psi.tobytes())
    for run in runs[1:]:
        for got, unblocked in zip(run[:-1], runs[0]):
            assert np.max(np.abs(got - unblocked)) <= 1e-13
        # the energy, about 3.4, is a sum over every amplitude, so it is held relative
        assert run[-1] == pytest.approx(runs[0][-1], rel=1e-13, abs=0)
    assert powers == powers[:1] * 5


def test_blocked_step_is_bitwise_independent_of_the_worker_count(monkeypatch):
    pools = []

    class Pool(grid.ThreadPoolExecutor):
        def __init__(self, threads):
            pools.append(threads)
            super().__init__(threads)

    monkeypatch.setattr(grid, "ThreadPoolExecutor", Pool)

    def assert_independent(g, vs, packets, span):
        psi = functools.reduce(np.multiply.outer, packets)
        states = []
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(nbody, "pool_size", lambda: workers)
            threads = threading.active_count()
            states.append(evolve_nbody(NBodyState(g, len(packets), psi.copy(), 0.0), vs, span, 1e-3).psi)
            assert threading.active_count() == threads  # the pool is gone with the call
        for got in states[1:]:
            assert np.array_equal(got, states[0])

    # 4, 16, 64 and 256 slabs: 3 workers divide none of them, 5 outnumber the
    # 4 slabs at one leading axis and the 4 column blocks at four
    g = GridSpec(4, 4.0)
    packets = [gaussian_packet(g, 0.5 + 0.7 * j, 0.5 + 0.1 * j, 1.0 - 0.6 * j) for j in range(5)]
    for lead in range(1, 5):
        monkeypatch.setattr(nbody, "SLAB", 4 ** (5 - lead))
        assert_independent(g, np.array([0.8, 0.5, -0.3, 0.1]), packets, 0.05)
    # the caller is one of the workers, and 5 workers on 4 slabs are 4
    assert pools == [1, 2, 3, 1, 2, 4, 1, 2, 4, 1, 2, 4]
    # Products on slabs of 4^k amplitudes are too short for the workers to
    # overlap.  On 16 points at N = 5 the 16 slabs are 1 MB each, numpy
    # releases the GIL and they do: a buffer two workers shared would show.
    # A short switch interval hands the interpreter lock around more often.
    monkeypatch.setattr(nbody, "SLAB", 2**16)
    g = GridSpec(16, 16.0)
    packets = [gaussian_packet(g, 6.0 + j, 1.0, 0.5 - 0.2 * j) for j in range(5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_independent(g, sample_potential(PotentialSpec(0.5, 1.0), g), packets, 3e-3)
    finally:
        sys.setswitchinterval(interval)


def test_chained_spans_agree_with_one_span_over_their_sum(small):
    # the harness reaches each sample time by one call per span from the last one
    g, vs, phi = small
    chained, whole = product_state(phi, 3, g), product_state(phi, 3, g)
    for span in (0.05, 0.1):
        evolve_nbody(chained, vs, span, 2e-3)
    evolve_nbody(whole, vs, 0.15, 2e-3)
    assert chained.t == pytest.approx(whole.t, abs=1e-15)
    assert np.max(np.abs(chained.psi - whole.psi)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_default_grid_sweep_converges_to_the_lattice_engine_at_second_order(n, main_grid, potential_samples, phi0):
    """The lattice engine's sector N, exponentiated exactly, as the dense engine's oracle.

    At zero field the generator at coupling N acts on sector N as H_N
    (tests/test_fock.py), so one exponential of the factorized state gives
    the exact marginal <b_y* b_x> / (N dx) at t = 0.5.  The dense engine's
    Strang step is second order: its relative gap to that marginal must fall
    by 4 per halving of the step.
    """
    t = 0.5
    space = fk.LatticeFockSpace(main_grid, n)
    gens = fk.GeneratorSet(space, potential_samples)
    h = gens.matrix(gens.coefficients(np.zeros(main_grid.points), n))
    coeffs = fk.expm_multiply(h, fk.product_state_fock(space, phi0, n).coeffs, t)
    lowered = np.stack([b @ coeffs for b in space.annihilators], axis=1)
    oracle = MarginalDensity(main_grid, 1, lowered.T @ lowered.conj() / (n * main_grid.dx), t)
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = evolve_nbody(product_state(phi0, n, main_grid), potential_samples, t, dt)
        gaps.append(hs_distance(reduce_marginal(state, 1), oracle) / oracle.norm())
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all(np.abs(ratios - 4.0) <= 0.2), (gaps, ratios)


def test_energy_matches_dense_quadratic_form(small):
    g, vs, phi = small
    st = product_state(phi, 2, g)
    h = dense_hamiltonian(g, vs, 2)
    want = float(np.vdot(st.psi.ravel(), h @ st.psi.ravel()).real * g.dx**2)
    assert nbody_energy(st, vs, reduce_marginal(st, 1)) == pytest.approx(want, rel=1e-11)


def test_energy_of_product_state_matches_one_body_closed_form():
    # E = N <phi, T phi> + ((N-1)/2) <|phi|^2, V |phi|^2>, summed in long double
    g = GridSpec(16, 16.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    phi = gaussian_packet(g, 8.0, 1.0, 0.5)
    n = 5
    ld = np.longdouble
    spectrum = np.fft.fft(phi)
    k2 = g.wavenumbers.astype(ld) ** 2
    one_body = np.sum(k2 * np.abs(spectrum).astype(ld) ** 2) * ld(g.dx) / g.points
    density = np.abs(phi).astype(ld) ** 2
    pair = density @ potential_matrix(vs, g).astype(ld) @ density * ld(g.dx) ** 2
    want = n * one_body + ld(n - 1) / 2 * pair
    st = product_state(phi, n, g)
    got = nbody_energy(st, vs, reduce_marginal(st, 1))
    assert abs(float((ld(got) - want) / want)) <= 2e-14


def test_energy_of_symmetrized_state_matches_dense_quadratic_form():
    # a sum over all orderings of three different packets: symmetric, not a product
    g = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec(0.5, 1.0), g)
    packets = three_packets(g)
    psi = sum(np.einsum("i,j,k->ijk", *(packets[i] for i in order)) for order in itertools.permutations(range(3)))
    psi /= np.linalg.norm(psi) * g.dx**1.5
    st = NBodyState(g, 3, psi, 0.0)
    assert symmetry_defect(st) < 1e-15
    assert np.linalg.matrix_rank(psi.reshape(6, 36)) > 1
    h = dense_hamiltonian(g, vs, 3)
    want = float(np.vdot(psi.ravel(), h @ psi.ravel()).real * g.dx**3)
    assert nbody_energy(st, vs, reduce_marginal(st, 1)) == pytest.approx(want, rel=1e-12)


def test_energy_reuses_the_marginal_it_is_given(small):
    g, vs, phi = small
    st = evolve_nbody(product_state(phi, 3, g), vs, 0.1, 2e-3)
    gamma = reduce_marginal(st, 1)
    assert nbody_energy(st, vs, gamma) == nbody_energy(st, vs, reduce_marginal(st, 1))
    for other in (reduce_marginal(st, 2), replace(gamma, t=0.0)):
        with pytest.raises(ValueError, match="not the one-body marginal"):
            nbody_energy(st, vs, other)


def test_conservation_and_symmetry(small):
    g, vs, phi = small
    st = product_state(phi, 3, g)
    e0 = nbody_energy(st, vs, reduce_marginal(st, 1))
    fin = evolve_nbody(st, vs, 0.5, 2e-3)
    gamma = reduce_marginal(fin, 1)
    assert abs(gamma.trace() - 1.0) < 1e-12
    assert abs(nbody_energy(fin, vs, gamma) - e0) < 1e-6
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
    resid = {}
    for spacing in (8e-3, 4e-3):
        samples = [evolve_nbody(replace(st, psi=st.psi.copy()), vs, 0.1 - spacing, 5e-4)]
        for _ in range(2):
            last = samples[-1]
            samples.append(evolve_nbody(replace(last, psi=last.psi.copy()), vs, spacing, 5e-4))
        resid[spacing] = bbgky_residual(samples, vs)
    order = math.log2(resid[8e-3] / resid[4e-3])
    assert 1.7 <= order <= 2.3


def test_bbgky_residual_validation(small):
    g, vs, phi = small
    samples = [evolve_nbody(product_state(phi, 2, g), vs, 0.1, 1e-3)]
    for _ in range(2):
        last = samples[-1]
        samples.append(evolve_nbody(replace(last, psi=last.psi.copy()), vs, 0.1, 1e-3))
    with pytest.raises(ValueError):
        bbgky_residual(samples[:2], vs)
