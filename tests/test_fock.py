"""Truncated Fock engine against closed forms and dense operator oracles.

The oracles: hand-applied ladder arithmetic on explicit occupation states,
the Poisson closed form for displaced vacua, the phase-average identity for
factorized states, and a from-scratch second-quantized dense assembly of the
fluctuation generator.
"""

from math import comb, factorial, sqrt

import numpy as np
import pytest

import meanfieldlab.fock as fk
from meanfieldlab.grid import GridSpec, PotentialSpec, normalize, sample_potential
from meanfieldlab.hartree import evolve_hartree


@pytest.fixture(scope="module")
def lattice():
    """Two asymmetric sites with dx = 1, cutoff 8, and a short trajectory."""
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 8)
    vs = sample_potential(PotentialSpec("gaussian", 0.5, 1.0), space.grid)
    phi0 = normalize(np.array([1.0, 0.45 + 0.2j]), space.grid)
    traj = evolve_hartree(phi0, vs, space.grid, 0.5, 2e-3)
    gens = fk.GeneratorSet(space, vs)
    return space, vs, phi0, traj, gens


# ---------------------------------------------------------------------------
# basis bookkeeping


def test_dimensions():
    assert fk.LatticeFockSpace(GridSpec(2, 2.0), 2).dimension == 6
    assert fk.LatticeFockSpace(GridSpec(1, 1.0), 5).dimension == 6
    assert fk.LatticeFockSpace(GridSpec(3, 3.0), 2).dimension == 10
    assert fk.LatticeFockSpace(GridSpec(4, 4.0), 13).dimension == comb(17, 4)


def test_index_occupation_roundtrip():
    space = fk.LatticeFockSpace(GridSpec(3, 3.0), 4)
    for i, row in enumerate(space.occupations):
        assert space.index[tuple(row)] == i
    # graded: totals never decrease along the enumeration
    assert np.all(np.diff(space.totals) >= 0)
    for total in range(5):
        sl = space.sector_slice(total)
        assert np.all(space.totals[sl] == total)
    assert space.sector_offsets[-1] == space.dimension


def test_basis_validation():
    with pytest.raises(ValueError):
        fk.LatticeFockSpace(GridSpec(2, 2.0), 0)
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 3)
    with pytest.raises(ValueError):
        space.sector_slice(4)
    with pytest.raises(ValueError):
        fk.FockVector(space, np.zeros(3))


def test_annihilator_action_by_hand():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 4)
    # b_0 on |n0=3, n1=1> gives sqrt(3) |n0=2, n1=1>
    c = np.zeros(space.dimension, dtype=complex)
    c[space.index[(3, 1)]] = 1.0
    out = space.annihilators[0] @ c
    want = np.zeros(space.dimension, dtype=complex)
    want[space.index[(2, 1)]] = sqrt(3.0)
    assert np.allclose(out, want, atol=1e-15)
    # b_1 kills states with the mode empty
    c2 = np.zeros(space.dimension, dtype=complex)
    c2[space.index[(2, 0)]] = 1.0
    assert np.all(space.annihilators[1] @ c2 == 0)


def test_commutator_on_safe_subspace():
    """[a(f), a*(g)] = <f, g> on states that cannot touch the cutoff."""
    space = fk.LatticeFockSpace(GridSpec(3, 6.0), 4)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lower = fk.ladder(space, f, create=False)
    raise_ = fk.ladder(space, g, create=True)
    comm = (lower @ raise_ - raise_ @ lower).toarray()
    inner = space.grid.dx * np.vdot(f, g)
    safe = space.totals <= space.cutoff - 1
    want = inner * np.eye(space.dimension)
    assert np.max(np.abs(comm[:, safe] - want[:, safe])) < 1e-12


def test_ladder_validation():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 3)
    with pytest.raises(ValueError):
        fk.ladder(space, np.ones(3), create=True)


# ---------------------------------------------------------------------------
# sector diagnostics


def test_sector_diagnostics_on_hand_vector():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 3)
    c = np.zeros(space.dimension, dtype=complex)
    c[space.index[(0, 0)]] = 0.6
    c[space.index[(1, 0)]] = 0.8j
    vec = fk.FockVector(space, c)
    masses = fk.sector_masses(vec)
    assert masses[0] == pytest.approx(0.36)
    assert masses[1] == pytest.approx(0.64)
    assert fk.number_moment(vec, 1) == pytest.approx(0.64)
    assert fk.number_moment(vec, 2) == pytest.approx(0.64)
    assert fk.shifted_number_norm(vec, 2) == pytest.approx(sqrt(0.36 + 4 * 0.64))
    assert fk.odd_sector_mass(vec) == pytest.approx(0.64)
    assert fk.top_sector_mass(vec) == 0.0
    c[space.index[(1, 1)]] = 0.5
    assert fk.top_sector_mass(fk.FockVector(space, c)) == pytest.approx(0.25)


def test_block_diagnostics_are_per_column():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 4)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((space.dimension, 3)) + 1j * rng.standard_normal((space.dimension, 3))
    cols = [fk.FockVector(space, block[:, k]) for k in range(3)]
    masses = fk.sector_masses(fk.FockVector(space, block))
    assert masses.shape == (space.cutoff + 1, 3)
    assert np.array_equal(masses, np.stack([fk.sector_masses(c) for c in cols], axis=1))
    want = max(fk.top_sector_mass(c) for c in cols)
    for shift in range(3):  # the worst column may sit anywhere in the block
        rolled = fk.FockVector(space, np.roll(block, shift, axis=1))
        assert fk.top_sector_mass(rolled) == want
    # scalar diagnostics refuse a block instead of mixing its columns
    with pytest.raises(TypeError):
        fk.number_moment(fk.FockVector(space, block))
    with pytest.raises(ValueError):
        fk.FockVector(space, np.zeros((space.dimension + 1, 3)))
    with pytest.raises(ValueError):
        fk.FockVector(space, np.zeros((space.dimension, 3, 1)))


# ---------------------------------------------------------------------------
# displacement


def test_displaced_vacuum_matches_poisson_closed_form():
    """Sector coefficients of the displaced vacuum are e^{-N/2} N^{n/2}/sqrt(n!).

    With ten sectors of headroom the exponential action reproduces the
    closed form to machine precision on every sector up to 20.
    """
    space = fk.LatticeFockSpace(GridSpec(1, 1.0), 30)
    out, leak = fk.weyl_apply(space, np.array([sqrt(2.0)]), fk.vacuum(space))
    assert leak < 1e-12
    for n in range(21):
        want = np.exp(-1.0) * 2.0 ** (n / 2.0) / sqrt(factorial(n))
        assert abs(out.coeffs[space.sector_slice(n)][0] - want) < 1e-10


def test_displaced_vacuum_truncation_tail():
    """At cutoff 20 the topmost sectors feel the missing upward channel.

    The deviation is pure truncation: the exponential action agrees with the
    dense matrix exponential of the same truncated generator to rounding, and
    the redistribution stays near the scale of the lost amplitude.
    """
    from scipy.linalg import expm

    space = fk.LatticeFockSpace(GridSpec(1, 1.0), 20)
    f = np.array([sqrt(2.0)])
    out, _ = fk.weyl_apply(space, f, fk.vacuum(space))
    gen = (fk.ladder(space, f, True) - fk.ladder(space, f, False)).toarray()
    dense = expm(gen) @ fk.vacuum(space).coeffs
    assert np.max(np.abs(out.coeffs - dense)) < 1e-13
    errs = [
        abs(out.coeffs[space.sector_slice(n)][0] - np.exp(-1.0) * 2.0 ** (n / 2.0) / sqrt(factorial(n)))
        for n in range(21)
    ]
    assert max(errs[:17]) < 1e-10
    assert max(errs) < 1e-7
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_weyl_identity_and_unitarity():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 6)
    vec = fk.vacuum(space)
    same, leak = fk.weyl_apply(space, np.zeros(2), vec)
    assert np.array_equal(same.coeffs, vec.coeffs)
    assert leak == 0.0
    big, leak_big = fk.weyl_apply(space, np.array([2.5, 0.0]), vec)
    # unitary even when truncation bites; the leakage flag carries the warning
    assert big.norm() == pytest.approx(1.0, abs=1e-12)
    assert leak_big > 1e-3


def test_displaced_vacuum_number_moment():
    # Poisson mean: <N> = ||f||^2 in the grid inner product
    space = fk.LatticeFockSpace(GridSpec(1, 0.25), 30)
    out, _ = fk.weyl_apply(space, np.array([2.0]), fk.vacuum(space))
    assert fk.number_moment(out, 1) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# one-particle sector readback (mode-order regression)


def test_one_particle_values_roundtrip():
    """a*(f) vacuum reads back as exactly f, entry by entry.

    Guards the mode routing: the in-sector basis enumeration is lexicographic
    over occupation rows, which lists the highest mode first, so a readback
    that assumes enumeration order returns the modes reversed.
    """
    space = fk.LatticeFockSpace(GridSpec(4, 2.0), 3)
    f = np.array([1.0, 2.0j, -3.0, 0.5 - 0.5j])
    vec = fk.FockVector(space, fk.ladder(space, f, create=True) @ fk.vacuum(space).coeffs)
    got = fk.one_particle_values(vec)
    assert np.allclose(got, f, atol=1e-13)


# ---------------------------------------------------------------------------
# factorized states


def test_product_state_fock_basics(lattice):
    space, _, phi0, _, _ = lattice
    st = fk.product_state_fock(space, phi0, 3)
    assert st.norm() == pytest.approx(1.0, rel=1e-12)
    masses = fk.sector_masses(st)
    assert masses[3] == pytest.approx(1.0, rel=1e-12)
    assert np.sum(masses) - masses[3] == 0.0
    assert fk.number_moment(st, 1) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        fk.product_state_fock(space, phi0, 0)
    with pytest.raises(ValueError):
        fk.product_state_fock(space, phi0, 9)


def test_phase_average_reconstructs_product_state():
    """Averaging displaced vacua over a phase circle filters one sector.

    The trapezoid rule on 2*cutoff+1 angles is exact for the trigonometric
    degree involved, so the only error left is the truncation of the
    displaced state itself, which dies out fast with cutoff headroom.
    """
    errs = {}
    for cutoff in (10, 16):
        space = fk.LatticeFockSpace(GridSpec(2, 2.0), cutoff)
        phi = normalize(np.array([1.0, 0.6 + 0.3j]), space.grid)
        want = fk.product_state_fock(space, phi, 3)
        got = fk.reconstruct_product_state(space, phi, 3)
        errs[cutoff] = float(np.linalg.norm(got.coeffs - want.coeffs))
        outside = fk.sector_masses(got)
        outside[3] = 0.0
        assert np.sum(outside) < 1e-10
    assert errs[16] < 1e-10
    assert errs[16] < errs[10] / 1e4


def test_reconstruction_validation():
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 6)
    phi = normalize(np.array([1.0, 0.5]), space.grid)
    with pytest.raises(ValueError):
        fk.reconstruct_product_state(space, phi, 3, quad_points=12)
    with pytest.raises(ValueError):
        fk.reconstruct_product_state(space, phi, 7)
    # explicit count above the floor works
    out = fk.reconstruct_product_state(space, phi, 2, quad_points=15)
    assert fk.sector_masses(out)[2] > 0.9


# ---------------------------------------------------------------------------
# generators


def dense_generator(space, vs, phi, which, n_field):
    """Second-quantized assembly from raw ladder matrices, term by term."""
    from meanfieldlab.bogoliubov import coupling_kernels
    from meanfieldlab.grid import kinetic_matrix, potential_matrix

    grid = space.grid
    m = grid.points
    dx = grid.dx
    b = [op.toarray() for op in space.annihilators]
    bd = [op.T.conj() for op in b]
    h = np.zeros((space.dimension, space.dimension), dtype=complex)
    if which in ("full", "quadratic"):
        kern = coupling_kernels(phi, vs, grid)
        tmat = kinetic_matrix(grid)
        for i in range(m):
            for j in range(m):
                w = tmat[i, j] + dx * kern.k1[i, j] + (kern.u_eff[i] if i == j else 0.0)
                h += w * (bd[i] @ b[j])
                h += 0.5 * dx * kern.k2[i, j] * (bd[i] @ bd[j])
                h += 0.5 * dx * np.conj(kern.k2[i, j]) * (b[i] @ b[j])
    vmat = potential_matrix(vs, grid)
    if which in ("full", "cubic"):
        s = sqrt(dx / n_field)
        for i in range(m):
            for j in range(m):
                term = s * vmat[i, j] * phi[j] * (bd[i] @ bd[j] @ b[i])
                h += term + term.conj().T
    if which in ("full", "quartic"):
        for i in range(m):
            for j in range(m):
                h += vmat[i, j] / (2.0 * n_field) * (bd[i] @ bd[j] @ b[j] @ b[i])
    return h


@pytest.mark.parametrize("which", ["quadratic", "cubic", "quartic", "full"])
def test_generator_matches_dense_assembly(which):
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 3)
    vs = sample_potential(PotentialSpec("gaussian", 0.7, 0.9), space.grid)
    phi = normalize(np.array([1.0, 0.3 - 0.4j]), space.grid)
    gens = fk.GeneratorSet(space, vs)
    got = gens.matrix(phi, which, 5.0).toarray()
    want = dense_generator(space, vs, phi, which, 5.0)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got - got.conj().T)) < 1e-12


def test_generator_sector_transfer_structure(lattice):
    space, _, phi0, _, gens = lattice
    totals = space.totals
    for which, allowed in (("quadratic", {0, 2}), ("cubic", {1}), ("quartic", {0})):
        h = gens.matrix(phi0, which, 4.0).toarray()
        rows, cols = np.nonzero(np.abs(h) > 1e-14)
        jumps = set(np.abs(totals[rows] - totals[cols]).tolist())
        assert jumps <= allowed


def test_cubic_and_quartic_annihilate_vacuum(lattice):
    space, _, phi0, _, gens = lattice
    vac = fk.vacuum(space).coeffs
    assert np.all(gens.matrix(phi0, "cubic", 3.0) @ vac == 0)
    assert np.all(gens.matrix(phi0, "quartic", 3.0) @ vac == 0)
    with pytest.raises(ValueError):
        gens.coefficients(phi0, "cubic+quartic", 3.0)


def test_bound_probe_scaling_is_exact(lattice):
    space, _, phi0, _, gens = lattice
    out = fk.generator_bound_probe(gens, phi0, (4, 16, 64), trials=3, seed=1)
    for part in ("cubic", "quartic"):
        vals = list(out[part].values())
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)
        assert vals[0] > 0.0


# ---------------------------------------------------------------------------
# propagation


def test_evolution_unitary_and_reversible(lattice):
    space, _, _, traj, gens = lattice
    start = fk.product_state_fock(space, normalize(np.array([1.0, 0.8j]), space.grid), 2)
    fwd = fk.evolve_fock(gens, start, traj, 0.0, 0.3, 2e-3, "full", 6.0)
    assert fwd.state.norm() == pytest.approx(1.0, abs=1e-11)
    back = fk.evolve_fock(gens, fwd.state, traj, 0.3, 0.0, 2e-3, "full", 6.0)
    assert np.linalg.norm(back.state.coeffs - start.coeffs) < 1e-10


def test_quadratic_flow_preserves_parity(lattice):
    space, _, _, traj, gens = lattice
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.5, 2e-3, "quadratic")
    assert fk.odd_sector_mass(run.state) == 0.0
    assert run.top_mass < 1e-4


def test_snapshots_and_span_validation(lattice):
    space, _, _, traj, gens = lattice
    run = fk.evolve_fock(
        gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, "quadratic", snapshot_times=(0.0, 0.1, 0.2)
    )
    assert set(run.snapshots) == {0.0, 0.1, 0.2}
    assert np.array_equal(run.snapshots[0.0].coeffs, fk.vacuum(space).coeffs)
    assert np.array_equal(run.snapshots[0.2].coeffs, run.state.coeffs)
    half = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.1, 2e-3, "quadratic")
    assert np.array_equal(run.snapshots[0.1].coeffs, half.state.coeffs)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.0, 2e-3)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2001, 2e-3)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, snapshot_times=(0.05001,))
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, snapshot_times=(0.3,))


# ---------------------------------------------------------------------------
# Heisenberg residual field


def test_residual_aggregates_decay_with_coupling(lattice):
    space, _, _, traj, gens = lattice
    t, dt = 0.5, 2e-3
    fwd_quad = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, t, dt, "quadratic")
    bq, tq = fk.site_backs(gens, traj, fwd_quad.state, t, dt, "quadratic", 1.0)
    parts = (bq, max(fwd_quad.top_mass, tq))
    aggs = {}
    for n in (8, 16):
        fwd = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, t, dt, "full", n)
        res = fk.annihilator_residual(gens, traj, t, dt, n, fwd.state, parts)
        aggs[n] = res.aggregates
        assert res.top_mass < 1e-4
        # the (N+1)^j weights are >= 1 and increasing in j
        assert res.aggregates[0] <= res.aggregates[1] <= res.aggregates[2]
    for j in (0, 1, 2):
        assert 1.6 <= aggs[8][j] / aggs[16][j] <= 2.4


def test_site_backs_restriction(lattice):
    space, _, _, traj, gens = lattice
    fwd = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, "quadratic")
    all_backs, _ = fk.site_backs(gens, traj, fwd.state, 0.2, 2e-3, "quadratic", 1.0)
    assert len(all_backs) == space.grid.points
    for site in range(space.grid.points):
        one_back, _ = fk.site_backs(
            gens, traj, fwd.state, 0.2, 2e-3, "quadratic", 1.0, sites=(site,)
        )
        assert len(one_back) == 1
        assert np.array_equal(one_back[0].coeffs, all_backs[site].coeffs)
