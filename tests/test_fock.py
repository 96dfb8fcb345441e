"""Truncated Fock engine against closed forms and dense operator oracles.

The oracles: hand-applied ladder arithmetic on explicit occupation states,
a dict from occupation vectors to basis positions built in the test,
the Poisson closed form for displaced vacua, the dense matrix exponential,
a from-scratch second-quantized dense assembly of the fluctuation
generator, and the dense N-body Hamiltonian of the first-quantized engine.
"""

import functools
import sys
import tracemalloc
from math import comb, factorial, inf, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

import meanfieldlab.fock as fk
from meanfieldlab.bogoliubov import evolve_pair
from meanfieldlab.grid import (
    GridSpec,
    PotentialSpec,
    gaussian_packet,
    kinetic_matrix,
    normalize,
    potential_matrix,
    sample_potential,
    step_pool,
)
from meanfieldlab.hartree import HartreeTrajectory, evolve_hartree
from meanfieldlab.nbody import interaction_tensor, product_state, reduce_marginal


@pytest.fixture(scope="module")
def lattice():
    """Two asymmetric sites with dx = 1, cutoff 8, and a short trajectory."""
    space = fk.LatticeFockSpace(GridSpec(2, 2.0), 8)
    vs = sample_potential(PotentialSpec(0.5, 1.0), space.grid)
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
        assert space.locate(row) == i
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
    c[space.locate((3, 1))] = 1.0
    out = space.annihilators[0] @ c
    want = np.zeros(space.dimension, dtype=complex)
    want[space.locate((2, 1))] = sqrt(3.0)
    assert np.allclose(out, want, atol=1e-15)
    # b_1 kills states with the mode empty
    c2 = np.zeros(space.dimension, dtype=complex)
    c2[space.locate((2, 0))] = 1.0
    assert np.all(space.annihilators[1] @ c2 == 0)


@pytest.mark.parametrize("sites, cutoff", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_annihilators_against_occupation_dict(sites, cutoff):
    """b_i |n> = sqrt(n_i) |n - e_i>, with every target found through a plain dict."""
    space = fk.LatticeFockSpace(GridSpec(sites, float(sites)), cutoff)
    position = {tuple(row): s for s, row in enumerate(space.occupations.tolist())}
    assert len(position) == space.dimension == comb(cutoff + sites, sites)
    for i, b in enumerate(space.annihilators):
        want = np.zeros((space.dimension, space.dimension))
        for n, s in position.items():
            if n[i]:
                lowered = n[:i] + (n[i] - 1,) + n[i + 1 :]
                want[position[lowered], s] = sqrt(n[i])
        assert np.array_equal(b.toarray(), want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6))
def test_locate_inverts_the_enumeration(sites, cutoff):
    space = fk.LatticeFockSpace(GridSpec(sites, 1.0), cutoff)
    assert np.array_equal(space.locate(space.occupations), np.arange(space.dimension))
    assert np.array_equal(space.locate(space.occupations[::-1]), np.arange(space.dimension)[::-1])


@pytest.mark.parametrize(
    "occ",
    [(-1, 2, 0), (2, 2, 1), (1, 1), (1, 0, 0, 0), (1.0, 0.0, 0.0), [[0, 0, 0], [0, 5, 0]]],
    ids=["negative", "above cutoff", "too short", "too long", "not integer", "one bad row"],
)
def test_locate_refuses_vectors_outside_the_basis(occ):
    space = fk.LatticeFockSpace(GridSpec(3, 3.0), 4)
    with pytest.raises(ValueError):
        space.locate(np.array(occ))


def test_oversized_lattice_is_refused_before_allocating():
    tracemalloc.start()
    try:
        # C(29, 16) = 67,863,915 basis states
        with pytest.raises(MemoryError, match="exceeds the budget"):
            fk.LatticeFockSpace(GridSpec(16, 16.0), 13)
        # 112 B x 45 skeletons x C(69, 4) states is just above the 4 GiB budget
        with pytest.raises(MemoryError, match="exceeds the budget"):
            fk.LatticeFockSpace(GridSpec(4, 4.0), 65)
        # keys below 2^64 do not fit in int64, even though the bank would be small
        with pytest.raises(ValueError, match="overflow int64"):
            fk.LatticeFockSpace(GridSpec(63, 63.0), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # 112 B x 45 skeletons x C(68, 4) states is just below the budget
    assert fk.admit_lattice(4, 64) == comb(68, 4)
    assert fk.admit_lattice(4, 56) == 487_635
    # keys below 2^63 fit: the largest binary lattice is still located exactly
    space = fk.LatticeFockSpace(GridSpec(62, 62.0), 1)
    assert np.array_equal(space.locate(space.occupations), np.arange(63))


@pytest.mark.parametrize("sites, cutoff", [(1, 5000), (2, 100), (3, 30), (4, 15)])
def test_generator_build_peaks_below_its_admission_charge(sites, cutoff):
    space = fk.LatticeFockSpace(GridSpec(sites, float(sites)), cutoff)
    vs = sample_potential(PotentialSpec(1.0, 1.0), space.grid)
    tracemalloc.start()
    try:
        gens = fk.GeneratorSet(space, vs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gens.n_terms == (sites + 1) * (2 * sites + 1)
    # admit_lattice charges 112 B per basis state and skeleton
    assert peak < 112 * gens.n_terms * space.dimension


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
    c[space.locate((0, 0))] = 0.6
    c[space.locate((1, 0))] = 0.8j
    vec = fk.FockVector(space, c)
    masses = fk.sector_masses(vec)
    assert masses[0] == pytest.approx(0.36)
    assert masses[1] == pytest.approx(0.64)
    assert fk.number_moment(vec, 1) == pytest.approx(0.64)
    assert fk.number_moment(vec, 2) == pytest.approx(0.64)
    assert fk.shifted_number_norm(vec, 2) == pytest.approx(sqrt(0.36 + 4 * 0.64))
    assert fk.odd_sector_mass(vec) == pytest.approx(0.64)
    assert fk.top_sector_mass(vec) == 0.0
    c[space.locate((1, 1))] = 0.5
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


@pytest.mark.parametrize("cutoff", [1, 2, 5])
def test_top_sector_mass_is_the_top_two_rows_of_the_sector_masses(cutoff):
    """Bitwise the sum of the last two ``sector_masses`` rows, and a NaN there stays NaN."""
    space = fk.LatticeFockSpace(GridSpec(3, 3.0), cutoff)
    rng = np.random.default_rng(cutoff)

    def formula(vec):
        return float(np.max(np.sum(fk.sector_masses(vec)[-2:], axis=0)))

    for shape in [(space.dimension,), (space.dimension, 1), (space.dimension, 4)]:
        for _ in range(5):
            vec = fk.FockVector(space, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            assert fk.top_sector_mass(vec) == formula(vec)
    top = space.sector_slice(cutoff)
    for row in (space.sector_offsets[-3], top.start, top.stop - 1):
        vec = fk.FockVector(space, rng.standard_normal((space.dimension, 4)))
        vec.coeffs[row, 2] = np.nan
        assert np.isnan(fk.top_sector_mass(vec))


@pytest.mark.parametrize("sites, cutoff", [(1, 40), (2, 9), (4, 6)])
def test_generator_pattern_matches_the_sorted_union_of_its_skeletons(sites, cutoff):
    """The canonical-pattern build gives the bank of np.unique over the keys row * dim + col."""
    space = fk.LatticeFockSpace(GridSpec(sites, float(sites)), cutoff)
    vs = sample_potential(PotentialSpec(1.0, 1.0), space.grid)
    gens = fk.GeneratorSet(space, vs)
    dim = space.dimension
    skeletons = fk._skeletons(space, potential_matrix(vs, space.grid))
    union, position = np.unique(
        np.concatenate([rows.astype(np.int64) * dim + cols for rows, cols, _ in skeletons]),
        return_inverse=True,
    )
    bank = sparse.csr_matrix(
        (
            np.concatenate([data for _, _, data in skeletons]),
            position,
            np.cumsum([0] + [len(data) for _, _, data in skeletons]),
        ),
        shape=(len(skeletons), len(union)),
    )
    assert np.array_equal(gens._indptr, np.searchsorted(union, np.arange(dim + 1) * dim))
    assert np.array_equal(gens._indices, union % dim)
    assert gens._bank.shape == bank.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(gens._bank, attr), getattr(bank, attr))


def test_infinite_weights_outside_the_basis_are_dropped():
    """A raiser whose weight overflows to inf keeps no column from which it would leave the basis.

    Its step has no finite interval and is refused with a ``ValueError`` that names the interval.
    """
    space = fk.LatticeFockSpace(GridSpec(4, 4.0), 4)
    vs = sample_potential(PotentialSpec(1e308, 1.0), space.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        skeletons = fk._skeletons(space, potential_matrix(vs, space.grid))
        assert any(np.isinf(data).any() for _, _, data in skeletons)
        assert all(np.all(rows < space.dimension) for rows, _, _ in skeletons)
        gens = fk.GeneratorSet(space, vs)
        weights = gens.coefficients(np.full(4, 0.5), 8.0)
        h = gens.matrix(weights)
        with pytest.raises(ValueError, match="spectral interval"):
            gens.step(h, weights, fk.vacuum(space).coeffs, 0.05, None)


def test_generator_matrices_share_the_read_only_pattern(lattice):
    _, _, phi0, _, gens = lattice
    h = gens.matrix(gens.coefficients(phi0, 4.0))
    assert np.shares_memory(h.indices, gens._indices) and np.shares_memory(h.indptr, gens._indptr)
    with pytest.raises(ValueError, match="read-only"):
        h.indices[0] = 0


# ---------------------------------------------------------------------------
# exponential step


def random_hermitian(dim, seed):
    """Sparse complex Hermitian matrix, about a fifth of its entries stored."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= rng.random((dim, dim)) < 0.2
    return sparse.csr_matrix(a + a.conj().T)


@pytest.mark.parametrize("tau", [0.7, -1.9])
def test_step_matches_dense_exponential(tau):
    h = random_hermitian(30, 3)
    exact = expm(-1j * tau * h.toarray())
    rng = np.random.default_rng(4)
    block = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    for x in (block[:, 0], block):
        got = fk.expm_multiply(h, x, tau)
        want = exact @ x
        assert got.shape == x.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_step_block_equals_columns():
    h = random_hermitian(30, 5)
    rng = np.random.default_rng(6)
    block = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    got = fk.expm_multiply(h, block, 1.3)
    cols = np.stack([fk.expm_multiply(h, block[:, k], 1.3) for k in range(3)], axis=1)
    assert np.max(np.abs(got - cols)) <= 1e-14 * np.max(np.abs(cols))


def test_step_on_diagonal_generators():
    """Diagonal generators, with or without stored entries, give exp(-i tau d) x."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    d = np.array([-2.0, 0.5, 0.5, 3.0, 1.25])
    sparse_d = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
    empty_rows = sparse.csr_matrix(np.diag(sparse_d))
    assert np.count_nonzero(np.diff(empty_rows.indptr) == 0) == 3
    for tau in (0.4, -1.1):
        got = fk.expm_multiply(sparse.diags(d, format="csr"), x, tau)
        assert np.max(np.abs(got - np.exp(-1j * tau * d) * x)) < 1e-14
        got = fk.expm_multiply(empty_rows, x, tau)
        assert np.max(np.abs(got - np.exp(-1j * tau * sparse_d) * x)) < 1e-14
        # a constant diagonal is one phase, and no stored entries at all is the identity
        got = fk.expm_multiply(sparse.diags(np.full(5, 2.5), format="csr"), x, tau)
        assert np.array_equal(got, np.exp(-2.5j * tau) * x)
        assert np.array_equal(fk.expm_multiply(sparse.csr_matrix((5, 5)), x, tau), x)


def test_step_on_a_known_interval():
    """The Gershgorin interval passed in is the step without one; a wider one is still exact."""
    h = random_hermitian(30, 8)
    rng = np.random.default_rng(9)
    block = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    lo, hi = fk.gershgorin_interval(h)
    for tau in (0.7, -1.9):
        want = expm(-1j * tau * h.toarray()) @ block
        assert np.array_equal(fk.expm_multiply(h, block, tau, (lo, hi)), fk.expm_multiply(h, block, tau))
        wide = fk.expm_multiply(h, block, tau, (lo - 3.5, hi + 7.25))
        assert np.linalg.norm(wide - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_step_refuses_a_generator_without_a_finite_interval(entry):
    """An inf or NaN entry leaves no finite interval: a ``ValueError`` that names it, not an overflow."""
    h = sparse.csr_matrix(np.array([[1.0, entry], [entry, 0.0]]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"spectral interval \[.*\] has no finite width"):
            fk.expm_multiply(h, np.array([1.0, 0.0], dtype=complex), 0.1)


@pytest.fixture(scope="module", params=[13, 15])
def default_lattice(request):
    """The default four sites at the default cutoff and its swept one, and a field."""
    space = fk.LatticeFockSpace(GridSpec(4, 4.0), request.param)
    vs = sample_potential(PotentialSpec(0.5, 1.0), space.grid)
    phi = normalize(np.array([1.0, 0.6 + 0.3j, 0.2, 0.5 - 0.1j]), space.grid)
    return fk.GeneratorSet(space, vs), phi


# the interval may miss the dense spectrum by rounding only: 1e-12 of its larger end, at least 1e-12
INTERVAL_ROUNDING = 1e-12
COMPLEX_ENTRIES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 8),
    st.lists(COMPLEX_ENTRIES, min_size=3, max_size=3),
    st.sampled_from([1.0, 8.0, 64.0, inf]),
)
@example(3, 8, [0j, 0j, 0j], 1.0)
def test_interval_holds_the_spectrum(sites, cutoff, orbital, n_field):
    """``interval(weights)`` holds every eigenvalue of the dense ``matrix(weights)``, the zero orbital too."""
    space = fk.LatticeFockSpace(GridSpec(sites, 1.5 * sites), cutoff)
    gens = fk.GeneratorSet(space, sample_potential(PotentialSpec(0.5, 1.0), space.grid))
    weights = gens.coefficients(np.array(orbital[:sites]), n_field)
    lo, hi = gens.interval(weights)
    eigenvalues = np.linalg.eigvalsh(gens.matrix(weights).toarray())
    allowance = INTERVAL_ROUNDING * max(abs(lo), abs(hi), 1.0)
    assert lo - allowance <= eigenvalues[0] and eigenvalues[-1] <= hi + allowance


@pytest.mark.parametrize("couplings", [pytest.param((inf,), id="quadratic"), pytest.param((8, 16, 32, 64), id="full")])
def test_interval_is_no_wider_than_gershgorin(default_lattice, couplings):
    """At every coupling of the default battery the weight-built interval is the narrower one.

    That is the premise of its fewer terms.  It does not hold at every
    coupling (``GeneratorSet.interval`` names a case at coupling 1).
    """
    gens, phi = default_lattice
    for n_field in couplings:
        weights = gens.coefficients(phi, n_field)
        lo, hi = gens.interval(weights)
        g_lo, g_hi = fk.gershgorin_interval(gens.matrix(weights))
        assert hi - lo <= g_hi - g_lo, f"coupling {n_field}"


def test_overflowing_one_body_weights_are_refused_before_the_eigenvalue_solve(monkeypatch):
    """On a 1e-300 lattice the kinetic weights overflow: the step ends in the interval's ``ValueError``."""
    solves = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: solves.append(1))
    with np.errstate(over="ignore", invalid="ignore"):
        space = fk.LatticeFockSpace(GridSpec(4, 1e-300), 4)
        gens = fk.GeneratorSet(space, sample_potential(PotentialSpec(0.5, 1.0), space.grid))
        weights = gens.coefficients(normalize(np.array([1.0, 0.6 + 0.3j, 0.2, 0.5 - 0.1j]), space.grid), 8.0)
        assert not np.all(np.isfinite(weights[:16]))
        with pytest.raises(ValueError, match=r"spectral interval \[nan, nan\] has no finite width"):
            gens.step(gens.matrix(weights), weights, fk.vacuum(space).coeffs, 0.05, None)
    assert solves == []


def test_column_pool_gives_the_serial_bits(default_lattice):
    """A (dim, 5) block: the same bits on pools of 2, 3 and 7 workers, serially, and column by column."""
    gens, phi = default_lattice
    weights = gens.coefficients(phi, 8.0)
    h, interval = gens.matrix(weights), gens.interval(weights)
    rng = np.random.default_rng(13)
    block = rng.standard_normal((h.shape[0], 5)) + 1j * rng.standard_normal((h.shape[0], 5))
    for tau in (0.025, -1e-3):
        serial = fk.expm_multiply(h, block, tau, interval)
        columns = np.stack([fk.expm_multiply(h, block[:, k], tau, interval) for k in range(5)], axis=1)
        assert np.array_equal(serial, columns)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can be
        try:
            for workers in (2, 3, 7):  # the caller is a worker too, and 7 workers outnumber 5 columns
                with step_pool(workers) as share:
                    assert np.array_equal(fk.expm_multiply(h, block, tau, interval, share), serial)
                    # one column never splits
                    assert np.array_equal(fk.expm_multiply(h, block[:, 1], tau, interval, share), columns[:, 1])
        finally:
            sys.setswitchinterval(switch)


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


# ---------------------------------------------------------------------------
# generators


def dense_generator(space, vs, phi, n_field):
    """Second-quantized assembly from raw ladder matrices, term by term, at coupling N = ``n_field``."""
    from meanfieldlab.bogoliubov import coupling_kernels
    from meanfieldlab.grid import kinetic_matrix, potential_matrix

    grid = space.grid
    m = grid.points
    dx = grid.dx
    b = [op.toarray() for op in space.annihilators]
    bd = [op.T.conj() for op in b]
    h = np.zeros((space.dimension, space.dimension), dtype=complex)
    kern = coupling_kernels(phi, vs, grid)
    tmat = kinetic_matrix(grid)
    vmat = potential_matrix(vs, grid)
    s = sqrt(dx / n_field)
    for i in range(m):
        for j in range(m):
            w = tmat[i, j] + dx * kern.k1[i, j] + (kern.u_eff[i] if i == j else 0.0)
            h += w * (bd[i] @ b[j])
            h += 0.5 * dx * kern.k2[i, j] * (bd[i] @ bd[j])
            h += 0.5 * dx * np.conj(kern.k2[i, j]) * (b[i] @ b[j])
            term = s * vmat[i, j] * phi[j] * (bd[i] @ bd[j] @ b[i])
            h += term + term.conj().T
            h += vmat[i, j] / (2.0 * n_field) * (bd[i] @ bd[j] @ b[j] @ b[i])
    return h


@pytest.mark.parametrize("couplings", [pytest.param((inf,), id="quadratic"), pytest.param((5.0, 20.0), id="full")])
def test_generator_matches_dense_assembly(couplings):
    """Q at N = inf; two finite couplings then pin C and D, which scale as N^{-1/2} and N^{-1}."""
    for grid, cutoff, orbital in (
        (GridSpec(2, 2.0), 3, [1.0, 0.3 - 0.4j]),
        (GridSpec(3, 3.0), 4, [0.8, 0.2 + 0.5j, -0.6 - 0.3j]),
    ):
        space = fk.LatticeFockSpace(grid, cutoff)
        vs = sample_potential(PotentialSpec(0.7, 0.9), grid)
        phi = normalize(np.array(orbital), grid)
        gens = fk.GeneratorSet(space, vs)
        for n_field in couplings:
            got = gens.matrix(gens.coefficients(phi, n_field)).toarray()
            want = dense_generator(space, vs, phi, n_field)
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.max(np.abs(got - got.conj().T)) < 1e-12


def test_generator_is_hermitian(lattice):
    """The exponential step assumes a Hermitian generator."""
    _, _, _, traj, gens = lattice
    for n_field in (3.0, inf):
        for t in (0.0, 0.25, 0.5):
            h = gens.matrix(gens.coefficients(traj.interpolate(t), n_field))
            assert np.linalg.norm((h - h.conj().T).data) <= 1e-14 * np.linalg.norm(h.data)


def test_generator_sector_transfer_structure(lattice):
    """Q moves the particle number by 0 or 2; F(N) - Q by 1 on its parity-changing entries (C), by 0 elsewhere (D)."""
    space, _, phi0, _, gens = lattice
    totals = space.totals

    def jumps(h):
        rows, cols = np.nonzero(np.abs(h) > 1e-14)
        return np.abs(totals[rows] - totals[cols])

    quadratic = gens.matrix(gens.coefficients(phi0, inf)).toarray()
    assert set(jumps(quadratic).tolist()) <= {0, 2}
    rest = jumps(gens.matrix(gens.coefficients(phi0, 4.0)).toarray() - quadratic)
    changing = rest % 2 == 1
    assert np.any(changing) and np.all(rest[changing] == 1)
    assert np.any(~changing) and np.all(rest[~changing] == 0)


def test_cubic_and_quartic_annihilate_vacuum(lattice):
    """(F(N) - Q) vacuum is exactly zero."""
    space, _, phi0, _, gens = lattice
    vac = fk.vacuum(space).coeffs
    rest = gens.matrix(gens.coefficients(phi0, 3.0)) - gens.matrix(gens.coefficients(phi0, inf))
    assert np.all(rest @ vac == 0)


def test_zero_field_generator_is_the_n_body_hamiltonian():
    """At phi = 0 the generator at coupling N acts on sector N as H_N.

    H_N = sum_k T_k + (1/N) sum_{i<j} V(x_i - x_j) is the dense engine's
    Hamiltonian; the lattice one-body density <b_y* b_x> / (N dx) of the
    evolved product state must equal the dense engine's marginal.
    """
    grid = GridSpec(6, 6.0)
    vs = sample_potential(PotentialSpec(2.0, 1.0), grid)
    phi = gaussian_packet(grid, 2.5, 0.8, 1.0)
    n, t, m = 3, 0.3, grid.points
    space = fk.LatticeFockSpace(grid, n + 2)
    gens = fk.GeneratorSet(space, vs)
    h = gens.matrix(gens.coefficients(np.zeros(m), n))
    coeffs = fk.expm_multiply(h, fk.product_state_fock(space, phi, n).coeffs, t)
    outside = np.sum(np.abs(coeffs) ** 2) - np.sum(np.abs(coeffs[space.sector_slice(n)]) ** 2)
    assert abs(outside) < 1e-12
    lowered = np.stack([b @ coeffs for b in space.annihilators], axis=1)
    gamma_lattice = lowered.T @ lowered.conj() / (n * grid.dx)

    eye = np.eye(m)
    dense = np.diag(interaction_tensor(grid, vs, n).ravel())
    for axis in range(n):
        dense += functools.reduce(np.kron, [kinetic_matrix(grid) if k == axis else eye for k in range(n)])
    state = product_state(phi, n, grid)
    state.psi = (expm(-1j * t * dense) @ state.psi.ravel()).reshape(state.psi.shape)
    gamma_dense = reduce_marginal(state, 1).matrix
    assert np.max(np.abs(gamma_lattice - gamma_dense)) < 1e-12


# ---------------------------------------------------------------------------
# propagation


def test_evolution_unitary_and_reversible(lattice):
    space, _, _, traj, gens = lattice
    start = fk.product_state_fock(space, normalize(np.array([1.0, 0.8j]), space.grid), 2)
    fwd = fk.evolve_fock(gens, start, traj, 0.0, 0.3, 2e-3, 6.0)
    assert fwd.state.norm() == pytest.approx(1.0, abs=1e-11)
    back = fk.evolve_fock(gens, fwd.state, traj, 0.3, 0.0, 2e-3, 6.0)
    assert np.linalg.norm(back.state.coeffs - start.coeffs) < 1e-10


def test_quadratic_flow_preserves_parity(lattice):
    space, _, _, traj, gens = lattice
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.5, 2e-3, inf)
    assert fk.odd_sector_mass(run.state) == 0.0
    assert run.top_mass < 1e-4


FULL_BASIS_EXPM = fk.expm_multiply


def full_basis_flow(gens, start, traj, t0, t1, dt, n_field):
    """The step loop on the whole basis: one generator and one exponential per step, on the step's interval."""
    sign = 1.0 if t1 > t0 else -1.0
    coeffs = start.coeffs.copy()
    for step in range(int(round(abs(t1 - t0) / dt))):
        weights = gens.coefficients(traj.interpolate(t0 + sign * (step + 0.5) * dt), n_field)
        coeffs = FULL_BASIS_EXPM(gens.matrix(weights), coeffs, sign * dt, gens.interval(weights))
    return coeffs


@pytest.fixture
def step_sizes(monkeypatch):
    """The basis size of every exponential step taken while the test runs."""
    sizes = []

    def counted(h, x, tau, interval=None, share=None):
        sizes.append(h.shape[0])
        return FULL_BASIS_EXPM(h, x, tau, interval, share)

    monkeypatch.setattr(fk, "expm_multiply", counted)
    return sizes


@pytest.fixture(scope="module")
def four_sites():
    """Four sites at cutoff 6: 210 basis states, 130 of them even."""
    space = fk.LatticeFockSpace(GridSpec(4, 4.0), 6)
    vs = sample_potential(PotentialSpec(0.5, 1.0), space.grid)
    phi0 = normalize(np.array([1.0, 0.6 + 0.3j, 0.2, 0.5 - 0.1j]), space.grid)
    traj = evolve_hartree(phi0, vs, space.grid, 0.2, 1e-2)
    return space, phi0, traj, fk.GeneratorSet(space, vs)


def test_parity_path_is_the_full_basis_step(four_sites, step_sizes):
    """Each flow that keeps parity runs on its half and equals the full-basis loop bit for bit.

    The quadratic flows run at N = inf, where every cubic weight is a zero
    and some are -0.0 (at this orbital, the imaginary parts of the
    adjoints' weights); the guard reads them as zero.  A flow at a finite
    coupling along a zero orbital keeps parity too: its cubic weights are
    exact zeros, and the guard reads those weights.  The full-basis loop
    takes the step's interval.
    """
    space, phi0, traj, gens = four_sites
    even = int(np.sum(space.totals % 2 == 0))
    forward = fk.vacuum(space)
    ahead = fk.FockVector(space, full_basis_flow(gens, forward, traj, 0.0, 0.2, 1e-2, inf))
    a_y = fk.FockVector(
        space, np.stack([space.annihilators[y] @ ahead.coeffs for y in range(4)], axis=1)
    )
    zero_orbital = HartreeTrajectory(np.array([0.0, 0.2]), np.zeros((2, 4), dtype=complex))
    cases = [
        # (start, trajectory, t0, t1, N, size of the class that carries the flow)
        (forward, traj, 0.0, 0.2, inf, even),
        (a_y, traj, 0.2, 0.0, inf, space.dimension - even),
        (fk.product_state_fock(space, phi0, 3), traj, 0.0, 0.1, inf, space.dimension - even),
        (forward, zero_orbital, 0.0, 0.2, 4.0, even),
    ]
    cubic = gens.coefficients(phi0, inf)[gens._cubic]
    assert not np.any(cubic) and np.any(np.signbit(cubic.imag))
    for start, along, t0, t1, n_field, size in cases:
        step_sizes.clear()
        got = fk.evolve_fock(gens, start, along, t0, t1, 1e-2, n_field).state.coeffs
        assert step_sizes == [size] * int(round(abs(t1 - t0) / 1e-2))
        assert np.array_equal(got, full_basis_flow(gens, start, along, t0, t1, 1e-2, n_field))
        masses = fk.sector_masses(fk.FockVector(space, got))
        assert not np.any(masses[1::2] if size == even else masses[0::2])


def test_parity_guard_keeps_a_parity_breaking_step_on_the_full_basis(four_sites, step_sizes, monkeypatch):
    """A finite coupling, a state in both classes, or a stray cubic weight runs on the whole basis."""
    space, phi0, traj, gens = four_sites
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 1e-2, 4.0)
    assert step_sizes == [space.dimension] * 20
    assert fk.odd_sector_mass(run.state) > 0.0

    mixed = fk.FockVector(space, fk.vacuum(space).coeffs + fk.product_state_fock(space, phi0, 1).coeffs)
    step_sizes.clear()
    got = fk.evolve_fock(gens, mixed, traj, 0.0, 0.2, 1e-2, inf).state.coeffs
    assert step_sizes == [space.dimension] * 20
    assert np.array_equal(got, full_basis_flow(gens, mixed, traj, 0.0, 0.2, 1e-2, inf))

    quadratic = gens.coefficients
    cubic = 16 + 10  # the cubic raiser of site 0, after the 16 transfers and the 10 pair raisers
    adjoint = cubic + 14  # its adjoint, 14 raisers further on

    def broken(phi, n_field):
        c = quadratic(phi, n_field)
        c[cubic], c[adjoint] = 0.05, 0.05
        return c

    monkeypatch.setattr(gens, "coefficients", broken)
    step_sizes.clear()
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 1e-2, inf)
    assert step_sizes == [space.dimension] * 20
    assert fk.odd_sector_mass(run.state) > 0.0


def test_snapshots_and_span_validation(lattice):
    space, _, _, traj, gens = lattice
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, inf, snapshot_times=(0.0, 0.1, 0.2))
    assert set(run.snapshots) == {0.0, 0.1, 0.2}
    assert np.array_equal(run.snapshots[0.0].coeffs, fk.vacuum(space).coeffs)
    assert np.array_equal(run.snapshots[0.2].coeffs, run.state.coeffs)
    half = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.1, 2e-3, inf)
    assert np.array_equal(run.snapshots[0.1].coeffs, half.state.coeffs)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.0, 2e-3, inf)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2001, 2e-3, inf)
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, inf, snapshot_times=(0.05001,))
    with pytest.raises(ValueError):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, inf, snapshot_times=(0.3,))


@pytest.mark.parametrize("times", [(0.1, 0.1), (0.1, 0.1 + 5e-10)])
def test_snapshot_times_on_one_step_are_refused(lattice, times):
    # each engine keys its snapshots by step, so it would keep one of the two
    space, vs, _, traj, gens = lattice
    with pytest.raises(ValueError, match="land on one step"):
        fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, inf, snapshot_times=times)
    with pytest.raises(ValueError, match="land on one step"):
        evolve_pair(space.grid, vs, traj, 0.2, 2e-3, times)


def test_truncation_monitor_carries_a_nan(lattice, monkeypatch):
    """One NaN top-sector mass along the flow makes ``top_mass`` NaN, not the worst finite mass."""
    space, _, _, traj, gens = lattice
    calls = []

    def nan_once(vec, _original=fk.top_sector_mass):
        calls.append(1)
        return float("nan") if len(calls) == 3 else _original(vec)

    monkeypatch.setattr(fk, "top_sector_mass", nan_once)
    run = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.1, 2e-3, inf)
    assert len(calls) == 51 and np.isnan(run.top_mass)


# ---------------------------------------------------------------------------
# Heisenberg residual field


def test_residual_aggregates_decay_with_coupling(lattice):
    space, _, _, traj, gens = lattice
    t, dt = 0.5, 2e-3
    fwd_quad = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, t, dt, inf)
    (bq,), tq = fk.site_backs(gens, traj, [(fwd_quad.state, t, None)], dt, inf)
    aggs = {}
    for n in (8, 16):
        fwd = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, t, dt, n)
        (bf,), tf = fk.site_backs(gens, traj, [(fwd.state, t, None)], dt, n)
        aggs[n] = fk.residual_aggregates(bf, bq)
        assert max(fwd_quad.top_mass, tq, tf) < 1e-4
        # the (N+1)^j weights are >= 1 and increasing in j
        assert aggs[n][0] <= aggs[n][1] <= aggs[n][2]
    for j in (0, 1, 2):
        assert 1.6 <= aggs[8][j] / aggs[16][j] <= 2.4


def test_site_backs_restriction(lattice):
    space, _, _, traj, gens = lattice
    fwd = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.2, 2e-3, inf)
    (all_backs,), _ = fk.site_backs(gens, traj, [(fwd.state, 0.2, None)], 2e-3, inf)
    assert all_backs.coeffs.shape == (space.dimension, space.grid.points)
    for site in range(space.grid.points):
        (one_back,), _ = fk.site_backs(gens, traj, [(fwd.state, 0.2, (site,))], 2e-3, inf)
        assert one_back.coeffs.shape == (space.dimension, 1)
        assert np.array_equal(one_back.coeffs[:, 0], all_backs.coeffs[:, site])


@pytest.mark.parametrize("t_k, t_r", [(0.4, 0.2), (0.3, 0.3), (0.2, 0.4)], ids=["below", "equal", "above"])
def test_merged_site_backs_match_separate_runs(lattice, t_k, t_r):
    """The kernel columns from t_k and the residual backs from t_r, as one block below the earlier start.

    Each column matches its own separate run to 1e-13 relative (a backward
    midpoint such as 0.4 - 100.5 dt may differ by one ulp from 0.2 - 0.5 dt),
    and the top mass is the larger of the two runs' top masses.
    """
    space, _, _, traj, gens = lattice
    dt = 2e-3
    fwd = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, 0.4, dt, inf, sorted({t_k, t_r}))
    starts = [(fwd.snapshots[t_k], t_k, (1,)), (fwd.snapshots[t_r], t_r, None)]
    merged, top = fk.site_backs(gens, traj, starts, dt, inf)
    separate = [fk.site_backs(gens, traj, [start], dt, inf) for start in starts]
    for got, ((want,), _) in zip(merged, separate):
        assert got.coeffs.shape == want.coeffs.shape
        assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-13 * np.linalg.norm(want.coeffs)
    assert top == max(run_top for _, run_top in separate)


def test_site_backs_rerun_is_bitwise_identical(lattice):
    """Reruns agree bit for bit at a step size where ||dt (H - mu)||_1 > 63.36 / k.

    Beyond that norm, for a block of k columns, a step with a randomised
    norm estimate would no longer be reproducible.
    """
    space, _, phi0, traj, gens = lattice
    t = dt = 0.5
    h = gens.matrix(gens.coefficients(traj.interpolate(0.5 * dt), 1.0))
    mu = h.diagonal().sum() / space.dimension
    shifted = dt * (h - mu * sparse.identity(space.dimension))
    assert abs(shifted).sum(axis=0).max() > 63.36 / space.grid.points
    state = fk.product_state_fock(space, phi0, 3)
    runs = [fk.site_backs(gens, traj, [(state, t, None)], dt, 1.0) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][0][0].coeffs, runs[1][0][0].coeffs)
