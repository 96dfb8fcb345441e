"""Truncated bosonic Fock space on the lattice sites of a periodic grid.

The mode set is the grid itself, so all operators inherit the grid
conventions: field operators at a site are a_x = b_x / sqrt(dx) with
dimensionless mode operators [b_i, b_j*] = delta_ij, smeared creators are
a*(f) = sum_i sqrt(dx) f_i b_i*, and the one-body kinetic matrix is the same
spectral k^2 operator the kernel solvers use.  States live in the graded
occupation basis of ``LatticeFockSpace``, keyed and ordered by one integer per state.

The fluctuation generator around a Hartree state phi splits into

* a quadratic part: kinetic + mean-field potential + exchange kernel +
  pair creation/annihilation,
* a cubic part sum_j phi_j b_j* (sum_i V_ij n_i) + h.c., scaled by 1/sqrt(N),
* a quartic part, diagonal in the occupation basis and scaled by 1/N,

and the cubic and quartic parts annihilate the vacuum.  Generators are
assembled per time step from precomputed sparse skeletons of the
(m + 1)(2m + 1) distinct operators on m sites, with state-dependent
coefficients; the step itself (``GeneratorSet.step``) is the exponential
action of the midpoint generator, a Chebyshev expansion whose truncation
error is bounded before the first matvec (``expm_multiply``).  Its
interval is read from the weights, not from the assembled entries
(``GeneratorSet.interval``): the one-body part's exact range, which
follows from the m x m weight matrix because that part keeps the particle
number, plus a Gershgorin interval of the rest.

The quadratic and quartic parts change the particle number by 0 or 2, so
they never mix the even and odd sectors; only the cubic part does.  A step
whose 2m cubic weights are exactly zero, on a state whose every column
lies in one parity class, runs on that class's rows and columns only.  It
takes the whole generator's interval, so its Chebyshev degree and weights
are those of the full-basis step, and the terms it skips are exact zeros:
it gives the full-basis step's numbers.  Any other step (a ``full`` or
``cubic`` generator with a nonzero orbital, a state with mass in both
classes) runs on the whole basis.

A flow of a block of states (the site backs) splits each step's recurrence
over groups of the block's columns on ``grid.step_pool``.  Site backs from
two start times run as one block below the earlier one (``site_backs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import jv

from .bogoliubov import coupling_kernels
from .grid import (
    GridSpec,
    admit,
    kinetic_matrix,
    pool_size,
    potential_matrix,
    step_pool,
    step_schedule,
)
from .hartree import HartreeTrajectory

# Chebyshev truncation bound of one exponential step, relative to ||x||.
STEP_TAIL_BOUND = 2.0**-53


def _chebyshev_weights(rho: float) -> np.ndarray:
    """Weights (2 - delta_k0) (-i)^k J_k(rho) of exp(-i rho y) = sum_k w_k T_k(y).

    Truncated at the smallest count m with 2 sum_{k>=m} |J_k(rho)| <=
    STEP_TAIL_BOUND; since |T_k| <= 1 on [-1, 1], that sum bounds the
    truncation error.  Orders past 2|rho| + 60 are below 1e-50 for every
    rho and are not summed.
    """
    orders = np.arange(2 * int(np.ceil(abs(rho))) + 60)
    bessel = jv(orders, rho)
    tails = 2.0 * np.cumsum(np.abs(bessel)[::-1])[::-1]
    count = int(np.argmax(tails <= STEP_TAIL_BOUND))
    weights = 2.0 * np.array([1, -1j, -1, 1j])[orders[:count] % 4] * bessel[:count]
    weights[0] /= 2.0
    return weights


def gershgorin_interval(h: sparse.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [a, b] of a Hermitian CSR matrix h; it holds every eigenvalue."""
    diag = h.diagonal().real
    row_sums = sparse.csr_matrix((np.abs(h.data), h.indices, h.indptr), shape=h.shape) @ np.ones(h.shape[1])
    radii = row_sums - np.abs(diag)
    return np.min(diag - radii), np.max(diag + radii)


def _chebyshev_sum(twice: sparse.csr_matrix, shift: float, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k w_k T_k(y) x with y = (twice - shift) / 2, by the three-term recurrence."""
    prev, cur = x, 0.5 * (twice @ x - shift * x)
    total = weights[0] * x
    for w in weights[1:-1]:
        total += w * cur
        nxt = twice @ cur
        nxt -= shift * cur
        nxt -= prev
        prev, cur = cur, nxt
    if len(weights) > 1:
        total += weights[-1] * cur
    return total


def expm_multiply(h: sparse.csr_matrix, x: np.ndarray, tau: float, interval=None, share=None) -> np.ndarray:
    """exp(-i tau h) x for a Hermitian CSR matrix h; x is one vector or a (dim, k) block.

    Chebyshev propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)) on an interval [a, b] that holds the spectrum of h: with
    c = (a + b) / 2 and r = (b - a) / 2,

        exp(-i tau h) = exp(-i tau c) sum_k w_k(tau r) T_k((h - c) / r),

    summed by the three-term recurrence over the whole block.  The interval
    is h's Gershgorin interval unless a known ``interval`` (a, b) is given,
    such as the one ``GeneratorSet.interval`` reads from a generator's
    weights, which also holds any direct summand of that generator.  The
    degree follows from tau r alone (``_chebyshev_weights``; it grows about
    as tau r, so a narrower interval takes fewer terms), so the truncation
    error is at most STEP_TAIL_BOUND ||x|| before rounding, every column
    takes the same path, and the result is deterministic.  An interval of no
    finite width (an infinite or NaN entry of h, or weight of a generator)
    is a ``ValueError`` that names it.

    With the ``share`` of a ``grid.step_pool`` and a block of two or more
    columns, the columns split into contiguous groups, one per worker, and
    each task runs the recurrence on a C-contiguous copy of its group.  The
    sparse product and the elementwise operations treat every column on its
    own, so the result is bitwise the serial one at any worker count.
    """
    lo, hi = gershgorin_interval(h) if interval is None else interval
    centre, half_width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not np.isfinite(half_width):
        raise ValueError(f"the generator's spectral interval [{lo}, {hi}] has no finite width")
    phase = np.exp(-1j * tau * centre)
    if half_width == 0.0:
        return phase * x

    weights = _chebyshev_weights(tau * half_width)
    # the recurrence applies 2 (h - c) / r: a scaled copy of h, minus a shift
    twice = sparse.csr_matrix((h.data * (2.0 / half_width), h.indices, h.indptr), shape=h.shape)
    shift = 2.0 * centre / half_width
    columns = 1 if x.ndim == 1 else x.shape[1]
    groups = 1 if share is None else min(share.workers, columns)
    if groups == 1:
        return phase * _chebyshev_sum(twice, shift, weights, x)

    out = np.empty(x.shape, complex)

    def group(w, g):
        a, b = g * columns // groups, (g + 1) * columns // groups
        total = _chebyshev_sum(twice, shift, weights, np.ascontiguousarray(x[:, a:b]))
        np.multiply(phase, total, out=out[:, a:b])

    share(groups, group)
    return out


def admit_lattice(sites: int, cutoff: int) -> int:
    """Dimension C(cutoff + sites, sites) of a lattice, refused before any allocation.

    Each of the (sites + 1)(2 sites + 1) generator skeletons maps a basis column to
    at most one row, and a ``GeneratorSet`` build peaks below 112 B per such entry
    (tracemalloc: 47-51 B at one site and cutoffs 200-5000, 25-37 B at four sites
    and cutoffs 6-20).  ``grid.admit`` refuses that charge above the budget,
    on its own or on the lower bound C(n, k) >= (n/k)^k with k = min(sites,
    cutoff), so a lattice far past the budget is refused before its count is
    built; keys that would overflow int64 are a ``ValueError``.
    """
    bank = 112 * (sites + 1) * (2 * sites + 1)
    k = min(sites, cutoff)
    admit(
        f"the generator bank of {sites} sites at cutoff {cutoff}",
        lambda: bank * comb(cutoff + sites, sites),
        bank.bit_length() - 1 + k * (((cutoff + sites) // max(k, 1)).bit_length() - 1),
    )
    if (cutoff + 1) ** (sites + 1) > 2**63:
        raise ValueError(f"basis keys of {sites} sites at cutoff {cutoff} overflow int64")
    return comb(cutoff + sites, sites)


class LatticeFockSpace:
    """Graded occupation basis over ``grid.points`` modes, total <= cutoff.

    Occupation vector n has the key (sum(n), n_0, ..., n_{m-1}) read as digits in
    base cutoff + 1: ascending keys are sectors of growing total, each lexicographic
    in n.  The key is linear, n @ weights, and a basis position is one binary search.
    """

    def __init__(self, grid: GridSpec, cutoff: int):
        if cutoff < 1:
            raise ValueError(f"cutoff must be at least 1, got {cutoff}")
        m = grid.points
        self.dimension = dim = admit_lattice(m, cutoff)
        self.grid = grid
        self.cutoff = cutoff

        # stars and bars in key order: per total, n_0 .. n_{m-2} split it and n_{m-1} takes the rest
        left = np.arange(cutoff + 1, dtype=np.int64)
        occ = np.empty((cutoff + 1, 0), dtype=np.int64)
        for _ in range(m - 1):
            counts = left + 1
            first = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            occ = np.column_stack([np.repeat(occ, counts, axis=0), first])
            left = np.repeat(left, counts) - first
        self.occupations = np.column_stack([occ, left])
        self.totals = self.occupations.sum(axis=1)
        self.sector_offsets = np.searchsorted(self.totals, np.arange(cutoff + 2))
        self._weights = (cutoff + 1) ** m + (cutoff + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self._keys = self.occupations @ self._weights

        # b_i |n> = sqrt(n_i) |n - e_i>
        self.annihilators = []
        for i, e_i in enumerate(np.eye(m, dtype=np.int64)):
            (cols,) = np.nonzero(self.occupations[:, i])
            data = np.sqrt(self.occupations[cols, i])
            rows = self.hop(cols, -e_i)
            self.annihilators.append(sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim)))

    def hop(self, cols, shift) -> np.ndarray:
        """Basis positions of n + shift for the basis states n at positions ``cols``.

        Keys are linear in n, so this is one binary search for the keys of
        ``cols`` plus the key of the occupation change ``shift``; every n + shift
        must lie in the basis.
        """
        return np.searchsorted(self._keys, self._keys[cols] + shift @ self._weights)

    def locate(self, occ) -> np.ndarray:
        """Basis indices of occupation vectors (..., m); ``ValueError`` outside the basis."""
        occ = np.asarray(occ)
        well_formed = occ.shape[-1:] == (self.grid.points,) and occ.dtype.kind in "iu"
        if not (well_formed and np.all(occ >= 0) and np.all(occ.sum(axis=-1) <= self.cutoff)):
            raise ValueError(f"occupations {occ.dtype}{list(occ.shape)} lie outside the basis")
        return np.searchsorted(self._keys, occ @ self._weights)

    def sector_slice(self, total: int) -> slice:
        if not 0 <= total <= self.cutoff:
            raise ValueError(f"no sector with {total} particles under cutoff {self.cutoff}")
        return slice(self.sector_offsets[total], self.sector_offsets[total + 1])


@dataclass
class FockVector:
    """One state, shape (dimension,), or a block of states, one per column."""

    space: LatticeFockSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim not in (1, 2) or self.coeffs.shape[0] != self.space.dimension:
            raise ValueError(
                f"coefficients have shape {self.coeffs.shape}, expected "
                f"({self.space.dimension},) or ({self.space.dimension}, k)"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def copy(self) -> "FockVector":
        return FockVector(self.space, self.coeffs.copy())


def vacuum(space: LatticeFockSpace) -> FockVector:
    c = np.zeros(space.dimension, dtype=complex)
    c[0] = 1.0
    return FockVector(space, c)


def ladder(space: LatticeFockSpace, f, create: bool) -> sparse.csr_matrix:
    """Smeared ladder operator: a*(f) = sum sqrt(dx) f_i b_i*, a(f) its adjoint."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.grid.points,):
        raise ValueError(f"mode function has shape {f.shape}, expected ({space.grid.points},)")
    c = np.sqrt(space.grid.dx) * f
    if create:
        op = sum(ci * b.T for ci, b in zip(c, space.annihilators))
    else:
        op = sum(np.conj(ci) * b for ci, b in zip(c, space.annihilators))
    return op.tocsr()


def _sector_sums(coeffs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Squared-norm sums of the rows of ``coeffs`` from each of ``starts`` to the next, (sectors, columns)."""
    per_state = np.abs(coeffs.reshape(len(coeffs), -1).T, order="C") ** 2
    return np.add.reduceat(per_state, starts, axis=1).T


def sector_masses(vec: FockVector) -> np.ndarray:
    """Squared-norm mass per total-occupation sector, one column per state.

    Each column is summed on its own, so a block's masses equal the
    per-column results stacked, bit for bit.
    """
    masses = _sector_sums(vec.coeffs, vec.space.sector_offsets[:-1])
    return masses.reshape((vec.space.cutoff + 1,) + vec.coeffs.shape[1:])


def number_moment(vec: FockVector, j: int = 1) -> float:
    """<vec, N^j vec> computed exactly from sector masses."""
    masses = sector_masses(vec)
    return float(np.arange(len(masses), dtype=float) ** j @ masses)


def shifted_number_norm(vec: FockVector, j: int) -> float:
    """|| (N+1)^{j/2} vec ||."""
    masses = sector_masses(vec)
    return float(np.sqrt((np.arange(len(masses)) + 1.0) ** j @ masses))


def odd_sector_mass(vec: FockVector) -> float:
    masses = sector_masses(vec)
    return float(np.sum(masses[1::2], axis=0))


def top_sector_mass(vec: FockVector) -> float:
    """Mass in the top two sectors; the truncation-leakage monitor.

    For a block this is the worst column.  Only the two sectors are read,
    and each sector's sum is the one ``sector_masses`` takes, bit for bit.
    """
    starts = vec.space.sector_offsets[-3:-1]
    masses = _sector_sums(vec.coeffs[starts[0] :], starts - starts[0])
    return float(np.max(np.sum(masses, axis=0)))


def weyl_apply(space: LatticeFockSpace, f, vec: FockVector) -> tuple[FockVector, float]:
    """Apply the unitary displacement exp(a*(f) - a(f)); returns (state, leakage).

    Leakage is the mass in the top two sectors of the result; trust the
    output only when it is small against the working tolerance.
    """
    gen = 1j * (ladder(space, f, create=True) - ladder(space, f, create=False))
    out = FockVector(space, expm_multiply(gen, vec.coeffs, 1.0))
    return out, top_sector_mass(out)


def product_state_fock(space: LatticeFockSpace, phi, n: int) -> FockVector:
    """Normalized n-fold product state (a*(phi))^n vacuum / sqrt(n!)."""
    if not 1 <= n <= space.cutoff:
        raise ValueError(f"need 1 <= n <= cutoff, got n={n}, cutoff={space.cutoff}")
    creator = ladder(space, phi, create=True)
    c = vacuum(space).coeffs
    for k in range(n):
        c = creator @ c / np.sqrt(k + 1.0)
    return FockVector(space, c)


def one_particle_values(vec: FockVector) -> np.ndarray:
    """Wavefunction samples of the one-particle sector: psi(x_i) = c_i/sqrt(dx)."""
    space = vec.space
    return vec.coeffs[space.locate(np.eye(space.grid.points, dtype=int))] / np.sqrt(space.grid.dx)


# ---------------------------------------------------------------------------
# generators


def _frozen(values) -> np.ndarray:
    """An int32 copy of ``values``, marked read-only."""
    out = np.array(values, dtype=np.int32)
    out.setflags(write=False)
    return out


def _skeletons(space: LatticeFockSpace, vmat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Entries (rows, cols, data) of each generator skeleton, in the order of the bank's rows."""
    m = space.grid.points
    n = space.occupations.astype(float)
    e = np.eye(m, dtype=np.int64)
    room = space.cutoff - space.totals

    def skeleton(values, shift):
        """Entries (rows, cols, data): column s goes to occupations[s] + shift."""
        (cols,) = np.nonzero(values)
        return space.hop(cols, shift).astype(np.int32), cols.astype(np.int32), values[cols]

    transfers = [
        skeleton(np.sqrt(n[:, j] * (n[:, i] + (i != j))), e[i] - e[j]) for i in range(m) for j in range(m)
    ]
    raisers = [
        skeleton(np.where(room >= 2, np.sqrt((n[:, i] + 1) * (n[:, j] + 1 + (i == j))), 0.0), e[i] + e[j])
        for i, j in zip(*np.triu_indices(m))
    ]
    mean = n @ vmat  # sum_i n_i V_ij
    raisers += [skeleton(np.where(room >= 1, np.sqrt(n[:, j] + 1) * mean[:, j], 0.0), e[j]) for j in range(m)]
    lowers = [(cols, rows, data) for rows, cols, data in raisers]
    quart = 0.5 * (np.einsum("si,si->s", n, mean) - n @ np.diag(vmat))
    return transfers + raisers + lowers + [skeleton(quart, np.zeros(m, np.int64))]


class GeneratorSet:
    """Fluctuation generators on a lattice Fock space for one pair potential.

    The generator is spanned by (m + 1)(2m + 1) distinct operators, each
    built once as a sparse skeleton: the m^2 one-body transfers b_i* b_j, the
    pair raisers b_i* b_j* (i <= j, as b_i* b_j* = b_j* b_i*), one cubic raiser
    b_j* diag(sum_i V_ij n_i) per site (as b_i* b_j* b_i = b_j* n_i), the
    adjoints of both raiser groups, and the diagonal quartic.  The coefficient
    bank is sparse (row alpha holds skeleton alpha on the union of their
    supports, one contiguous slice per group), so ``matrix`` costs one sparse
    matvec over the stored skeleton entries; the one-body weights carry the
    kinetic term.  The set also keeps, per parity class of the particle
    number, the int32 tables that cut a matrix's diagonal block on that
    class out of its entries (``step``), and, per basis row, the quartic
    skeleton's diagonal and each raiser's stored magnitudes, from which the
    spectral interval of a weight vector follows without the matrix
    (``interval``).
    """

    def __init__(self, space: LatticeFockSpace, potential_samples: np.ndarray):
        self.space = space
        self.grid = space.grid
        self.potential_samples = np.asarray(potential_samples, dtype=float)
        self.tmat = kinetic_matrix(self.grid)
        dim = space.dimension
        skeletons = _skeletons(space, potential_matrix(self.potential_samples, self.grid))
        self.n_terms = len(skeletons)

        # shared sparsity pattern: the union of the supports as one canonical CSR
        # pattern (rows in order, sorted columns; the (data, (row, col)) constructor
        # merges duplicates by sum_duplicates), and each skeleton entry's position
        # in it, read off the pattern with its entries numbered; admission keeps
        # every count below 2^31
        rows = np.concatenate([rows for rows, _, _ in skeletons], dtype=np.int32)
        cols = np.concatenate([cols for _, cols, _ in skeletons], dtype=np.int32)
        pattern = sparse.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(dim, dim))
        indptr = self._indptr = _frozen(pattern.indptr)
        indices = self._indices = _frozen(pattern.indices)
        numbered = sparse.csr_matrix((np.arange(len(indices), dtype=float), indices, indptr), shape=(dim, dim))
        position = np.asarray(numbered[rows, cols], dtype=np.int32).ravel()
        del pattern, numbered, rows, cols
        self._bank = sparse.csr_matrix(
            (
                np.concatenate([data for _, _, data in skeletons]),
                position,
                np.cumsum([0] + [len(data) for _, _, data in skeletons]),
            ),
            shape=(self.n_terms, len(indices)),
        )

        # per basis row: the quartic diagonal, and the magnitude stored in that
        # row by each raiser plus that stored by its adjoint (each skeleton maps
        # a column to one row and a row from one column, so nothing adds up
        # within one); and the weight positions of the cubic raisers and their
        # adjoints, the only parity-changing skeletons
        m = self.grid.points
        raisers = (self.n_terms - 1 - m * m) // 2
        self._quartic = np.zeros(dim)
        _, cols, data = skeletons[-1]
        self._quartic[cols] = data
        self._raiser_magnitudes = np.zeros((dim, raisers))
        for k, (rows, cols, data) in enumerate(skeletons[m * m : m * m + raisers]):
            self._raiser_magnitudes[rows, k] += np.abs(data)
            self._raiser_magnitudes[cols, k] += np.abs(data)
        cubic = m * m + raisers - m + np.arange(m)
        self._cubic = np.concatenate([cubic, cubic + raisers])

        # per parity class of the total occupation, a tuple: the basis
        # positions of the class, ascending; the union positions of its
        # diagonal block's entries, in CSR order; that block's column indices,
        # as positions in the class; and its row pointers
        odd = space.totals % 2 == 1
        odd_rows = np.repeat(odd, np.diff(indptr))
        changing = odd_rows != odd[indices]
        self._halves = []
        for side in (False, True):
            members = np.flatnonzero(odd == side)
            keep = np.flatnonzero(~changing & (odd_rows == side))
            local = np.cumsum(odd == side) - 1  # position in the class of each member
            self._halves.append(
                (
                    _frozen(members),
                    _frozen(keep),
                    _frozen(local[indices[keep]]),
                    _frozen(np.searchsorted(keep, indptr[np.append(members, dim)])),
                )
            )

    def coefficients(self, phi, which: str, n_field: float) -> np.ndarray:
        """Complex weight per skeleton for the generator at Hartree state phi."""
        if which not in ("full", "quadratic", "cubic", "quartic"):
            raise ValueError(f"unknown generator selection {which!r}")
        m = self.grid.points
        dx = self.grid.dx
        pairs = m * (m + 1) // 2
        c = np.zeros(self.n_terms, dtype=complex)
        transfers, raisers = c[: m * m], c[m * m : m * m + pairs + m]
        phi = np.asarray(phi, dtype=complex)
        if which in ("full", "quadratic"):
            kern = coupling_kernels(phi, self.potential_samples, self.grid)
            transfers[:] = (self.tmat + dx * kern.k1 + np.diag(kern.u_eff)).reshape(-1)
            # sum_ij K2_ij b_i* b_j* / 2 on i <= j: K2_ij + K2_ji above the diagonal
            k2 = np.triu(kern.k2) + np.triu(kern.k2.T, 1)
            raisers[:pairs] = 0.5 * dx * k2[np.triu_indices(m)]
        if which in ("full", "cubic"):
            raisers[pairs:] = np.sqrt(dx / n_field) * phi
        c[m * m + raisers.size : -1] = raisers.conj()
        if which in ("full", "quartic"):
            c[-1] = 1.0 / n_field
        return c

    def matrix(self, weights: np.ndarray) -> sparse.csr_matrix:
        """The generator of a ``coefficients`` weight vector, on the shared pattern."""
        # the real bank times the (re, im) columns of the weights, viewed as
        # complex, so the bank is never converted to complex; every matrix shares
        # the read-only pattern arrays, so an in-place scipy operation fails loudly
        data = (self._bank.T @ weights.view(float).reshape(-1, 2)).view(complex).ravel()
        return sparse.csr_matrix(
            (data, self._indices, self._indptr), shape=(self.space.dimension, self.space.dimension)
        )

    def interval(self, weights: np.ndarray) -> tuple[float, float]:
        """An interval that holds the spectrum of ``matrix(weights)``, read from the weights alone.

        The one-body part sum_ij c_ij b_i* b_j keeps the particle number, and
        on a sector of n particles its spectrum is n times that of the m x m
        weight matrix, whose extreme eigenvalues are e_min and e_max; on
        totals up to the cutoff K its exact range is [min(0, K e_min),
        max(0, K e_max)].  The rest (pair, cubic and quartic parts) gets a
        Gershgorin interval: its diagonal is the quartic skeleton times its
        weight, and its radius in a row is the sum over raisers of the
        magnitudes that the raiser and its adjoint store there, times the
        larger modulus of their two weights.  By Weyl's inequality the sum of
        the two intervals holds the spectrum.  A non-finite one-body weight
        gives a NaN interval without an eigenvalue solve, and any other
        non-finite weight or skeleton entry gives a NaN or infinite one, as
        the assembled matrix's entries would be.
        """
        m = self.grid.points
        one_body = weights[: m * m].reshape(m, m)
        ends = np.linalg.eigvalsh(one_body)[[0, -1]] if np.all(np.isfinite(one_body)) else np.full(2, np.nan)
        ends = ends * self.space.cutoff
        raisers = self._raiser_magnitudes.shape[1]
        moduli = np.abs(weights[m * m : -1])
        radii = self._raiser_magnitudes @ np.maximum(moduli[:raisers], moduli[raisers:])
        diag = weights[-1].real * self._quartic
        return np.minimum(0.0, ends[0]) + np.min(diag - radii), np.maximum(0.0, ends[1]) + np.max(diag + radii)

    def step(self, h: sparse.csr_matrix, weights: np.ndarray, coeffs: np.ndarray, tau: float, share) -> np.ndarray:
        """exp(-i tau h) coeffs for h = ``matrix(weights)``, on one parity half of the basis when it can.

        The step's Chebyshev interval is ``interval(weights)``.  When every
        cubic weight is exactly zero, every parity-changing entry of h is
        too, and h is the direct sum of its two diagonal blocks; when,
        besides, every column of ``coeffs`` is exactly zero on the other
        class, the step is that class's block acting on that class's rows,
        and it writes the result into ``coeffs`` in place.  The block is a
        direct summand of h, so the interval holds its spectrum and gives
        the step the weights of the full-basis step; the terms left out are
        exact zeros.  Any other step (a generator that breaks parity, a state
        with mass in both classes) runs on the whole basis.  The block lives
        only inside this call: kept until the next step, it raised the peak
        RSS of a fock-check run by about 1.3 MB.  Either path hands ``share``
        to ``expm_multiply``.
        """
        interval = self.interval(weights)
        if not np.any(weights[self._cubic]):
            for (members, positions, indices, indptr), (others, *_) in zip(self._halves, self._halves[::-1]):
                if not np.any(coeffs[others]):
                    size = len(members)
                    block = sparse.csr_matrix((h.data[positions], indices, indptr), shape=(size, size))
                    coeffs[members] = expm_multiply(block, coeffs[members], tau, interval, share)
                    return coeffs
        return expm_multiply(h, coeffs, tau, interval, share)


class FockEvolution(NamedTuple):
    state: FockVector
    snapshots: dict[float, FockVector]
    top_mass: float


def evolve_fock(
    gens: GeneratorSet,
    start: FockVector,
    trajectory: HartreeTrajectory,
    t0: float,
    t1: float,
    dt: float,
    which: str = "full",
    n_field: float = 1.0,
    snapshot_times=(),
) -> FockEvolution:
    """Integrate i d_t psi = H(t) psi from t0 to t1 (either direction).

    The generator is assembled at each step midpoint from the Hartree
    trajectory and applied through the exponential action, to one state or
    to a block of states at once, by one ``GeneratorSet.step`` per step,
    which takes the weights that the generator was assembled from.  A step
    runs on one parity half of the basis when the generator keeps parity
    exactly (every cubic weight zero) and every column lies in that half;
    otherwise, as for a ``full`` generator or a state in both halves, it
    runs on the whole basis.  Either way it is the same step, so
    the result does not depend on which path ran.  ``top_mass`` is the
    largest mass seen in the top two sectors of any column, the truncation
    monitor.

    A block of two or more columns opens a ``grid.step_pool`` for this
    call, of as many workers as ``grid.pool_size`` allows and no more than
    the columns, and each step's ``expm_multiply`` splits its recurrence
    over it.
    """
    sign = 1.0 if t1 > t0 else -1.0
    n_steps, indices = step_schedule(
        abs(t1 - t0), dt, [sign * (ts - t0) for ts in snapshot_times]
    )
    want = {i: float(ts) for i, ts in zip(indices, snapshot_times)}

    space = gens.space
    coeffs = start.coeffs.copy()
    snaps: dict[float, FockVector] = {}
    top = top_sector_mass(FockVector(space, coeffs))
    if 0 in want:
        snaps[want[0]] = FockVector(space, coeffs.copy())
    workers = min(pool_size(), 1 if coeffs.ndim == 1 else coeffs.shape[1])
    with step_pool(workers) as share:
        for step in range(n_steps):
            mid = t0 + sign * (step + 0.5) * dt
            # h stays bound until the next generator replaces it: freed before the next
            # assembly, its pages went back to the system and the assembly faulted them
            # in again, which made the bank product four times slower
            weights = gens.coefficients(trajectory.interpolate(mid), which, n_field)
            h = gens.matrix(weights)
            coeffs = gens.step(h, weights, coeffs, sign * dt, share)
            vec = FockVector(space, coeffs)
            top = np.maximum(top, top_sector_mass(vec))  # a NaN mass stays NaN
            if step + 1 in want:
                snaps[want[step + 1]] = vec.copy()
    return FockEvolution(FockVector(space, coeffs), snaps, top)


def site_backs(
    gens: GeneratorSet,
    trajectory: HartreeTrajectory,
    starts,
    dt: float,
    which: str,
    n_field: float,
) -> tuple[list[FockVector], float]:
    """Apply a_y to time-t states and evolve every copy back to time zero in one block.

    ``starts`` holds (state, t, sites) triples, with ``sites`` None for all
    sites.  The flow starts at the latest t with that start's copies, and at
    each earlier t the copies of the starts there join the block, so each
    step below the earlier time assembles its generator once for all of
    them.  Returns one (dimension, sites) block per start, in the order of
    ``starts``, and the worst truncation mass seen along the way.  Every
    column evolves on its own, so a column matches the one of a separate run
    from its own start, up to the rounding of the step midpoints.
    """
    space = gens.space
    dx = space.grid.dx

    def copies(state, sites):
        sites = range(space.grid.points) if sites is None else sites
        return np.stack([(space.annihilators[site] / np.sqrt(dx)) @ state.coeffs for site in sites], axis=1)

    order = sorted(range(len(starts)), key=lambda k: -starts[k][1])  # latest first, ties in given order
    widths = {}
    block, now, top = None, starts[order[0]][1], 0.0
    for k in order:
        state, t, sites = starts[k]
        if t < now:
            run = evolve_fock(gens, FockVector(space, block), trajectory, now, t, dt, which, n_field)
            block, now, top = run.state.coeffs, t, np.maximum(top, run.top_mass)
        joining = copies(state, sites)
        widths[k] = joining.shape[1]
        block = joining if block is None else np.concatenate([block, joining], axis=1)
    run = evolve_fock(gens, FockVector(space, block), trajectory, now, 0.0, dt, which, n_field)
    top = np.maximum(top, run.top_mass)  # a NaN mass stays NaN
    edges = dict(zip(order, np.cumsum([0] + [widths[k] for k in order])))
    return [FockVector(space, run.state.coeffs[:, edges[k] : edges[k] + widths[k]]) for k in range(len(starts))], top


def residual_aggregates(full_backs: FockVector, quad_backs: FockVector) -> dict[int, float]:
    """Difference between full and quadratic Heisenberg-evolved annihilators.

    For each lattice site y the residual vector is

        [U(t)* a_y U(t) - U2(t)* a_y U2(t)] vacuum,

    realized by evolving the vacuum forward with each generator, applying
    a_y, and evolving backward again: the columns of the two ``site_backs``
    blocks of all sites.  Aggregates are
    sum_y dx * || (N+1)^{j/2} r_y ||^2 for j = 0, 1, 2; their
    1/N decay is the quantitative content of the mean-field error bound.

    Each site's residual is summed as its own contiguous vector, so an
    aggregate does not depend on which other sites share the block.
    """
    space = full_backs.space
    diff = np.ascontiguousarray((full_backs.coeffs - quad_backs.coeffs).T)
    residuals = [FockVector(space, r) for r in diff]
    return {
        j: sum(space.grid.dx * shifted_number_norm(r, j) ** 2 for r in residuals) for j in (0, 1, 2)
    }
