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
* a cubic part, scaled by 1/sqrt(N),
* a quartic part, scaled by 1/N,

and the cubic and quartic parts annihilate the vacuum.  Generators are
assembled per time step from precomputed sparse skeletons with
state-dependent coefficients; the step itself is the exponential action of
the midpoint generator, a Chebyshev expansion whose truncation error is
bounded before the first matvec (``expm_multiply``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import jv

from .bogoliubov import coupling_kernels
from .grid import WORKING_SET_BUDGET, GridSpec, kinetic_matrix, potential_matrix, step_schedule
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


def expm_multiply(h: sparse.csr_matrix, x: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau h) x for a Hermitian CSR matrix h; x is one vector or a (dim, k) block.

    Chebyshev propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)) on the Gershgorin interval [a, b] of h: with c = (a + b) / 2 and
    r = (b - a) / 2,

        exp(-i tau h) = exp(-i tau c) sum_k w_k(tau r) T_k((h - c) / r),

    summed by the three-term recurrence over the whole block.  The degree
    follows from tau r alone (``_chebyshev_weights``), so the truncation
    error is at most STEP_TAIL_BOUND ||x|| before rounding, every column
    takes the same path, and the result is deterministic.
    """
    diag = h.diagonal().real
    row_sums = sparse.csr_matrix((np.abs(h.data), h.indices, h.indptr), shape=h.shape) @ np.ones(h.shape[1])
    radii = row_sums - np.abs(diag)
    lo, hi = np.min(diag - radii), np.max(diag + radii)
    centre, half_width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = np.exp(-1j * tau * centre)
    if half_width == 0.0:
        return phase * x

    weights = _chebyshev_weights(tau * half_width)
    # the recurrence applies 2 (h - c) / r: a scaled copy of h, minus a shift
    twice = sparse.csr_matrix((h.data * (2.0 / half_width), h.indices, h.indptr), shape=h.shape)
    shift = 2.0 * centre / half_width
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
    return phase * total


def admit_lattice(sites: int, cutoff: int) -> int:
    """Dimension C(cutoff + sites, sites) of a lattice, refused before any allocation.

    Each of the 5 sites^2 + 1 generator skeletons maps a basis column to at most
    one row, and a ``GeneratorSet`` build peaks below 112 B per such entry
    (tracemalloc: 111 B at one site, 56-65 B at four).  Above WORKING_SET_BUDGET
    that is a ``MemoryError``; keys that would overflow int64 are a ``ValueError``.
    """
    dim = comb(cutoff + sites, sites)
    need = 112 * (5 * sites**2 + 1) * dim
    if need > WORKING_SET_BUDGET:
        raise MemoryError(
            f"{sites} sites at cutoff {cutoff} give {dim} basis states, whose generators "
            f"need {need} bytes, which exceeds the budget of {WORKING_SET_BUDGET} bytes"
        )
    if (cutoff + 1) ** (sites + 1) > 2**63:
        raise ValueError(f"basis keys of {sites} sites at cutoff {cutoff} overflow int64")
    return dim


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

        # b_i |n> = sqrt(n_i) |n - e_i>, and n - e_i has the key of n minus weight i
        self.annihilators = []
        for i in range(m):
            (cols,) = np.nonzero(self.occupations[:, i])
            rows = np.searchsorted(self._keys, self._keys[cols] - self._weights[i])
            data = np.sqrt(self.occupations[cols, i])
            self.annihilators.append(sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim)))

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


def sector_masses(vec: FockVector) -> np.ndarray:
    """Squared-norm mass per total-occupation sector, one column per state.

    Each column is summed on its own, so a block's masses equal the
    per-column results stacked, bit for bit.
    """
    per_state = np.abs(vec.coeffs.reshape(vec.space.dimension, -1).T, order="C") ** 2
    masses = np.add.reduceat(per_state, vec.space.sector_offsets[:-1], axis=1).T
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

    For a block this is the worst column.
    """
    masses = sector_masses(vec)
    return float(np.max(np.sum(masses[-2:], axis=0)))


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


class GeneratorSet:
    """Fluctuation generators on a lattice Fock space for one pair potential.

    Sparse skeletons (one-body transfers b_i* b_j, pair raisers b_i* b_j*,
    their adjoints, the cubic strings b_i* b_j* b_i and b_i* b_j b_i, and the
    diagonal quartic) are built once; ``matrix`` contracts them with
    state-dependent coefficients on a shared sparsity pattern.  The
    coefficient bank is sparse (row alpha holds skeleton alpha on the
    pattern), so per-step assembly costs one sparse matvec over the stored
    skeleton entries; the one-body weights carry the kinetic term.
    """

    def __init__(self, space: LatticeFockSpace, potential_samples: np.ndarray):
        self.space = space
        self.grid = space.grid
        self.potential_samples = np.asarray(potential_samples, dtype=float)
        self.vmat = potential_matrix(self.potential_samples, self.grid)
        m = self.grid.points
        b = space.annihilators
        bdag = [op.T.tocsr() for op in b]

        self.tmat = kinetic_matrix(self.grid)
        skeletons = [(bdag[i] @ b[j]).tocsr() for i in range(m) for j in range(m)]
        self._one_body = slice(0, m * m)
        self._pair_raise = []
        self._pair_lower = []
        for i in range(m):
            for j in range(m):
                q = (bdag[i] @ bdag[j]).tocsr()
                self._pair_raise.append(len(skeletons))
                skeletons.append(q)
                self._pair_lower.append(len(skeletons))
                skeletons.append(q.T.tocsr())
        self._cubic_raise = []
        self._cubic_lower = []
        for i in range(m):
            for j in range(m):
                c1 = (bdag[i] @ bdag[j] @ b[i]).tocsr()
                self._cubic_raise.append(len(skeletons))
                skeletons.append(c1)
                self._cubic_lower.append(len(skeletons))
                skeletons.append(c1.T.tocsr())
        # quartic: diagonal in the occupation basis
        occ = space.occupations.astype(float)
        quart = 0.5 * (np.einsum("si,ij,sj->s", occ, self.vmat, occ) - occ @ np.diag(self.vmat))
        self._quartic = len(skeletons)
        skeletons.append(sparse.diags(quart).tocsr())

        self.n_terms = len(skeletons)
        # shared sparsity pattern: the union of all skeleton supports
        union = sum(abs(sk) for sk in skeletons).tocsr()
        union.sum_duplicates()
        union.sort_indices()
        self._indptr = union.indptr
        self._indices = union.indices
        self._nnz = union.nnz
        # sparse coefficient bank: row alpha holds skeleton alpha on the
        # union, located by the sorted keys row * dim + col
        dim = space.dimension
        union_coo = union.tocoo()
        union_keys = union_coo.row.astype(np.int64) * dim + union_coo.col
        coos = [sk.tocoo() for sk in skeletons]
        keys = np.concatenate([c.row.astype(np.int64) * dim + c.col for c in coos])
        terms = np.repeat(np.arange(self.n_terms), [c.nnz for c in coos])
        self._bank = sparse.csr_matrix(
            (np.concatenate([c.data for c in coos]), (terms, np.searchsorted(union_keys, keys))),
            shape=(self.n_terms, self._nnz),
        )

    def coefficients(self, phi, which: str, n_field: float) -> np.ndarray:
        """Complex weight per skeleton for the generator at Hartree state phi."""
        if which not in ("full", "quadratic", "cubic", "quartic"):
            raise ValueError(f"unknown generator selection {which!r}")
        m = self.grid.points
        dx = self.grid.dx
        c = np.zeros(self.n_terms, dtype=complex)
        phi = np.asarray(phi, dtype=complex)
        quad = which in ("full", "quadratic")
        if quad:
            kern = coupling_kernels(phi, self.potential_samples, self.grid)
            w = self.tmat + dx * kern.k1 + np.diag(kern.u_eff)
            c[self._one_body] = w.reshape(-1)
            c[self._pair_raise] = 0.5 * dx * kern.k2.reshape(-1)
            c[self._pair_lower] = 0.5 * dx * kern.k2.conj().reshape(-1)
        if which in ("full", "cubic"):
            s = np.sqrt(dx / n_field)
            cub = s * self.vmat * phi[None, :]
            c[self._cubic_raise] = cub.reshape(-1)
            c[self._cubic_lower] = cub.conj().reshape(-1)
        if which in ("full", "quartic"):
            c[self._quartic] = 1.0 / n_field
        return c

    def matrix(self, phi, which: str = "full", n_field: float = 1.0) -> sparse.csr_matrix:
        data = self._bank.T @ self.coefficients(phi, which, n_field)
        return sparse.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()),
            shape=(self.space.dimension, self.space.dimension),
        )


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
    to a block of states at once.  ``top_mass`` is the largest mass seen in
    the top two sectors of any column, the truncation monitor.
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
    for step in range(n_steps):
        mid = t0 + sign * (step + 0.5) * dt
        h = gens.matrix(trajectory.interpolate(mid), which, n_field)
        coeffs = expm_multiply(h, coeffs, sign * dt)
        vec = FockVector(space, coeffs)
        top = max(top, top_sector_mass(vec))
        if step + 1 in want:
            snaps[want[step + 1]] = vec.copy()
    return FockEvolution(FockVector(space, coeffs), snaps, top)


class ResidualField(NamedTuple):
    aggregates: dict[int, float]
    top_mass: float


def site_backs(
    gens: GeneratorSet,
    trajectory: HartreeTrajectory,
    state: FockVector,
    t: float,
    dt: float,
    which: str,
    n_field: float,
    sites=None,
) -> tuple[list, float]:
    """Apply a_y to a time-t state and evolve each copy back to time zero.

    Returns one backward state per requested site (all sites by default) and
    the worst truncation mass seen along the way.  The copies travel as one
    (dimension, sites) block, so each step assembles its generator once.
    """
    space = gens.space
    dx = space.grid.dx
    if sites is None:
        sites = range(space.grid.points)
    block = np.stack(
        [(space.annihilators[site] / np.sqrt(dx)) @ state.coeffs for site in sites], axis=1
    )
    run = evolve_fock(gens, FockVector(space, block), trajectory, t, 0.0, dt, which, n_field)
    backs = [FockVector(space, col) for col in np.ascontiguousarray(run.state.coeffs.T)]
    return backs, run.top_mass


def annihilator_residual(
    gens: GeneratorSet,
    trajectory: HartreeTrajectory,
    t: float,
    dt: float,
    n_field: float,
    forward_full: FockVector,
    quad_parts: tuple,
) -> ResidualField:
    """Difference between full and quadratic Heisenberg-evolved annihilators.

    For each lattice site y the residual vector is

        [U(t)* a_y U(t) - U2(t)* a_y U2(t)] vacuum,

    realized by evolving the vacuum forward with each generator, applying
    a_y, and evolving backward again.  Aggregates are
    sum_y dx * || (N+1)^{j/2} r_y ||^2 for j = 0, 1, 2; their
    1/N decay is the quantitative content of the mean-field error bound.

    ``forward_full`` is the vacuum evolved to time t by the full generator.
    The quadratic flow does not depend on the field strength, so its site
    backs and their truncation mass come in as ``quad_parts`` and are
    shared across strengths.
    """
    space = gens.space
    dx = space.grid.dx
    backs_quad, top_quad = quad_parts
    backs_full, top_full = site_backs(gens, trajectory, forward_full, t, dt, "full", n_field)
    top = max(top_quad, top_full)

    residuals = [
        FockVector(space, bf.coeffs - bq.coeffs) for bf, bq in zip(backs_full, backs_quad)
    ]
    aggregates = {
        j: sum(dx * shifted_number_norm(r, j) ** 2 for r in residuals) for j in (0, 1, 2)
    }
    return ResidualField(aggregates, top)

