"""Truncated bosonic Fock space on the lattice sites of a periodic grid.

The mode set is the grid itself, so all operators inherit the grid
conventions: field operators at a site are a_x = b_x / sqrt(dx) with
dimensionless mode operators [b_i, b_j*] = delta_ij, smeared creators are
a*(f) = sum_i sqrt(dx) f_i b_i*, and the one-body kinetic matrix is the same
spectral k^2 operator the kernel solvers use.  States live in the graded
occupation basis with total occupation <= cutoff.

The fluctuation generator around a Hartree state phi splits into

* a quadratic part: kinetic + mean-field potential + exchange kernel +
  pair creation/annihilation,
* a cubic part, scaled by 1/sqrt(N),
* a quartic part, scaled by 1/N,

and the cubic and quartic parts annihilate the vacuum.  Generators are
assembled per time step from precomputed sparse skeletons with
state-dependent coefficients; the step itself is the exponential action
computed by scipy's expm_multiply on the midpoint generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .bogoliubov import coupling_kernels
from .grid import GridSpec, kinetic_matrix, potential_matrix, step_schedule
from .hartree import HartreeTrajectory


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class LatticeFockSpace:
    """Graded occupation basis over ``grid.points`` modes, total <= cutoff."""

    def __init__(self, grid: GridSpec, cutoff: int):
        if cutoff < 1:
            raise ValueError(f"cutoff must be at least 1, got {cutoff}")
        self.grid = grid
        self.cutoff = cutoff
        m = grid.points

        occ = []
        offsets = [0]
        for total in range(cutoff + 1):
            occ.extend(_compositions(total, m))
            offsets.append(len(occ))
        self.occupations = np.array(occ, dtype=np.int64)
        self.sector_offsets = np.array(offsets, dtype=np.int64)
        self.dimension = len(occ)
        assert self.dimension == comb(cutoff + m, m)
        self.index = {tuple(row): i for i, row in enumerate(occ)}
        self.totals = self.occupations.sum(axis=1)

        # per-mode annihilators b_i in the graded basis
        self.annihilators = []
        for i in range(m):
            rows, cols, data = [], [], []
            for s, row in enumerate(occ):
                ni = row[i]
                if ni:
                    target = list(row)
                    target[i] = ni - 1
                    rows.append(self.index[tuple(target)])
                    cols.append(s)
                    data.append(np.sqrt(ni))
            self.annihilators.append(
                sparse.csr_matrix((data, (rows, cols)), shape=(self.dimension, self.dimension))
            )

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
    gen = ladder(space, f, create=True) - ladder(space, f, create=False)
    out = FockVector(space, expm_multiply(gen, vec.coeffs))
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


def reconstruct_product_state(
    space: LatticeFockSpace, phi, n: int, quad_points: int | None = None
) -> FockVector:
    """Rebuild the n-fold product state as a phase average of coherent states.

    Averages exp(i theta n) W(exp(-i theta) sqrt(n) phi) vacuum over the
    uniform grid of ``quad_points`` angles and rescales by the coherent
    normalization constant.  The trapezoid sum is exact (up to truncation of
    the displaced state itself) once quad_points >= 2 * cutoff + 1.
    """
    if quad_points is None:
        quad_points = 2 * space.cutoff + 1
    if quad_points < 2 * space.cutoff + 1:
        raise ValueError(f"need at least {2 * space.cutoff + 1} quadrature points, got {quad_points}")
    if not 1 <= n <= space.cutoff:
        raise ValueError(f"need 1 <= n <= cutoff, got n={n}, cutoff={space.cutoff}")
    phi = np.asarray(phi, dtype=complex)
    from .combinatorics import log_coherent_norm

    acc = np.zeros(space.dimension, dtype=complex)
    for q in range(quad_points):
        theta = 2.0 * np.pi * q / quad_points
        disp, _ = weyl_apply(space, np.exp(-1j * theta) * np.sqrt(n) * phi, vacuum(space))
        acc += np.exp(1j * theta * n) * disp.coeffs
    acc *= np.exp(log_coherent_norm(n)) / quad_points
    return FockVector(space, acc)


def one_particle_values(vec: FockVector) -> np.ndarray:
    """Wavefunction samples of the one-particle sector: psi(x_i) = c_i/sqrt(dx).

    The basis enumeration inside a sector is lexicographic over occupation
    vectors, not mode order, so the singly occupied states are routed through
    their occupation rows before scaling.
    """
    space = vec.space
    sl = space.sector_slice(1)
    modes = np.argmax(space.occupations[sl], axis=1)
    values = np.empty(space.grid.points, dtype=complex)
    values[modes] = vec.coeffs[sl]
    return values / np.sqrt(space.grid.dx)


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
    skeleton entries.
    """

    def __init__(self, space: LatticeFockSpace, potential_samples: np.ndarray):
        self.space = space
        self.grid = space.grid
        self.potential_samples = np.asarray(potential_samples, dtype=float)
        self.vmat = potential_matrix(self.potential_samples, self.grid)
        m = self.grid.points
        b = space.annihilators
        bdag = [op.T.tocsr() for op in b]

        skeletons: list[sparse.csr_matrix] = []
        # term 0: spectral kinetic operator sum_ij T_ij b_i* b_j
        tmat = kinetic_matrix(self.grid)
        kin = sum(tmat[i, j] * (bdag[i] @ b[j]) for i in range(m) for j in range(m))
        skeletons.append(kin.tocsr())
        self._one_body = []
        for i in range(m):
            for j in range(m):
                sk = (bdag[i] @ b[j]).tocsr()
                self._one_body.append(len(skeletons))
                skeletons.append(sk)
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
            c[0] = 1.0
            w = dx * kern.k1 + np.diag(kern.u_eff)
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
        coeffs = expm_multiply((-1j * sign * dt) * h, coeffs)
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

    expm_multiply stays on its deterministic branch only while
    ||dt (H - mu)||_1 <= 63.36 / k, with mu = trace(H) / dimension and k the
    number of sites in the block; beyond that it estimates norms of powers
    with the randomised onenormest, and reruns are no longer bitwise
    identical.
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
    weights=(0, 1, 2),
) -> ResidualField:
    """Difference between full and quadratic Heisenberg-evolved annihilators.

    For each lattice site y the residual vector is

        [U(t)* a_y U(t) - U2(t)* a_y U2(t)] vacuum,

    realized by evolving the vacuum forward with each generator, applying
    a_y, and evolving backward again.  Aggregates are
    sum_y dx * || (N+1)^{j/2} r_y ||^2 for each requested weight j; their
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
    aggregates = {j: sum(dx * shifted_number_norm(r, j) ** 2 for r in residuals) for j in weights}
    return ResidualField(aggregates, top)


def generator_bound_probe(
    gens: GeneratorSet, phi, n_values, trials: int = 6, seed: int = 0
) -> dict[str, dict[int, float]]:
    """Measured norm ratios of the scaled generator parts on random states.

    For each n the cubic part is compared against ||(N+1)^{3/2} psi|| after
    multiplying back its sqrt(n) scale, and the quartic part against
    ||(N+1)^2 psi|| times n.  The rescaled ratios are n-independent by
    construction; the probe records their observed size (a diagnostic for
    the operator bounds, not a proof).
    """
    rng = np.random.default_rng(seed)
    space = gens.space
    out: dict[str, dict[int, float]] = {"cubic": {}, "quartic": {}}
    states = []
    for _ in range(trials):
        c = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        states.append(c / np.linalg.norm(c))
    for n in n_values:
        h3 = gens.matrix(phi, "cubic", n)
        h4 = gens.matrix(phi, "quartic", n)
        r3 = r4 = 0.0
        for c in states:
            vec = FockVector(space, c)
            r3 = max(r3, np.sqrt(n) * np.linalg.norm(h3 @ c) / shifted_number_norm(vec, 3))
            r4 = max(r4, n * np.linalg.norm(h4 @ c) / shifted_number_norm(vec, 4))
        out["cubic"][n] = float(r3)
        out["quartic"][n] = float(r4)
    return out
