"""Exact N-body Schroedinger dynamics on a tensor-product periodic grid.

The Hamiltonian is the sum of one-body spectral kinetic terms and the
mean-field-scaled pair interaction (1/N) sum_{i<j} V(x_i - x_j).  States are
dense complex tensors of shape (M,)*N, so memory is the binding constraint;
``product_state`` enforces an amplitude budget before allocating.

Propagation is Strang splitting with the kinetic half steps fused across
consecutive steps, which costs one N-dimensional FFT round trip per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import GridSpec, edge_mass, kinetic_matrix, potential_matrix, step_schedule

# Default cap on the number of complex amplitudes of one state (4 GiB of complex128).
DEFAULT_AMPLITUDE_BUDGET = 2**28


@dataclass
class NBodyState:
    grid: GridSpec
    n: int
    psi: np.ndarray  # complex, shape (grid.points,) * n
    t: float = 0.0

    def __post_init__(self):
        if self.psi.shape != (self.grid.points,) * self.n:
            raise ValueError(
                f"state tensor has shape {self.psi.shape}, expected {(self.grid.points,) * self.n}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi.ravel()) * self.grid.dx ** (self.n / 2.0))


@dataclass
class MarginalDensity:
    """k-particle reduced density matrix, stored as an (M^k, M^k) kernel."""

    grid: GridSpec
    k: int
    matrix: np.ndarray
    t: float = 0.0

    def trace(self) -> float:
        return float(np.trace(self.matrix).real * self.grid.dx**self.k)


def product_state(
    phi, n: int, grid: GridSpec, t: float = 0.0, budget: int = DEFAULT_AMPLITUDE_BUDGET
) -> NBodyState:
    """Tensor power phi^(x) n, the factorized N-body initial state."""
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    if grid.points**n > budget:
        raise MemoryError(
            f"state of {grid.points}^{n} amplitudes exceeds the budget of {budget}"
        )
    phi = np.asarray(phi, dtype=complex)
    psi = phi
    for _ in range(n - 1):
        psi = psi[..., None] * phi
    return NBodyState(grid, n, psi, t)


def interaction_tensor(grid: GridSpec, potential_samples: np.ndarray, n: int) -> np.ndarray:
    """W(x_1..x_n) = (1/n) sum_{i<j} V(x_i - x_j) as a dense real tensor."""
    m = grid.points
    vmat = potential_matrix(potential_samples, grid)
    w = np.zeros((m,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            shape = [1] * n
            shape[i] = m
            shape[j] = m
            w += vmat.reshape(shape)
    return w / n


def evolve_nbody(
    state: NBodyState, potential_samples: np.ndarray, span: float, dt: float
) -> NBodyState:
    """Propagate the state over ``span``, a whole number of steps of dt."""
    n_steps, _ = step_schedule(span, dt)
    grid, n = state.grid, state.n

    k2 = grid.wavenumbers**2
    ksum = np.zeros((grid.points,) * n)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = grid.points
        ksum += k2.reshape(shape)
    half_phase = np.exp(-0.5j * dt * ksum)
    full_phase = half_phase * half_phase
    del ksum
    pot_phase = np.exp(-1j * dt * interaction_tensor(grid, potential_samples, n))

    # Fused Strang sweep: one leading half kinetic step, then [potential,
    # kinetic] pairs with the last kinetic factor demoted to a half step.
    psi = sfft.ifftn(half_phase * sfft.fftn(state.psi.copy(), overwrite_x=True), overwrite_x=True)
    for step in range(n_steps):
        psi *= pot_phase
        phase = full_phase if step < n_steps - 1 else half_phase
        psi = sfft.ifftn(phase * sfft.fftn(psi, overwrite_x=True), overwrite_x=True)
    return NBodyState(grid, n, psi, state.t + n_steps * dt)


def nbody_energy(state: NBodyState, potential_samples: np.ndarray) -> float:
    """<psi, H psi> with the spectral kinetic sum and the scaled pair term."""
    grid, n = state.grid, state.n
    weight = grid.dx**n
    spec_density = np.abs(sfft.fftn(state.psi)) ** 2
    k2 = grid.wavenumbers**2
    kinetic = 0.0
    for axis in range(n):
        other = tuple(a for a in range(n) if a != axis)
        kinetic += float(k2 @ spec_density.sum(axis=other))
    kinetic *= weight / grid.points**n
    w = interaction_tensor(grid, potential_samples, n)
    pot = float(np.sum(w * np.abs(state.psi) ** 2)) * weight
    return kinetic + pot


def reduce_marginal(state: NBodyState, k: int = 1) -> MarginalDensity:
    """Partial trace over particles k+1..N of the pure-state projection.

    Returns the kernel gamma(x_1..x_k ; y_1..y_k) as a matrix indexed by the
    flattened first/second variable groups.  Supported for k in {1, 2}; at
    k = N it is the pure-state projection itself.
    """
    if k not in (1, 2):
        raise ValueError(f"marginal order k={k} not supported (use 1 or 2)")
    if k > state.n:
        raise ValueError(f"need k <= N, got k={k} with N={state.n}")
    m = state.grid.points
    a = state.psi.reshape(m**k, m ** (state.n - k))
    gamma = (a @ a.conj().T) * state.grid.dx ** (state.n - k)
    return MarginalDensity(state.grid, k, gamma, state.t)


def projection_marginal(phi, grid: GridSpec, t: float = 0.0) -> MarginalDensity:
    """Rank-one kernel phi(x) conj(phi(y)), the Hartree-side one-body density."""
    phi = np.asarray(phi, dtype=complex)
    return MarginalDensity(grid, 1, np.outer(phi, phi.conj()), t)


def _check_compatible(a: MarginalDensity, b: MarginalDensity):
    if a.grid != b.grid or a.k != b.k:
        raise ValueError("marginals live on different grids or orders")


def trace_distance(a: MarginalDensity, b: MarginalDensity) -> float:
    """Trace norm of the difference, dx-weighted; 2 for orthogonal pure states."""
    _check_compatible(a, b)
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(np.sum(np.abs(eig)) * a.grid.dx**a.k)


def hs_distance(a: MarginalDensity, b: MarginalDensity) -> float:
    """Hilbert-Schmidt norm of the difference, dx-weighted."""
    _check_compatible(a, b)
    return float(np.linalg.norm(a.matrix - b.matrix) * a.grid.dx**a.k)


def symmetry_defect(state: NBodyState) -> float:
    """Norm distance between the state and itself with two particles swapped."""
    if state.n < 2:
        return 0.0
    diff = state.psi - np.swapaxes(state.psi, 0, 1)
    return float(np.linalg.norm(diff.ravel()) * state.grid.dx ** (state.n / 2.0))


def marginal_boundary_mass(md: MarginalDensity) -> float:
    """Mass of the position density near the box edges (k=1 marginals)."""
    if md.k != 1:
        raise ValueError("boundary mass is defined for one-body marginals")
    return edge_mass(np.diag(md.matrix).real, md.grid)


def bbgky_residual(samples: list[NBodyState], potential_samples: np.ndarray, k: int = 1) -> float:
    """Defect of the first hierarchy equation on three consecutive snapshots.

    Uses a central difference in time for d/dt gamma^(1) at the middle
    snapshot and evaluates

        i d_t gamma = [T, gamma] + ((N-1)/N) Tr_2 [V(x - y), gamma^(2)]

    returning the dx-weighted Hilbert-Schmidt norm of the mismatch.  The
    defect is O(spacing^2) from the finite difference when the snapshots are
    exact; only k = 1 is implemented (higher orders need gamma^(3)).
    """
    if k != 1:
        raise ValueError("hierarchy residual implemented for k=1 only")
    if len(samples) < 3:
        raise ValueError("need at least three snapshots")
    mid = len(samples) // 2
    if mid + 1 >= len(samples):
        mid = len(samples) - 2
    before, now, after = samples[mid - 1], samples[mid], samples[mid + 1]
    spacing = now.t - before.t
    if abs((after.t - now.t) - spacing) > 1e-9 or spacing <= 0:
        raise ValueError("snapshots must be uniformly spaced in time")

    grid, n = now.grid, now.n
    m = grid.points

    g_before = reduce_marginal(before, 1).matrix
    g_after = reduce_marginal(after, 1).matrix
    gamma = reduce_marginal(now, 1).matrix
    dgdt = (g_after - g_before) / (2.0 * spacing)

    tmat = kinetic_matrix(grid)
    rhs = tmat @ gamma - gamma @ tmat
    if n >= 2:
        vmat = potential_matrix(potential_samples, grid)
        g2 = reduce_marginal(now, 2).matrix.reshape(m, m, m, m)
        diag = np.einsum("xzyz->xyz", g2)
        coll = np.einsum("xz,xyz->xy", vmat, diag) - np.einsum("yz,xyz->xy", vmat, diag)
        rhs = rhs + (n - 1) / n * grid.dx * coll

    resid = 1j * dgdt - rhs
    return float(np.linalg.norm(resid) * grid.dx)
