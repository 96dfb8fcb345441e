"""Exact N-body Schroedinger dynamics on a tensor-product periodic grid.

The Hamiltonian is the sum of one-body spectral kinetic terms and the
mean-field-scaled pair interaction (1/N) sum_{i<j} V(x_i - x_j).  States are
dense complex tensors of shape (M,)*N, so memory is the binding constraint;
``product_state`` refuses an (M, N) pair whose sweep working set exceeds a
byte budget before allocating.

Propagation is Strang splitting with the kinetic half steps fused across
consecutive steps.  The kinetic factor of one step is an M x M position-space
propagator applied on each axis in turn, N matrix products per step, and the
potential factor is a precomputed phase applied in place.  That phase is a
product of M x M pair phases built one axis at a time, and the energy of a
symmetric state reads one axis and the pair density, so neither makes a pass
over the state per pair or per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import (
    WORKING_SET_BUDGET,
    GridSpec,
    edge_mass,
    kinetic_matrix,
    kinetic_phase,
    multiplier_matrix,
    potential_matrix,
    step_schedule,
)

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


def working_set_bytes(points: int, n: int) -> int:
    """Bytes of the state-size arrays a sweep over (points,)*n holds at once.

    At its peak evolve_nbody holds four complex arrays: the state it was
    given, the potential phase and its two buffers.  Building the phase holds
    three (the state, the phase and its last pair column); nbody_energy,
    reduce_marginal and symmetry_defect hold fewer.
    """
    return 4 * 16 * points**n


def product_state(phi, n: int, grid: GridSpec, t: float = 0.0) -> NBodyState:
    """Tensor power phi^(x) n, the factorized N-body initial state.

    Refused with ``MemoryError``, before anything is allocated, when the
    working set of a sweep over this state exceeds WORKING_SET_BUDGET.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    need = working_set_bytes(grid.points, n)
    if need > WORKING_SET_BUDGET:
        raise MemoryError(
            f"a sweep over {grid.points}^{n} amplitudes needs {need} bytes, "
            f"which exceeds the budget of {WORKING_SET_BUDGET} bytes"
        )
    phi = np.asarray(phi, dtype=complex)
    psi = phi
    for _ in range(n - 1):
        psi = psi[..., None] * phi
    return NBodyState(grid, n, psi, t)


def interaction_tensor(grid: GridSpec, potential_samples: np.ndarray, n: int) -> np.ndarray:
    """W(x_1..x_n) = (1/n) sum_{i<j} V(x_i - x_j) as a dense real tensor.

    No pipeline calls it: the propagator builds exp(-i dt W) from pair phases
    (``potential_phase``) and the energy reads the pair density.  It stays as the
    tests' oracle and because the benchmark's tracer wraps it by name.
    """
    m = grid.points
    vmat = potential_matrix(potential_samples, grid)
    w = np.zeros((m,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            shape = [1] * n
            shape[i] = m
            shape[j] = m
            w += vmat.reshape(shape)
    w /= n
    return w


def potential_phase(grid: GridSpec, potential_samples: np.ndarray, n: int, dt: float) -> np.ndarray:
    """exp(-i dt W) over (M,)*n, as the product prod_{i<j} P(x_i - x_j) of pair phases.

    P = exp(-i dt V / n) is an M x M matrix.  The product is built one axis
    at a time: level k multiplies the phase of the first k axes by the column
    prod_{i<=k} P(x_i - y) of the pairs the new axis y closes, and the column
    gains one pair factor per level, so only the last column and the last
    phase are state-size.
    """
    pair = np.exp((-1j * dt / n) * potential_matrix(potential_samples, grid))
    phase = np.ones(grid.points, dtype=complex)
    column = pair
    for level in range(1, n):
        phase = phase[..., None] * column
        if level < n - 1:
            column = column[..., None, :] * pair
    return phase


def evolve_nbody(
    state: NBodyState, potential_samples: np.ndarray, span: float, dt: float
) -> NBodyState:
    """Propagate the state over ``span``, a whole number of steps of dt."""
    n_steps, _ = step_schedule(span, dt)
    grid, n, m = state.grid, state.n, state.grid.points

    pot_phase = potential_phase(grid, potential_samples, n, dt)
    # Transposed, so that each product below applies the propagator itself.
    half = multiplier_matrix(grid, kinetic_phase(grid, 0.5 * dt)).T
    full = multiplier_matrix(grid, kinetic_phase(grid, dt)).T
    buffers = (np.empty(state.psi.shape, complex), np.empty(state.psi.shape, complex))

    def kinetic(psi, prop):
        # Each product contracts the leading axis and moves it last, so n
        # products act on every axis and restore the axis order.
        for _ in range(n):
            out = buffers[1] if psi is buffers[0] else buffers[0]
            np.matmul(psi.reshape(m, -1).T, prop, out=out.reshape(-1, m))
            psi = out
        return psi

    # Fused Strang sweep: one leading half kinetic step, then [potential,
    # kinetic] pairs with the last kinetic factor demoted to a half step.
    psi = kinetic(state.psi, half)
    for step in range(n_steps):
        psi *= pot_phase
        psi = kinetic(psi, full if step < n_steps - 1 else half)
    return NBodyState(grid, n, psi, state.t + n_steps * dt)


def nbody_energy(state: NBodyState, potential_samples: np.ndarray) -> float:
    """<psi, H psi> of a symmetric state, from one axis and the pair density.

    For a state symmetric under particle exchange

        E = N <T on one axis> + ((N-1)/2) sum_xy V(x - y) rho_2(x, y) dx^N,

    with the kinetic term a spectral sum over the last axis and rho_2 the
    position density |psi|^2 summed over every axis but the first two.  The
    formula assumes the symmetry; the harness measures it as ``sym_defect``.
    Both sums run along contiguous axes, so numpy adds them pairwise.
    """
    grid, n, m = state.grid, state.n, state.grid.points
    weight = grid.dx**n
    psi = np.ascontiguousarray(state.psi).reshape(-1, m)
    # |psi_hat|^2 weighted by k^2, as real and imaginary parts in place
    spec = sfft.fftn(psi, axes=(1,)).view(float)
    np.square(spec, out=spec)
    kinetic = float(np.sum(spec @ np.repeat(grid.wavenumbers**2, 2))) * n * weight / m
    if n < 2:
        return kinetic
    # |psi|^2 into the spectrum's buffer, summed over all axes but the first two
    density = np.square(psi.view(float), out=spec).reshape(m * m, -1).sum(axis=1)
    vmat = potential_matrix(potential_samples, grid)
    pot = float(vmat.ravel() @ density) * (n - 1) / 2 * weight
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


def bbgky_residual(samples: list[NBodyState], potential_samples: np.ndarray) -> float:
    """Defect of the first hierarchy equation on three consecutive snapshots.

    Uses a central difference in time for d/dt gamma^(1) at the middle
    snapshot and evaluates

        i d_t gamma = [T, gamma] + ((N-1)/N) Tr_2 [V(x - y), gamma^(2)]

    returning the dx-weighted Hilbert-Schmidt norm of the mismatch.  The
    defect is O(spacing^2) from the finite difference when the snapshots are
    exact.
    """
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
