"""Exact N-body Schroedinger dynamics on a tensor-product periodic grid.

The Hamiltonian is the sum of one-body spectral kinetic terms and the
mean-field-scaled pair interaction (1/N) sum_{i<j} V(x_i - x_j).  States are
dense complex tensors of shape (M,)*N, so memory is the binding constraint.
A sweep holds the state as its one state-size array: every pass over it
works in buffers of at most SLAB amplitudes, and ``admit_sweep`` refuses an
(M, N) pair whose working set exceeds a byte budget before allocating.

Propagation is Strang splitting with the kinetic half steps fused across
consecutive steps, blocked for the cache.  The N axes split into L leading
and k trailing ones, k the most with M^k <= SLAB, so the state is M^L slabs
of at most SLAB amplitudes.  ``evolve_nbody`` builds the operators of its
step at the top of each call, in milliseconds: the M x M position-space
kinetic propagators and three tables of pair phases
exp(-i dt V(x_i - x_j) / N), none of them state-size.  It advances a state
in place in two passes per step.  Slab by slab, it applies the phase and
the kinetic factor on the trailing axes, with the pair phases of the slab's
leading index folded into the propagator.
Block of columns by block, it applies the kinetic factor on the leading
axes.  When M^N <= SLAB, L = 0 and the step is the unblocked one.  When
there are several slabs, both passes run their slabs and blocks on
``grid.step_pool``.
``product_state`` writes the state slab by slab; the marginals and the
energy's pair density read it in blocks of whole columns of at most SLAB
amplitudes, and the symmetry defect in contiguous blocks of pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import (
    GridSpec,
    admit,
    edge_mass,
    kinetic_matrix,
    kinetic_phase,
    multiplier_matrix,
    pool_size,
    potential_matrix,
    step_pool,
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


@dataclass
class MarginalDensity:
    """k-particle kernel as an (M^k, M^k) matrix: a reduced density matrix, or a difference or correction."""

    grid: GridSpec
    k: int
    matrix: np.ndarray
    t: float = 0.0

    def trace(self) -> float:
        return float(np.trace(self.matrix).real * self.grid.dx**self.k)

    def norm(self) -> float:
        """Hilbert-Schmidt norm, dx-weighted."""
        return float(np.linalg.norm(self.matrix) * self.grid.dx**self.k)


# A slab of 2**16 complex amplitudes is 1 MB; with its 1 MB buffer it fills
# a core's 2 MB L2, so the products on a slab run from cache.
SLAB = 2**16


def _trailing_axes(points: int, n: int) -> int:
    """The k trailing axes of a blocked step: the most, at least one, with points**k <= SLAB."""
    k = 1
    while k < n and points ** (k + 1) <= SLAB:
        k += 1
    return k


def _blocking(rows: int, cols: int) -> tuple[int, int]:
    """Workers and leading-pass block width for a state of ``rows`` slabs of ``cols`` amplitudes.

    No more workers than slabs; the blocks of all workers together hold
    about SLAB amplitudes, and each at least one column.
    """
    workers = min(pool_size(), rows)
    return workers, min(cols, max(1, SLAB // rows // workers))


def working_set_bytes(points: int, n: int) -> int:
    """Bytes a sweep over (points,)*n holds at its peak: the state, the step's tables and scratch.

    evolve_nbody's tables hold points**k + points**(n-k) (points + 1) amplitudes.
    Each of evolve_nbody's workers (``_blocking``) holds a slab buffer,
    three M x M buffers for folding a slab's pair phases into the propagator
    and two blocks of columns, and each worker beside the caller a thread,
    whose Python objects (about 8 KiB) are charged as 1024 amplitudes.
    Every other pass works in at most three buffers of SLAB amplitudes (one
    M x M block on grids of more than 256 points).  The step's own M x M
    propagators, a few KiB on 16 points, are left out.
    """
    k = _trailing_axes(points, n)
    rows, cols = points ** (n - k), points**k
    workers, width = _blocking(rows, cols)
    tables = cols + rows * (points + 1)
    step_scratch = workers * (cols + 3 * points**2 + 2 * rows * width) + 1024 * (workers - 1)
    return 16 * (points**n + tables + max(step_scratch, 3 * max(SLAB, points**2)))


def admit_sweep(points: int, n: int) -> None:
    """Refuse, through ``grid.admit``, a sweep whose ``working_set_bytes`` exceed the budget.

    The state alone holds 16 points^n >= 2^(4 + n floor(log2 points)) bytes, so
    a sweep far past the budget is refused on that bound before points^n is built.
    A sweep that may fit but needs more axes than numpy's 64 is refused with
    ``ValueError``: on one point the state stays one amplitude at any n.
    """
    what = f"a sweep over {points}^{n} amplitudes"

    def need() -> int:
        if n > 64:
            raise ValueError(f"{what} needs {n} axes, and numpy holds at most 64")
        return working_set_bytes(points, n)

    admit(what, need, 4 + n * (points.bit_length() - 1))


def product_state(phi, n: int, grid: GridSpec, t: float = 0.0) -> NBodyState:
    """Tensor power phi^(x) n, the factorized N-body initial state.

    Refused by ``admit_sweep`` before anything is allocated.  Written slab by
    slab (``_trailing_axes``), each amplitude 1 phi(x_1) phi(x_2) ... phi(x_N)
    multiplied left to right, so the tensor does not depend on SLAB.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    admit_sweep(grid.points, n)
    m, k = grid.points, _trailing_axes(grid.points, n)
    phi, lead = np.asarray(phi, dtype=complex), np.ones((), dtype=complex)
    for _ in range(n - k):
        lead = lead[..., None] * phi
    psi = np.empty((m,) * n, complex)
    for slab, head in zip(psi.reshape(-1, m**k), lead.reshape(-1, 1)):
        for _ in range(k):
            head = head[..., None] * phi
        slab[:] = head.ravel()
    return NBodyState(grid, n, psi, t)


def interaction_tensor(grid: GridSpec, potential_samples: np.ndarray, n: int) -> np.ndarray:
    """W(x_1..x_n) = (1/n) sum_{i<j} V(x_i - x_j) as a dense real tensor.

    No pipeline calls it: the propagator builds exp(-i dt W) from pair phases
    (``_pair_tables``) and the energy reads the pair density.  It stays as the
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


def _pair_tables(pair: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-phase products over n axes, built one axis at a time.

    Returns the phase prod_{i<j} pair[x_i, x_j] over (M,)*n and the column
    prod_i pair[x_i, y] over (M,)*n + (M,) of the pairs a further axis y
    would close.  Each level multiplies the phase so far by the column, so
    no pair is visited twice.
    """
    phase = np.ones((), dtype=complex)
    column = np.ones(len(pair), dtype=complex)
    for _ in range(n):
        phase = phase[..., None] * column
        column = column[..., None, :] * pair
    return phase, column


def _rotate(x: np.ndarray, y: np.ndarray, props: list) -> np.ndarray:
    """Apply props[j] on axis j of x, alternating between x and y; return the buffer holding the result.

    Each product contracts the leading axis and moves it last, so len(props)
    products act on that many leading axes in order.
    """
    m = len(props[0])
    for prop in props:
        np.matmul(x.reshape(m, -1).T, prop, out=y.reshape(-1, m))
        x, y = y, x
    return x


def evolve_nbody(state: NBodyState, potential_samples: np.ndarray, span: float, dt: float) -> NBodyState:
    """Advance the state in place over ``span``, a whole number of steps of dt.

    The call first builds its step.  Its tables multiply the pair phases
    P = exp(-i dt V / N) one axis at a time (``_pair_tables``): the phase of
    the pairs among the k trailing axes, and per leading index i = (a_1..a_L)
    the column cross[i] = prod_l P[a_l, y] and the scalar
    lead[i] = prod_{l<l'} P[a_l, a_l'].  Together they hold M^k + M^L (M + 1)
    amplitudes, so at N = 6 on 16 points the build takes milliseconds.

    Each Strang step is two passes over the state, and only the state is
    state-size.  The trailing pass multiplies each slab by the pair
    phase and applies the kinetic propagator on its k axes: k products that
    alternate between the slab and a slab buffer, with the leading-trailing
    pairs folded into the propagator as diag(cross[i]) K and the leading
    pairs' scalar into the first product.  The leading pass applies the
    propagator on the L leading axes, one block of columns at a time,
    through two block buffers.  When the whole state is one slab (L = 0) the
    step is the unblocked one: the phase, then N products.  When k is odd
    the phase is written into the buffer, so the last product lands in the
    slab; only the first half step of a call then copies each slab into the
    buffer.

    With several slabs, each pass hands its slabs or blocks to a
    ``grid.step_pool`` of ``_blocking``'s workers, each with its own slab
    buffer, folded propagators and block buffers.

    The state's amplitudes are overwritten (after a contiguous copy if they
    are not C-contiguous) and the same state is returned, so a caller that
    needs the start afterwards evolves a copy.
    """
    n_steps, _ = step_schedule(span, dt)
    grid, n = state.grid, state.n
    m, k = grid.points, _trailing_axes(grid.points, n)
    pair = np.exp((-1j * dt / n) * potential_matrix(potential_samples, grid))
    lead, cross = _pair_tables(pair, n - k)
    inner, column = _pair_tables(pair, k - 1)  # the last trailing axis closes its pairs in the phase
    phase = (inner[..., None] * column).reshape(-1)
    del inner, column  # column is as large as the phase, and the passes need neither
    lead, cross = lead.reshape(-1), cross.reshape(-1, m)
    # Kinetic propagators of dt/2 and dt, transposed, so that the slab
    # products apply the propagators themselves.
    half = multiplier_matrix(grid, kinetic_phase(grid, 0.5 * dt)).T
    full = multiplier_matrix(grid, kinetic_phase(grid, dt)).T
    psi = np.ascontiguousarray(state.psi, dtype=complex)
    slabs = psi.reshape(-1, m**k)
    rows, cols = slabs.shape
    workers, width = _blocking(rows, cols)
    spares = np.empty((workers, cols), complex)
    if rows > 1:
        folds = np.empty((workers, 3, m, m), complex)
        blocks = np.empty((workers, 2, rows * width), complex)

    def trailing(w, i, prop, phased):
        slab, first = slabs[i], prop
        # An odd number of products starts in the buffer, so the last one
        # lands in the slab.
        x, y = (spares[w], slab) if k % 2 else (slab, spares[w])
        if phased:
            np.multiply(slab, phase, out=x)
            if rows > 1:
                # diag(cross[i]) K and lead[i] diag(cross[i]) K, written as
                # their transposes: every operand is contiguous, so numpy
                # needs no broadcast buffer, and the results are column-major
                # like K
                diag, rest, first = folds[w]
                np.copyto(diag, cross[i])
                np.multiply(diag, prop.T, out=rest)
                np.multiply(lead[i], rest, out=first)
                prop, first = rest.T, first.T
        elif k % 2:
            np.copyto(x, slab)
        _rotate(x, y, [first] + [prop] * (k - 1))

    def leading(w, b, prop):
        # L products turn (a_1..a_L, column) into (column, a_1..a_L), written
        # back transposed.
        block = slabs[:, b * width : (b + 1) * width]
        x, y = (buf[: block.size] for buf in blocks[w])
        np.copyto(x.reshape(block.shape), block)
        x = _rotate(x, y, [prop] * (n - k))
        np.copyto(block, x.reshape(block.shape[::-1]).T)

    def kinetic(prop, phased):
        share(rows, lambda w, i: trailing(w, i, prop, phased))
        if rows > 1:
            share(-(-cols // width), lambda w, b: leading(w, b, prop))

    # Fused Strang sweep: one leading half kinetic step, then [potential,
    # kinetic] pairs with the last kinetic factor demoted to a half step.
    with step_pool(workers) as share:
        kinetic(half, False)
        for s in range(n_steps):
            kinetic(full if s < n_steps - 1 else half, True)
    state.psi = psi
    state.t += n_steps * dt
    return state


def _column_blocks(a: np.ndarray):
    """Blocks of whole columns of ``a``, at most SLAB amplitudes or one column, each with a reused buffer."""
    width = min(max(1, SLAB // len(a)), a.shape[1])
    buf = np.empty(len(a) * width, complex)
    for start in range(0, a.shape[1], width):
        block = a[:, start : start + width]
        yield block, buf[: block.size].reshape(block.shape)


def nbody_energy(state: NBodyState, potential_samples: np.ndarray, marginal: MarginalDensity) -> float:
    """<psi, H psi> of a symmetric state, from its one-body marginal and its pair density.

    For a state symmetric under particle exchange

        E = N dx Tr(T gamma) + ((N-1)/2) sum_xy V(x - y) rho_2(x, y) dx^N,

    with gamma the one-body marginal, T the spectral kinetic operator and
    rho_2 the position density |psi|^2 summed over every axis but the first
    two.  The trace is a k^2 sum over the transform of gamma: the (j, -j)
    entries of F gamma F are the diagonal of F gamma F^dagger.  The formula
    assumes the symmetry; the harness measures it as ``sym_defect``.
    ``marginal`` is ``reduce_marginal(state, 1)``, which the caller has
    taken already, so the marginal is not taken twice.
    """
    grid, n, m = state.grid, state.n, state.grid.points
    if (marginal.grid, marginal.k, marginal.t) != (grid, 1, state.t):
        raise ValueError("marginal is not the one-body marginal of this state")
    spec = sfft.fftn(marginal.matrix)
    j = np.arange(m)
    kinetic = float(grid.wavenumbers**2 @ spec[j, -j].real) * n * grid.dx / m
    if n < 2:
        return kinetic
    density = np.zeros(m * m)
    for block, sq in _column_blocks(state.psi.reshape(m * m, -1)):
        density += np.square(block.view(float), out=sq.view(float)).sum(axis=1)
    vmat = potential_matrix(potential_samples, grid)
    return kinetic + float(vmat.ravel() @ density) * (n - 1) / 2 * grid.dx**n


def reduce_marginal(state: NBodyState, k: int = 1) -> MarginalDensity:
    """Partial trace over particles k+1..N of the pure-state projection.

    Returns the kernel gamma(x_1..x_k ; y_1..y_k) as a matrix indexed by the
    flattened first/second variable groups.  Supported for k in {1, 2}; at
    k = N it is the pure-state projection itself.  The product is summed over
    blocks of columns (``_column_blocks``), so the conjugate is never
    state-size.
    """
    if k not in (1, 2):
        raise ValueError(f"marginal order k={k} not supported (use 1 or 2)")
    if k > state.n:
        raise ValueError(f"need k <= N, got k={k} with N={state.n}")
    m = state.grid.points
    a = state.psi.reshape(m**k, m ** (state.n - k))
    gamma = np.zeros((len(a), len(a)), complex)
    for block, conj in _column_blocks(a):
        gamma += block @ np.conjugate(block, out=conj).T
    gamma *= state.grid.dx ** (state.n - k)
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
    return MarginalDensity(a.grid, a.k, a.matrix - b.matrix).norm()


def symmetry_defect(state: NBodyState) -> float:
    """Norm distance between the state and itself with two particles swapped.

    ||psi - psi swapped||^2 = 2 sum_{i<j} ||psi[i, j] - psi[j, i]||^2, read
    in blocks of at most SLAB amplitudes (rows psi[i, j] of several j, or
    pieces of one longer row), so each pair is read once, in contiguous runs.
    Each block's squares are summed by numpy in the block's own buffer, not
    by BLAS, so the sum does not depend on the BLAS thread count.
    """
    if state.n < 2:
        return 0.0
    m = state.grid.points
    a = state.psi.reshape(m, m, -1)
    rows, cols = min(m, max(1, SLAB // a.shape[2])), min(a.shape[2], SLAB)
    diff = np.empty(rows * cols, complex)
    total = 0.0
    for i in range(m):
        for j, c in itertools.product(range(i + 1, m, rows), range(0, a.shape[2], cols)):
            upper = a[i, j : j + rows, c : c + cols]
            d = np.subtract(upper, a[j : j + rows, i, c : c + cols], out=diff[: upper.size].reshape(upper.shape))
            total += np.square(d.view(float), out=d.view(float)).sum()
    return float(np.sqrt(2.0 * total) * state.grid.dx ** (state.n / 2.0))


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

    return MarginalDensity(grid, 1, 1j * dgdt - rhs).norm()
