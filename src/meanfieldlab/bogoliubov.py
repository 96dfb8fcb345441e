"""Bogoliubov kernel pair: linearized fluctuation dynamics around Hartree.

The Heisenberg evolution of an annihilation operator under the quadratic
fluctuation generator mixes it with creation operators,

    a_x(t) = integral dy [ u(t, x, y) a_y + v(t, x, y) a_y* ],

and the kernels obey the coupled linear system

    i d_t u = (T + U_eff) u + K1 u + K2 conj(v)
    i d_t v = (T + U_eff) v + K1 v + K2 conj(u)

acting on the first argument, with T the spectral kinetic operator,
U_eff = V * |phi_t|^2, K1(x,y) = V(x-y) conj(phi_t(y)) phi_t(x) and
K2(x,y) = V(x-y) phi_t(x) phi_t(y).  Initial data is the identity kernel
u = delta/dx, v = 0.

The stepper is Strang: exact kinetic half steps around one explicit-midpoint
step of the coupling part, whose two stages take the kernels at the step
start and at the step midpoint.  Both substeps are second order; the kinetic
factor preserves the symplectic pair relations exactly, so the measured
defect of those relations isolates the coupling substep and scales as dt^2.
The kinetic factor is the M x M grid-space matrix of the Fourier multiplier
exp(-i k^2 dt), built once per run, and u and v advance together as one
(M, 2M) block, so a step is a handful of small matrix products and no FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    GridSpec,
    admit,
    kinetic_phase,
    multiplier_matrix,
    periodic_convolve,
    potential_matrix,
    step_schedule,
)
from .hartree import HartreeTrajectory
from .nbody import MarginalDensity


@dataclass
class BogoliubovPair:
    grid: GridSpec
    u: np.ndarray  # (M, M) complex
    v: np.ndarray
    t: float = 0.0


class CouplingKernels(NamedTuple):
    u_eff: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def identity_pair(grid: GridSpec) -> BogoliubovPair:
    m = grid.points
    return BogoliubovPair(grid, np.eye(m, dtype=complex) / grid.dx, np.zeros((m, m), dtype=complex), 0.0)


def coupling_kernels(phi, potential_samples, grid: GridSpec) -> CouplingKernels:
    """U_eff, K1 and K2 of one orbital (M,) or of a stack of orbitals (..., M).

    Each entry of a stack equals the call on that orbital alone, bitwise.
    """
    phi = np.asarray(phi, dtype=complex)
    vmat = potential_matrix(np.asarray(potential_samples), grid)
    u_eff = periodic_convolve(potential_samples, np.abs(phi) ** 2, grid)
    col = phi[..., :, None]
    k1 = col * phi[..., None, :].conj()
    k1 *= vmat
    k2 = col * phi[..., None, :]
    k2 *= vmat
    return CouplingKernels(u_eff, k1, k2)


# Steps whose stage kernels are built in one batch.  At M = 16 a batch of 32
# steps holds two 64 x M x M complex stacks (256 KiB each); one batch for a
# whole 1000-step run would hold 16 MB of them.
PAIR_CHUNK_STEPS = 32


def admit_pair(points: int, snapshots: int) -> None:
    """Refuse, through ``grid.admit``, a pair flow on ``points`` grid points with ``snapshots`` snapshots.

    Per squared grid point the charge is 64 B per step of a batch for its
    stage kernels K1 and K2 (2,048 B at 32 steps), 512 B for the kinetic
    matrices, the (M, 2M) block and a step's temporaries, and 32 B for each
    snapshot's pair; 1 MiB more covers the batch's stage orbitals and the
    small arrays.  tracemalloc read 2,305-2,477 B per squared point at
    M = 32 to 1024, and under 1 MiB in all at M = 4 to 16.
    """
    per_entry = 64 * PAIR_CHUNK_STEPS + 512 + 32 * snapshots
    admit(f"a Bogoliubov pair flow on {points} points", per_entry * points**2 + 2**20)


def evolve_pair(
    grid: GridSpec,
    potential_samples: np.ndarray,
    trajectory: HartreeTrajectory,
    t_final: float,
    dt: float,
    snapshot_times=(),
) -> tuple[BogoliubovPair, dict[float, BogoliubovPair]]:
    """Evolve the identity pair to t_final along a stored Hartree trajectory.

    u and v travel as one (M, 2M) block W = [u | v].  The coupling substep
    of a step is explicit midpoint on

        dW/dt = A W + B conj(W with its halves swapped),
        A = -i (diag U_eff + dx K1),  B = -i dx K2,

    with the kernels of its two stages taken at the step start and at the
    step midpoint (the standard c = (0, 1/2) tableau).  Keeping the genuine
    stage times matters here: freezing both stages at the midpoint makes
    every third-order error term a symplectic-algebra element, which pushes
    the pair-relation defect to third order and hides the generic
    second-order self-convergence this solver is monitored by.

    The kinetic factor is a grid-space matrix.  The two half steps that meet
    between consecutive steps are applied as one full step; they are split
    only at the start, at snapshots and at the end.  Stage kernels come from
    one ``coupling_kernels`` call per batch of ``PAIR_CHUNK_STEPS`` steps,
    and the result does not depend on the batch size.  Refused by
    ``admit_pair`` before the first kernel is built.
    """
    n_steps, indices = step_schedule(t_final, dt, snapshot_times)
    if t_final > trajectory.horizon + 1e-9:
        raise ValueError("trajectory does not cover the requested horizon")
    admit_pair(grid.points, len(indices))
    want = {i: float(ts) for i, ts in zip(indices, snapshot_times)}
    m = grid.points
    dx = grid.dx

    pair = identity_pair(grid)
    snaps: dict[float, BogoliubovPair] = {}
    if 0 in want:
        snaps[want[0]] = pair
    half = multiplier_matrix(grid, kinetic_phase(grid, 0.5 * dt))
    full = multiplier_matrix(grid, kinetic_phase(grid, dt))
    swap = np.r_[m : 2 * m, 0:m]

    w = half @ np.concatenate([pair.u, pair.v], axis=1)
    for first in range(0, n_steps, PAIR_CHUNK_STEPS):
        steps = np.arange(first, min(first + PAIR_CHUNK_STEPS, n_steps))
        stage_times = np.stack([steps * dt, (steps + 0.5) * dt], axis=1)
        u_eff, a, b = coupling_kernels(trajectory.interpolate(stage_times), potential_samples, grid)
        a *= dx
        a.reshape(-1, m * m)[:, :: m + 1] += u_eff.reshape(-1, m)
        a *= -1j
        b *= -1j * dx
        for j, step in enumerate(steps):
            k = a[j, 0] @ w + b[j, 0] @ w[:, swap].conj()
            mid = w + (0.5 * dt) * k
            k = a[j, 1] @ mid + b[j, 1] @ mid[:, swap].conj()
            w = w + dt * k
            if step + 1 == n_steps or step + 1 in want:
                w = half @ w
                if step + 1 in want:
                    snaps[want[step + 1]] = _split(grid, w, (step + 1) * dt)
                if step + 1 < n_steps:
                    w = half @ w
            else:
                w = full @ w
        del a, b  # release this batch before the next one is built
    return _split(grid, w, n_steps * dt), snaps


def _split(grid: GridSpec, w: np.ndarray, t: float) -> BogoliubovPair:
    m = grid.points
    return BogoliubovPair(grid, w[:, :m].copy(), w[:, m:].copy(), t)


def depletion(pair: BogoliubovPair) -> float:
    """dx^2 sum |v|^2, the expected particle number created from vacuum.

    Equals the number expectation of the quadratically evolved vacuum; the
    identity is algebraic, so the Fock engine must reproduce it up to
    truncation and time-step error.
    """
    return float(np.sum(np.abs(pair.v) ** 2) * pair.grid.dx**2)


def symplectic_defect(pair: BogoliubovPair) -> tuple[float, float]:
    """Deviation from the two exact pair relations, dx-weighted Frobenius.

    The relations are dx (u u* - v v*) = delta/dx (canonical commutator) and
    u v^T symmetric (vanishing equal-time [a, a]).
    """
    grid = pair.grid
    m = grid.points
    eye = np.eye(m) / grid.dx
    d1 = grid.dx * (pair.u @ pair.u.conj().T - pair.v @ pair.v.conj().T) - eye
    d2 = grid.dx * (pair.u @ pair.v.T - pair.v @ pair.u.T)
    return MarginalDensity(grid, 1, d1).norm(), MarginalDensity(grid, 1, d2).norm()


def correction_kernel(pair: BogoliubovPair, phi0, phi_t, n: int) -> MarginalDensity:
    """The next-order marginal correction E2 from the v kernel, as an ``nbody.MarginalDensity``.

    The kernel is one-body (k = 1), at the pair's time.  With
    b(x) = dx sum_z v(x,z) conj(phi0(z)) it is

        (n-1)/n^2 dx (v v*)  - (n-2)/n^2 b b*
        - (1/n) [ b conj(phi_t)^T + phi_t conj(b)^T ],

    Hermitian by construction, and its norm decays like 1/n.  The residual
    E - E2, with E = gamma - projection the marginal error and E2 this
    kernel, is not O(1/n^2): against the exact N-body marginal at the
    default config it fits a/n + b/n^2, where a is 9.6% of the leading 1/n
    coefficient of E2 at t = 0.5 and 15.5% at t = 1 (ROADMAP, open item 1).
    So E2 removes most of the 1/n term, not all of it.
    """
    if n < 1:
        raise ValueError(f"particle count must be positive, got {n}")
    grid = pair.grid
    phi0 = np.asarray(phi0, dtype=complex)
    phi_t = np.asarray(phi_t, dtype=complex)
    b = grid.dx * (pair.v @ phi0.conj())
    mat = (n - 1) / n**2 * grid.dx * (pair.v @ pair.v.conj().T)
    mat -= (n - 2) / n**2 * np.outer(b, b.conj())
    mat -= np.outer(b, phi_t.conj()) / n
    mat -= np.outer(phi_t, b.conj()) / n
    return MarginalDensity(grid, 1, mat, pair.t)
