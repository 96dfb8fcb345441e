"""Split-step solver for the Hartree equation on the periodic grid.

The equation is i d_t phi = -phi_xx + (V * |phi|^2) phi with a circular
convolution.  One Strang step is a half kinetic step, a full nonlinear phase
(exact, since the density is invariant under it), and another half kinetic
step, giving second-order accuracy and exact mass conservation up to
roundoff.  Both factors act in grid space with matrices built once per run:
the kinetic half step is the M x M position-space matrix of the Fourier
multiplier exp(-i k^2 dt/2), and the mean-field potential is the circulant
matrix dx V(x_i - x_j) applied to the density, so a step makes three small
matrix-vector products and no FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import (
    GridSpec,
    admit,
    edge_mass,
    kinetic_phase,
    l2_norm,
    multiplier_matrix,
    periodic_convolve,
    potential_matrix,
    step_schedule,
)


@dataclass
class HartreeTrajectory:
    """Stored samples of a Hartree evolution, with linear-in-time access.

    ``states[i]`` holds the wavefunction at ``times[i]``; times are uniform
    from 0 to the final time, at least two of them.
    """

    times: np.ndarray
    states: np.ndarray  # shape (len(times), points)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """Stored sample at time t; a time that was not sampled is a ValueError."""
        _, (i,) = step_schedule(self.horizon, self.times[1] - self.times[0], (t,))
        return self.states[i]

    def interpolate(self, t) -> np.ndarray:
        """Linear interpolation between neighbouring samples.

        ``t`` is a time or an array of times; the result has shape
        ``t.shape + (points,)``, and each entry equals the call at that time
        alone.  Second-order accurate in the sample spacing, which matches
        the accuracy of the steppers that consume midpoint states.
        """
        t = np.asarray(t, dtype=float)
        outside = (t < -1e-9) | (t > self.horizon + 1e-9)
        if np.any(outside):
            raise ValueError(f"time {t[outside].flat[0]} outside stored range [0, {self.horizon}]")
        s = np.clip(t / (self.times[1] - self.times[0]), 0.0, len(self.times) - 1.0)
        i = np.minimum(s.astype(int), len(self.times) - 2)
        w = (s - i)[..., None]
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


def admit_trajectory(points: int, t_final: float, dt: float) -> int:
    """The step count of a trajectory to t_final, refused through ``grid.admit`` over the budget.

    A trajectory stores t_final/dt + 1 states of ``points`` amplitudes, 16 B
    each; a t_final that ``step_schedule`` refuses is a ``ValueError``.
    """
    n_steps, _ = step_schedule(t_final, dt)
    admit(f"a Hartree trajectory of {n_steps + 1} states of {points} amplitudes", 16 * points * (n_steps + 1))
    return n_steps


def evolve_hartree(
    phi0,
    potential_samples: np.ndarray,
    grid: GridSpec,
    t_final: float,
    dt: float,
) -> HartreeTrajectory:
    """Propagate phi0 to t_final, storing the state after every step.

    Refused by ``admit_trajectory`` before the trajectory is allocated.
    """
    phi = np.asarray(phi0, dtype=complex)
    if phi.shape != (grid.points,):
        raise ValueError(f"initial state has shape {phi.shape}, expected ({grid.points},)")
    n_steps = admit_trajectory(grid.points, t_final, dt)

    half = multiplier_matrix(grid, kinetic_phase(grid, 0.5 * dt))
    convolve = grid.dx * potential_matrix(np.asarray(potential_samples, dtype=float), grid)
    states = np.empty((n_steps + 1, grid.points), dtype=complex)
    states[0] = phi
    for step in range(1, n_steps + 1):
        phi = half @ phi
        phi *= np.exp(-1j * dt * (convolve @ np.abs(phi) ** 2))
        phi = states[step] = half @ phi

    return HartreeTrajectory(np.arange(n_steps + 1) * dt, states)


def effective_potential(phi, potential_samples, grid: GridSpec) -> np.ndarray:
    """Mean-field potential V * |phi|^2 felt by the condensate."""
    return periodic_convolve(potential_samples, np.abs(phi) ** 2, grid)


def hartree_energy(phi, potential_samples, grid: GridSpec) -> float:
    """Conserved energy: kinetic part plus half the mean-field interaction."""
    phi = np.asarray(phi, dtype=complex)
    phat = sfft.fft(phi)
    kinetic = np.sum(grid.wavenumbers**2 * np.abs(phat) ** 2) * grid.dx / grid.points
    u_eff = effective_potential(phi, potential_samples, grid)
    interaction = 0.5 * np.sum(u_eff * np.abs(phi) ** 2) * grid.dx
    return float(kinetic + interaction)


def mass(phi, grid: GridSpec) -> float:
    return l2_norm(phi, grid) ** 2


def boundary_mass(phi, grid: GridSpec) -> float:
    """Probability mass within an eighth of the box at each edge.

    The default experiment centers the packet at L/2, so mass near x = 0 or
    x = L signals wrap-around artifacts.
    """
    return edge_mass(np.abs(np.asarray(phi)) ** 2, grid)
