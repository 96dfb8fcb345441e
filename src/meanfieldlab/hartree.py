"""Split-step solver for the Hartree equation on the periodic grid.

The equation is i d_t phi = -phi_xx + (V * |phi|^2) phi with a circular
convolution.  One Strang step is a half kinetic phase in Fourier space, a
full nonlinear phase (exact, since the density is invariant under it), and
another half kinetic phase, giving second-order accuracy and exact mass
conservation up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import GridSpec, edge_mass, kinetic_phase, l2_norm, periodic_convolve, step_schedule


@dataclass
class HartreeTrajectory:
    """Stored samples of a Hartree evolution, with linear-in-time access.

    ``states[i]`` holds the wavefunction at ``times[i]``; times are uniform,
    one per step of ``dt``, from 0 to the final time.
    """

    grid: GridSpec
    potential_samples: np.ndarray
    dt: float
    times: np.ndarray
    states: np.ndarray  # shape (len(times), grid.points)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """Exact stored sample at time t (raises if t was not sampled)."""
        i = int(round(t / (self.times[1] - self.times[0]))) if len(self.times) > 1 else 0
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9:
            raise KeyError(f"time {t} was not sampled")
        return self.states[i]

    def interpolate(self, t: float) -> np.ndarray:
        """Linear interpolation between neighbouring samples.

        Second-order accurate in the sample spacing, which matches the
        accuracy of the steppers that consume midpoint states.
        """
        if t < -1e-9 or t > self.horizon + 1e-9:
            raise ValueError(f"time {t} outside stored range [0, {self.horizon}]")
        spacing = self.times[1] - self.times[0] if len(self.times) > 1 else 1.0
        s = min(max(t / spacing, 0.0), len(self.times) - 1.0)
        i = min(int(s), len(self.times) - 2) if len(self.times) > 1 else 0
        w = s - i
        if len(self.times) == 1:
            return self.states[0].copy()
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


def evolve_hartree(
    phi0,
    potential_samples: np.ndarray,
    grid: GridSpec,
    t_final: float,
    dt: float,
) -> HartreeTrajectory:
    """Propagate phi0 to t_final, storing the state after every step."""
    phi = np.asarray(phi0, dtype=complex).copy()
    if phi.shape != (grid.points,):
        raise ValueError(f"initial state has shape {phi.shape}, expected ({grid.points},)")
    n_steps, _ = step_schedule(t_final, dt)

    half = kinetic_phase(grid, 0.5 * dt)
    states = [phi.copy()]
    for _ in range(n_steps):
        phi = sfft.ifft(half * sfft.fft(phi))
        u_eff = periodic_convolve(potential_samples, np.abs(phi) ** 2, grid)
        phi *= np.exp(-1j * dt * u_eff)
        phi = sfft.ifft(half * sfft.fft(phi))
        states.append(phi.copy())

    times = np.arange(len(states)) * dt
    return HartreeTrajectory(grid, potential_samples, dt, times, np.array(states))


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


def boundary_mass(phi, grid: GridSpec, fraction: float = 0.125) -> float:
    """Probability mass within ``fraction`` of the box at each edge.

    The default experiment centers the packet at L/2, so mass near x = 0 or
    x = L signals wrap-around artifacts.
    """
    return edge_mass(np.abs(np.asarray(phi)) ** 2, grid, fraction)
