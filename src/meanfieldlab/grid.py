"""Uniform periodic grid, spectral kinetic evolution and potential sampling.

Conventions used throughout the package:

* the torus is [0, L) sampled at M points, dx = L/M;
* every L2 quantity is a Riemann sum weighted by dx;
* Fourier wavenumbers are k = 2*pi*n/L with n the usual FFT integers;
* the kinetic operator is the spectral multiplier k**2 (units with
  hbar = 1, mass = 1/2), so free evolution multiplies mode k by
  exp(-1j * k**2 * t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with ``points`` sites on [0, length)."""

    points: int
    length: float

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"need at least one grid point, got {self.points}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.points) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * sfft.fftfreq(self.points, d=self.dx)


def step_schedule(span: float, dt: float, offsets=()) -> tuple[int, list[int]]:
    """Number of steps of dt in ``span``, and the step index of each offset.

    The span must be a positive whole number of steps, and each offset (a
    snapshot time measured from the start) must lie within 1e-9 of a step in
    [0, span].
    """
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9:
        raise ValueError(f"span {span} is not a whole number of steps of dt={dt}")
    indices = []
    for offset in offsets:
        i = int(round(offset / dt))
        if not 0 <= i <= n_steps or abs(i * dt - offset) > 1e-9:
            raise ValueError(f"snapshot offset {offset} does not land on a step of dt={dt}")
        indices.append(i)
    return n_steps, indices


def l2_norm(f, grid: GridSpec) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.dx))


def normalize(values, grid: GridSpec) -> np.ndarray:
    n = l2_norm(values, grid)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(values, dtype=complex) / n


def kinetic_phase(grid: GridSpec, dt: float) -> np.ndarray:
    """Fourier multiplier exp(-1j k^2 dt) of free evolution over dt."""
    return np.exp(-1j * grid.wavenumbers**2 * dt)


def kinetic_matrix(grid: GridSpec) -> np.ndarray:
    """Dense grid-space matrix of the spectral operator k^2 (real symmetric)."""
    m = grid.points
    f = sfft.fft(np.eye(m), axis=0)
    mat = sfft.ifft(grid.wavenumbers[:, None] ** 2 * f, axis=0)
    return np.ascontiguousarray(mat.real)


def edge_mass(density, grid: GridSpec) -> float:
    """Mass of a position density within an eighth of the box at each edge."""
    m = grid.points
    edge = max(1, int(round(0.125 * m)))
    rho = density * grid.dx
    return float(np.sum(rho[:edge]) + np.sum(rho[m - edge :]))


def periodic_convolve(f, g, grid: GridSpec) -> np.ndarray:
    """Circular convolution (f * g)(x) = sum_y f(x - y) g(y) dx via FFT.

    Returns a real array when both inputs are real.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    out = sfft.ifft(sfft.fft(f.astype(complex)) * sfft.fft(g.astype(complex))) * grid.dx
    if not (np.iscomplexobj(f) or np.iscomplexobj(g)):
        return out.real
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded even pair potential on the torus, selected by ``kind``.

    kinds: "zero"; "gaussian" (amplitude, width); "cosine" (amplitude,
    harmonic); "soft_coulomb" (amplitude, softening).  All are even under
    x -> L - x, so the sampled array is exactly mirror symmetric.
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    harmonic: int = 1
    softening: float = 1.0

    _KINDS = ("zero", "gaussian", "cosine", "soft_coulomb")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}, expected one of {self._KINDS}")
        if not np.isfinite(self.amplitude):
            raise ValueError("potential amplitude must be finite")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian width must be positive")
        if self.kind == "cosine" and self.harmonic < 1:
            raise ValueError("cosine harmonic must be a positive integer")
        if self.kind == "soft_coulomb" and self.softening <= 0:
            raise ValueError("soft_coulomb softening must be positive")


def sample_potential(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    """Sample the pair potential at displacements j*dx, j = 0..M-1.

    The minimal-image distance r = min(x, L - x) is used, and the result is
    mirrored so that samples[j] == samples[M-j] holds bitwise.
    """
    m = grid.points
    half = m // 2
    r = grid.x[: half + 1]  # distances 0 .. L/2

    if spec.kind == "zero":
        head = np.zeros(half + 1)
    elif spec.kind == "gaussian":
        head = spec.amplitude * np.exp(-(r**2) / (2.0 * spec.width**2))
    elif spec.kind == "cosine":
        head = spec.amplitude * np.cos(2.0 * np.pi * spec.harmonic * r / grid.length)
    elif spec.kind == "soft_coulomb":
        head = spec.amplitude / np.sqrt(r**2 + spec.softening**2)
    else:  # pragma: no cover
        raise AssertionError(spec.kind)

    out = np.empty(m)
    out[: half + 1] = head
    out[half + 1 :] = head[1 : m - half][::-1]
    return out


def potential_matrix(samples: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Circulant matrix V[i, j] = V(x_i - x_j) from displacement samples."""
    idx = (np.arange(grid.points)[:, None] - np.arange(grid.points)[None, :]) % grid.points
    return samples[idx]


def gaussian_packet(grid: GridSpec, center: float, width: float, momentum: float = 0.0) -> np.ndarray:
    """Normalized Gaussian wavepacket exp(-(x-c)^2/(4 w^2) + i k0 (x-c)), periodized."""
    psi = free_gaussian_exact(grid.x, 0.0, center, width, momentum, grid.length)
    return normalize(psi, grid)


def sech_packet(grid: GridSpec, center: float, width: float) -> np.ndarray:
    """Normalized sech profile, a smooth ground-state-like bump."""
    x = grid.x
    shift = np.minimum(np.abs(x - center), grid.length - np.abs(x - center))
    return normalize(1.0 / np.cosh(shift / width), grid)


def free_gaussian_exact(x, t, center, width, momentum, length, images: int = 8):
    """Closed-form free evolution of a periodized Gaussian packet.

    Solves i d_t psi = -psi_xx exactly for the initial profile
    A exp(-(x-c)^2/(4 w^2) + i k0 (x-c)) summed over periodic images.
    Not normalized on the grid; use for oracle comparisons.
    """
    x = np.asarray(x, dtype=float)
    amp = (2.0 * np.pi * width**2) ** -0.25
    a = width**2 + 1j * t
    out = np.zeros(x.shape, dtype=complex)
    for n in range(-images, images + 1):
        xs = x + n * length
        b = 2.0 * width**2 * momentum + 1j * (xs - center)
        out += amp * width / np.sqrt(a) * np.exp(b * b / (4.0 * a) - width**2 * momentum**2)
    return out
