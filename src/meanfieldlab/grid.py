"""Uniform periodic grid, spectral kinetic evolution and potential sampling.

Conventions used throughout the package:

* the torus is [0, L) sampled at M points, dx = L/M;
* every L2 quantity is a Riemann sum weighted by dx;
* Fourier wavenumbers are k = 2*pi*n/L with n the usual FFT integers;
* the kinetic operator is the spectral multiplier k**2 (units with
  hbar = 1, mass = 1/2), so free evolution multiplies mode k by
  exp(-1j * k**2 * t).

It also holds the rules every engine shares: the byte budget a run's
arrays may hold (``admit``), the number of threads a step may run on
(``pool_size``) and how a step shares its work among them (``step_pool``).
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

# Bytes a run's largest arrays may hold: an N-body sweep or a Fock generator bank.
WORKING_SET_BUDGET = 4 * 2**30


class CapacityError(MemoryError):
    """A run refused before it allocates, because its working set exceeds WORKING_SET_BUDGET."""


def admit(what: str, need, least_bits: int = 0) -> None:
    """Refuse ``what``, with ``CapacityError``, when its ``need`` bytes exceed WORKING_SET_BUDGET.

    This is the one comparison against the budget: every engine's admission
    calls it.  ``need`` is the byte count, or a function that returns it.  An
    admission whose count can be a huge integer passes the function with
    ``least_bits``, an exponent b with need >= 2^b; when 2^b alone exceeds
    the budget, the refusal rests on it and the count is never built.
    A need of 2^64 bytes or more is stated as the power of two below it, as
    Python prints no integer of more than 4300 digits.
    """
    budget = WORKING_SET_BUDGET
    if least_bits < budget.bit_length():  # 2^least_bits may fit: compare the need itself
        need = need() if callable(need) else need
        if need <= budget:
            return
        least_bits = need.bit_length() - 1
    stated = f"at least 2^{least_bits}" if callable(need) or least_bits >= 64 else need
    raise CapacityError(f"{what} needs {stated} bytes, which exceeds the budget of {budget} bytes")


def pool_size() -> int:
    """Threads a shared step runs on: the CPUs this process may use over the BLAS threads.

    BLAS reads its thread count from OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, and uses every core when neither holds a positive
    count; the step then runs on one thread, since its BLAS products already
    fill the cores.  Both engines size their ``step_pool`` by this rule.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            return max(1, (cpus or 1) // int(value))
    return 1


@contextlib.contextmanager
def step_pool(workers: int):
    """Share a step's tasks among ``workers`` workers for the length of a ``with`` block.

    The engines' one threading rule.  The block opens ``workers - 1``
    threads, none for one worker, and none outlives it.  It yields ``share``,
    whose worker count is ``share.workers``: share(count, work) calls
    work(w, i) once for each i < count, worker w taking the next i when it
    is free, and returns when every call has; an exception in one reaches
    the caller.  The calling thread is worker 0, so the threads run only the
    private tasks an engine hands them.  A task gives the same bits whichever
    worker runs it, with buffers of that worker's own, so a step's result
    does not depend on the worker count.
    """
    with ThreadPoolExecutor(workers - 1) if workers > 1 else contextlib.nullcontext() as pool:

        def share(count: int, work) -> None:
            todo, lock = iter(range(count)), threading.Lock()

            def drain(w):
                while True:
                    with lock:
                        i = next(todo, None)
                    if i is None:
                        return
                    work(w, i)

            others = [pool.submit(drain, w) for w in range(1, workers)]
            drain(0)
            for done in others:
                done.result()

        share.workers = workers
        yield share


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

    The step dt must be positive and finite, the span a positive whole number
    of steps, and each offset (a snapshot time measured from the start) must
    lie within 1e-9 of a step in [0, span], no two of them on one step.  A
    span or offset that is no finite number of steps (1e308 over 1e-3, 1
    over 1e-320) is refused too.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"step dt={dt} must be positive and finite")
    if not np.isfinite(span / dt):
        raise ValueError(f"span {span} is not a finite number of steps of dt={dt}")
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9:
        raise ValueError(f"span {span} is not a whole number of steps of dt={dt}")
    taken = {}  # step index -> the offset that landed on it
    for offset in offsets:
        i = int(round(offset / dt)) if np.isfinite(offset / dt) else -1
        if not 0 <= i <= n_steps or abs(i * dt - offset) > 1e-9:
            raise ValueError(f"snapshot offset {offset} does not land on a step of dt={dt}")
        if i in taken:
            raise ValueError(f"snapshot offsets {taken[i]} and {offset} land on one step of dt={dt}")
        taken[i] = offset
    return n_steps, list(taken)


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


def multiplier_matrix(grid: GridSpec, multiplier: np.ndarray) -> np.ndarray:
    """Dense grid-space matrix of a Fourier multiplier (complex, M x M)."""
    f = sfft.fft(np.eye(grid.points), axis=0)
    return sfft.ifft(multiplier[:, None] * f, axis=0)


def kinetic_matrix(grid: GridSpec) -> np.ndarray:
    """Dense grid-space matrix of the spectral operator k^2 (real symmetric)."""
    return np.ascontiguousarray(multiplier_matrix(grid, grid.wavenumbers**2).real)


def edge_mass(density, grid: GridSpec) -> float:
    """Mass of a position density within an eighth of the box at each edge, each point counted once."""
    m = grid.points
    edge = max(1, int(round(0.125 * m)))
    rho = density * grid.dx
    return float(np.sum(rho[:edge]) + np.sum(rho[max(edge, m - edge) :]))


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
    """Bounded even pair potential amplitude * exp(-r^2 / (2 width^2)) on the torus.

    Amplitude 0 is the free gas.  The potential is even under x -> L - x, so
    the sampled array is exactly mirror symmetric.
    """

    amplitude: float = 0.5
    width: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if not (self.width > 0 and 0.0 < 2.0 * self.width * self.width < np.inf):
            raise ValueError(f"width must be positive with a finite, nonzero square, got {self.width}")


def sample_potential(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    """Sample the pair potential at displacements j*dx, j = 0..M-1.

    The minimal-image distance r = min(x, L - x) is used, and the result is
    mirrored so that samples[j] == samples[M-j] holds bitwise.
    """
    m = grid.points
    half = m // 2
    r = grid.x[: half + 1]  # distances 0 .. L/2
    head = spec.amplitude * np.exp(-(r**2) / (2.0 * spec.width**2))

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
