"""Reference kernels that track how fast the host runs right now.

On a shared host the speed of a vCPU drifts by up to 1.5x over seconds to
minutes, so raw wall times of the same code spread that much between runs.
A fixed reference kernel, timed next to the measured work, slows down with
it: scaling a wall time by ``nominal / burst time`` cancels the drift, while
a change to ``meanfieldlab`` moves only the work.

Each workload names the kernel whose work is most like its own:

* ``cache``: split-step FFTs of an N=4 tensor on the 16-point grid (1 MB),
  small dense matrices and interpreter-bound Python, in the proportions of
  rate-small, all inside the 4 MB L2;
* ``memory``: passes over a 16 MB array, beyond L2, like the N=6 tensor of
  rate-large and the 43-74 MB coefficient banks of the Fock generators.

Neither depends much on what the program left in the caches: right after an
FFT over a 256 MB array a cache burst took 19.5 ms against 18.6 ms alone
(medians of 12), and memory bursts took 8-10 ms both inside rate-large and
fock-check-coarse and alone.  The kernels use only numpy and scipy with one
thread, never ``meanfieldlab``.

``Sampler`` times one burst before and one after each invocation and, inside
it, one at the next call into an FFT or a Fock step once ``interval`` seconds
have passed, so that long invocations are tracked while they run.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft
from tracer import FFTHandle, Patches

# About one burst's time on a 2-vCPU x86-64 host at 2.1 GHz.
NOMINAL_S = {"cache": 0.015, "memory": 0.009}

_RNG = np.random.default_rng(0)
_TENSOR = _RNG.standard_normal((16,) * 4) + 0j
_PHASE = np.exp(1j * _RNG.standard_normal((16,) * 4))
_MATRIX = _RNG.standard_normal((16, 16)) + 0j
_VECTOR = _RNG.standard_normal(16) + 0j
_ROTATION = np.exp(0.1j)
_buffer = None  # the memory kernel's array, made on first use


def _cache_burst() -> None:
    for _ in range(4):
        y = scipy.fft.fftn(_TENSOR, workers=1)
        y *= _PHASE
        scipy.fft.ifftn(y, workers=1, overwrite_x=True)
    for _ in range(300):
        a = _MATRIX @ _MATRIX
        a = a + 0.5 * a.conj().T
        np.einsum("ij,j->i", a, _VECTOR)
        np.abs(a).max()
    s = 0
    for i in range(20_000):
        s += i


def _memory_burst() -> None:
    global _buffer
    if _buffer is None:
        _buffer = np.ones(1 << 20, dtype=complex)
    for _ in range(8):
        np.multiply(_buffer, _ROTATION, out=_buffer)  # unit modulus: the values stay bounded


BURSTS = {"cache": _cache_burst, "memory": _memory_burst}


def burst_seconds(kind: str) -> float:
    """Time of one burst of the ``kind`` kernel."""
    start = time.perf_counter()
    BURSTS[kind]()
    return time.perf_counter() - start


def scaled(seconds: float, bursts: list[float], kind: str) -> float:
    """``seconds`` at the speed at which one ``kind`` burst takes its nominal time."""
    return seconds * NOMINAL_S[kind] * len(bursts) / sum(bursts)


class Sampler(Patches):
    """Times reference bursts around and during the invocations of one process.

    ``install`` hooks the calls into the FFT handle of ``meanfieldlab.nbody``
    and into each Fock step; ``begin`` and ``end`` bracket one invocation, and
    ``spent`` is the time the bursts inside it took, to be taken out of its
    wall time.
    """

    def __init__(self, kind: str, interval: float):
        super().__init__()
        self.kind = kind
        self.interval = interval
        self.bursts: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def _hooked(self, fn):
        def wrapper(*args, **kwargs):
            if time.perf_counter() - self._last >= self.interval:
                self._sample()
            return fn(*args, **kwargs)

        return wrapper

    def _sample(self):
        burst = burst_seconds(self.kind)
        self.bursts.append(burst)
        self.spent += burst
        self._last = time.perf_counter()

    def install(self):
        from meanfieldlab import fock, nbody

        self._patch(nbody, "sfft", FFTHandle(nbody.sfft, self._hooked))
        self._patch(fock, "expm_multiply", self._hooked(fock.expm_multiply))
        self._patch(fock.GeneratorSet, "matrix", self._hooked(fock.GeneratorSet.matrix))

    def begin(self):
        burst_seconds(self.kind)  # warm the kernel's caches after the work before
        self.bursts = [burst_seconds(self.kind)]
        self.spent = 0.0
        self._last = time.perf_counter()

    def end(self):
        self.bursts.append(burst_seconds(self.kind))
