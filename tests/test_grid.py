"""Grid conventions, potential sampling, and the spectral kinetic operator.

Oracles here are deliberately naive: O(M^2) convolution loops, explicit
image sums, and dense matrix identities, so the FFT paths are checked
against independent constructions.
"""

import sys
import threading
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from meanfieldlab import combinatorics, fock, grid, hartree, nbody
from meanfieldlab.grid import (
    CapacityError,
    GridSpec,
    PotentialSpec,
    free_gaussian_exact,
    gaussian_packet,
    kinetic_matrix,
    kinetic_phase,
    l2_norm,
    normalize,
    periodic_convolve,
    potential_matrix,
    sample_potential,
    step_pool,
    step_schedule,
)


def random_complex(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def free_flow(values, grid, t):
    """Free evolution over time t through the Fourier multiplier kinetic_phase."""
    return sfft.ifft(kinetic_phase(grid, t) * sfft.fft(values))


# ---------------------------------------------------------------------------
# step pool


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("count", [0, 1, 5, 500])
def test_share_calls_work_once_per_index(workers, count):
    calls, lock = [], threading.Lock()

    def work(w, i):
        assert 0 <= w < workers
        with lock:
            calls.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can be
    try:
        with step_pool(workers) as share:
            assert share.workers == workers
            share(count, work)
            share(count, work)  # the pool serves every pass of a step
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(list(range(count)) * 2)


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_zero_is_the_calling_thread(workers):
    # each of the first tasks waits until every worker holds one, so every
    # worker takes exactly one of them
    barrier, seen = threading.Barrier(workers, timeout=10), {}

    def work(w, i):
        if i < workers:
            barrier.wait()
        seen.setdefault(w, set()).add(threading.current_thread())

    with step_pool(workers) as share:
        share(3 * workers, work)
    assert sorted(seen) == list(range(workers))
    assert seen[0] == {threading.current_thread()}
    assert all(threading.current_thread() not in seen[w] for w in range(1, workers))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_task_reaches_the_caller_and_no_thread_outlives_the_pool(workers):
    for raiser in range(workers):
        barrier = threading.Barrier(workers, timeout=10)

        def work(w, i):
            if i < workers:
                barrier.wait()
                if w == raiser:
                    raise ValueError(f"task {i} on worker {w}")

        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"on worker {raiser}"):
            with step_pool(workers) as share:
                share(2 * workers, work)
        assert threading.active_count() == threads


def test_one_worker_starts_no_thread(monkeypatch):
    pools = []
    monkeypatch.setattr(grid, "ThreadPoolExecutor", lambda *a: pools.append(a))
    threads, ran_on = threading.active_count(), set()
    with step_pool(1) as share:
        share(4, lambda w, i: ran_on.add((w, threading.current_thread())))
    assert pools == [] and threading.active_count() == threads
    assert ran_on == {(0, threading.current_thread())}


# ---------------------------------------------------------------------------
# grid basics


def test_grid_spacing_and_axes():
    g = GridSpec(8, 4.0)
    assert g.dx == 0.5
    assert np.array_equal(g.x, 0.5 * np.arange(8))
    assert np.allclose(g.wavenumbers, 2.0 * np.pi * sfft.fftfreq(8, d=0.5))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(8, 0.0)
    with pytest.raises(ValueError):
        GridSpec(8, float("inf"))


@pytest.mark.parametrize(
    "admit, args, need",
    [
        pytest.param(nbody.admit_sweep, (8, 3), nbody.working_set_bytes(8, 3), id="sweep"),
        # 1001 stored states of 16 amplitudes, 16 B each
        pytest.param(hartree.admit_trajectory, (16, 1.0, 1e-3), 16 * 16 * 1001, id="trajectory"),
        # 112 B for each of 5 x 9 skeletons over C(17, 4) basis states
        pytest.param(fock.admit_lattice, (4, 13), 112 * 45 * comb(17, 4), id="lattice"),
        # 48 B for each of 64 sector overlaps
        pytest.param(combinatorics.admit_overlaps, (64,), 48 * 64, id="sector table"),
    ],
)
def test_every_admission_compares_with_the_one_budget(monkeypatch, admit, args, need):
    # a tiny budget set on the grid module alone reaches every engine, and nothing is allocated
    monkeypatch.setattr(grid, "WORKING_SET_BUDGET", need)
    admit(*args)
    monkeypatch.setattr(grid, "WORKING_SET_BUDGET", need - 1)
    with pytest.raises(CapacityError, match=f"needs {need} bytes, which exceeds the budget of {need - 1} bytes"):
        admit(*args)


def test_a_need_too_long_to_print_is_refused_as_a_power_of_two():
    # 10^5000 has more digits than Python converts to a string
    with pytest.raises(CapacityError, match=r"x needs at least 2\^16609 bytes, which exceeds the budget"):
        grid.admit("x", 10**5000)


def test_single_point_grid_degenerates_cleanly():
    # one mode: zero kinetic energy, dx equal to the box length
    g = GridSpec(1, 2.5)
    assert g.dx == 2.5
    assert np.all(g.wavenumbers == 0.0)
    assert kinetic_matrix(g).shape == (1, 1)
    assert kinetic_matrix(g)[0, 0] == 0.0


@pytest.mark.parametrize("points", [1, 2, 3, 4])
def test_edge_mass_counts_each_point_once(points):
    g = GridSpec(points, 2.0)
    density = np.full(points, 1.0 / g.length)  # total mass 1
    assert grid.edge_mass(density, g) <= 1.0
    if points == 1:
        assert grid.edge_mass(density, g) == 1.0


@given(st.integers(2, 32), st.floats(0.5, 50.0))
def test_grid_dx_consistency(points, length):
    g = GridSpec(points, length)
    assert g.dx * g.points == pytest.approx(g.length, rel=1e-12)
    assert len(g.x) == points
    assert len(g.wavenumbers) == points


def test_step_schedule():
    assert step_schedule(0.5, 1e-3) == (500, [])
    assert step_schedule(0.3, 0.1) == (3, [])  # 0.3 / 0.1 is 2.9999999999999996
    n, idx = step_schedule(0.4, 2e-3, (0.0, 0.2, 0.4, 0.1 + 1e-12))
    assert n == 200 and idx == [0, 100, 200, 50]
    for span in (0.5005, 0.0, -0.5, 4e-4):  # not whole, zero, negative, below one step
        with pytest.raises(ValueError, match="whole number"):
            step_schedule(span, 1e-3)
    for span, dt in ((0.5, 0.0), (-1.0, -1e-3)):  # no step; a whole number of steps backward
        with pytest.raises(ValueError, match="positive and finite"):
            step_schedule(span, dt)
    for offset in (0.2001, 0.402, -2e-3, 1e308):  # off the grid, past the end, before the start, no finite step
        with pytest.raises(ValueError, match="does not land"):
            step_schedule(0.4, 2e-3, (offset,))
    for span, dt in ((1e308, 1e-3), (0.2, 1e-320), (float("nan"), 1e-3)):  # no finite number of steps
        with pytest.raises(ValueError, match="finite number of steps"):
            step_schedule(span, dt)
    for offsets in ((0.1, 0.2, 0.1), (0.1, 0.2, 0.1 + 5e-10)):  # an exact repeat; two offsets on step 50
        with pytest.raises(ValueError, match=f"offsets 0.1 and {offsets[2]} land on one step"):
            step_schedule(0.4, 2e-3, offsets)


# ---------------------------------------------------------------------------
# normalization


@given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.floats(0.25, 30.0))
@settings(max_examples=25)
def test_normalize_gives_unit_norm(seed, points, length):
    rng = np.random.default_rng(seed)
    g = GridSpec(points, length)
    f = random_complex(rng, points)
    assert l2_norm(normalize(f, g), g) == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_zero():
    g = GridSpec(4, 4.0)
    with pytest.raises(ValueError):
        normalize(np.zeros(4), g)


# ---------------------------------------------------------------------------
# convolution


@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 4, 8, 16]))
@settings(max_examples=25)
def test_convolution_matches_direct_sum(seed, m):
    rng = np.random.default_rng(seed)
    g = GridSpec(m, 2.5 * m)
    f = random_complex(rng, m)
    h = random_complex(rng, m)
    got = periodic_convolve(f, h, g)
    want = np.zeros(m, dtype=complex)
    for i in range(m):
        for j in range(m):
            want[i] += f[(i - j) % m] * h[j] * g.dx
    assert np.allclose(got, want, atol=1e-10)


def test_convolution_real_in_real_out():
    rng = np.random.default_rng(7)
    g = GridSpec(12, 6.0)
    f = rng.standard_normal(12)
    h = rng.standard_normal(12)
    out = periodic_convolve(f, h, g)
    assert out.dtype.kind == "f"


# ---------------------------------------------------------------------------
# kinetic operator


def test_kinetic_matrix_matches_spectral_application():
    rng = np.random.default_rng(3)
    g = GridSpec(16, 16.0)
    t = kinetic_matrix(g)
    assert np.allclose(t, t.T, atol=1e-12)
    f = random_complex(rng, 16)
    spectral = sfft.ifft(g.wavenumbers**2 * sfft.fft(f))
    assert np.allclose(t @ f, spectral, atol=1e-11)
    # k = 0 annihilates constants
    assert np.allclose(t @ np.ones(16), 0.0, atol=1e-12)


def test_free_flow_preserves_norm_and_plane_waves():
    g = GridSpec(32, 8.0)
    rng = np.random.default_rng(11)
    f = random_complex(rng, 32)
    assert l2_norm(free_flow(f, g, 0.37), g) == pytest.approx(l2_norm(f, g), rel=1e-12)
    k = g.wavenumbers[5]
    wave = np.exp(1j * k * g.x)
    evolved = free_flow(wave, g, 0.37)
    assert np.allclose(evolved, np.exp(-1j * k**2 * 0.37) * wave, atol=1e-12)


def test_free_flow_matches_closed_form_gaussian():
    # fine grid so sampling the analytic solution is alias-free
    g = GridSpec(64, 16.0)
    psi0 = free_gaussian_exact(g.x, 0.0, 8.0, 1.0, 0.5, g.length)
    for t in (0.3, 1.0):
        got = free_flow(psi0, g, t)
        want = free_gaussian_exact(g.x, t, 8.0, 1.0, 0.5, g.length)
        assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# potentials


POTENTIALS = [
    pytest.param(PotentialSpec(0.0), id="zero"),  # the free gas
    pytest.param(PotentialSpec(), id="gaussian"),  # the default
    pytest.param(PotentialSpec(-0.8, 2.5), id="wide-attractive"),
]


@pytest.mark.parametrize("spec", POTENTIALS)
@pytest.mark.parametrize("m", [4, 9, 16])
def test_sampled_potential_is_mirror_symmetric_bitwise(spec, m):
    g = GridSpec(m, float(m))
    v = sample_potential(spec, g)
    for j in range(1, m):
        assert v[j] == v[m - j]  # exact equality, not approx


def test_gaussian_samples_match_formula():
    g = GridSpec(16, 16.0)
    v = sample_potential(PotentialSpec(0.5, 1.3), g)
    for j in range(16):
        r = min(j * g.dx, g.length - j * g.dx)
        assert v[j] == pytest.approx(0.5 * np.exp(-(r**2) / (2 * 1.3**2)), rel=1e-14)
    # amplitude 0 samples +0.0 everywhere, bit for bit
    free = sample_potential(PotentialSpec(0.0), g)
    assert np.array_equal(free, np.zeros(16)) and not np.signbit(free).any()


def test_potential_matrix_is_circulant():
    g = GridSpec(8, 8.0)
    v = sample_potential(PotentialSpec(1.0, 0.7), g)
    mat = potential_matrix(v, g)
    assert np.allclose(mat, mat.T, atol=0.0)
    for i in range(8):
        for j in range(8):
            assert mat[i, j] == v[(i - j) % 8]


def test_potential_spec_validation():
    # zero, negative, and a width whose square overflows or underflows
    for width in (0.0, -1.0, 1e200, 1e-200):
        with pytest.raises(ValueError, match="width"):
            PotentialSpec(1.0, width=width)
    with pytest.raises(ValueError, match="amplitude"):
        PotentialSpec(float("nan"))


# ---------------------------------------------------------------------------
# packets


def test_packets_are_normalized():
    g = GridSpec(16, 16.0)
    assert l2_norm(gaussian_packet(g, 8.0, 1.0), g) == pytest.approx(1.0, abs=1e-12)


def test_commensurate_momentum_only_changes_phase():
    # for a lattice wavenumber every periodic image carries the same phase,
    # so the boost is exactly a plane-wave factor
    g = GridSpec(16, 16.0)
    still = gaussian_packet(g, 8.0, 1.0)
    k = float(g.wavenumbers[2])
    moving = gaussian_packet(g, 8.0, 1.0, momentum=k)
    assert np.allclose(moving, np.exp(1j * k * g.x) * still, atol=1e-13)


def test_incommensurate_momentum_distorts_only_the_seam():
    # images interfere where the tails wrap around; the envelope may shift
    # there at the overlap scale but nowhere else
    g = GridSpec(16, 16.0)
    still = gaussian_packet(g, 8.0, 1.0)
    moving = gaussian_packet(g, 8.0, 1.0, momentum=0.9)
    assert np.max(np.abs(np.abs(still) - np.abs(moving))) < 1e-5


def test_packet_peaks_at_center():
    g = GridSpec(32, 16.0)
    p = gaussian_packet(g, 6.0, 0.8)
    assert g.x[int(np.argmax(np.abs(p)))] == pytest.approx(6.0)
