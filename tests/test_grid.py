"""Grid conventions, potential sampling, and the spectral kinetic operator.

Oracles here are deliberately naive: O(M^2) convolution loops, explicit
image sums, and dense matrix identities, so the FFT paths are checked
against independent constructions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from meanfieldlab.grid import (
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
    sech_packet,
    step_schedule,
)


def random_complex(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def free_flow(values, grid, t):
    """Free evolution over time t through the Fourier multiplier kinetic_phase."""
    return sfft.ifft(kinetic_phase(grid, t) * sfft.fft(values))


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


def test_single_point_grid_degenerates_cleanly():
    # one mode: zero kinetic energy, dx equal to the box length
    g = GridSpec(1, 2.5)
    assert g.dx == 2.5
    assert np.all(g.wavenumbers == 0.0)
    assert kinetic_matrix(g).shape == (1, 1)
    assert kinetic_matrix(g)[0, 0] == 0.0


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
    for offset in (0.2001, 0.402, -2e-3):  # off the grid, past the end, before the start
        with pytest.raises(ValueError, match="does not land"):
            step_schedule(0.4, 2e-3, (offset,))


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


ALL_KINDS = [
    PotentialSpec("zero"),
    PotentialSpec("gaussian", 0.5, 1.0),
    PotentialSpec("cosine", 0.8, harmonic=2),
    PotentialSpec("soft_coulomb", 1.0, softening=0.5),
]


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [4, 9, 16])
def test_sampled_potential_is_mirror_symmetric_bitwise(spec, m):
    g = GridSpec(m, float(m))
    v = sample_potential(spec, g)
    for j in range(1, m):
        assert v[j] == v[m - j]  # exact equality, not approx


def test_gaussian_samples_match_formula():
    g = GridSpec(16, 16.0)
    v = sample_potential(PotentialSpec("gaussian", 0.5, 1.3), g)
    for j in range(16):
        r = min(j * g.dx, g.length - j * g.dx)
        assert v[j] == pytest.approx(0.5 * np.exp(-(r**2) / (2 * 1.3**2)), rel=1e-14)


def test_potential_matrix_is_circulant():
    g = GridSpec(8, 8.0)
    v = sample_potential(PotentialSpec("soft_coulomb", 1.0, softening=0.7), g)
    mat = potential_matrix(v, g)
    assert np.allclose(mat, mat.T, atol=0.0)
    for i in range(8):
        for j in range(8):
            assert mat[i, j] == v[(i - j) % 8]


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec("box")
    with pytest.raises(ValueError):
        PotentialSpec("gaussian", 1.0, width=0.0)
    with pytest.raises(ValueError):
        PotentialSpec("cosine", 1.0, harmonic=0)
    with pytest.raises(ValueError):
        PotentialSpec("soft_coulomb", 1.0, softening=-1.0)
    with pytest.raises(ValueError):
        PotentialSpec("gaussian", float("nan"))


# ---------------------------------------------------------------------------
# packets


def test_packets_are_normalized():
    g = GridSpec(16, 16.0)
    assert l2_norm(gaussian_packet(g, 8.0, 1.0), g) == pytest.approx(1.0, abs=1e-12)
    assert l2_norm(sech_packet(g, 5.0, 1.5), g) == pytest.approx(1.0, abs=1e-12)


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
