"""Sector-overlap coefficients against high-precision and closed-form oracles.

The float64 recurrence is validated two independent ways: a 50-digit mpmath
version of the same recurrence (stable, so its output is trustworthy at any
n) and mpmath's own Laguerre evaluation of the closed form at moderate n.
The naive alternating closed-form sum in float precision is NOT an oracle:
it loses all digits beyond n ~ 150 to cancellation, which is the reason the
recurrence exists.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from meanfieldlab import combinatorics
from meanfieldlab.combinatorics import (
    krasikov_check,
    log_coherent_norm,
    sector_overlaps,
    weighted_sector_sum,
)


def mp_table(n: int, dps: int = 50):
    """The same normalized recurrence in mpmath arithmetic."""
    with mp.workdps(dps):
        a = [mp.e ** (-mp.mpf(n) / 2) * mp.mpf(n) ** (mp.mpf(n) / 2) / mp.sqrt(mp.factorial(n))]
        if n >= 2:
            a.append(-a[0] / mp.sqrt(n))
        for m in range(1, n - 1):
            a.append(-mp.sqrt(mp.mpf(m + 1) / n) * a[m] - mp.sqrt(mp.mpf(m) / (m + 1)) * a[m - 1])
        return [float(v) for v in a]


def mp_closed_form(n: int, m: int, dps: int = 60) -> float:
    """Closed form through mpmath's Laguerre (exact cancellation handling)."""
    with mp.workdps(dps):
        lag = mp.laguerre(m, n - m - 1, n)
        pref = (
            mp.e ** (-mp.mpf(n) / 2)
            * mp.sqrt(n) ** (n - m - 1)
            * mp.sqrt(mp.factorial(m) / mp.factorial(n - 1))
        )
        return float(pref * lag)


# ---------------------------------------------------------------------------
# scalar building blocks


def test_log_coherent_norm_exact_small_n():
    for n in (1, 2, 3, 5, 12):
        want = math.log(math.sqrt(math.factorial(n)) / (n ** (n / 2) * math.exp(-n / 2)))
        assert log_coherent_norm(n) == pytest.approx(want, rel=1e-13)


def test_log_coherent_norm_growth():
    # grows like ln (2 pi n)^(1/4) = 0.25 ln(2 pi n)
    for n in (64, 1024, 65536):
        assert log_coherent_norm(n) == pytest.approx(0.25 * math.log(2 * math.pi * n), abs=0.01)


# ---------------------------------------------------------------------------
# the overlap table


def test_first_coefficient_is_inverse_coherent_norm():
    for n in (1, 2, 4, 64, 1024):
        t = sector_overlaps(n)
        assert t[0] == pytest.approx(math.exp(-log_coherent_norm(n)), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 20, 50])
def test_table_matches_closed_form_at_moderate_n(n):
    t = sector_overlaps(n)
    for m in range(n):
        want = mp_closed_form(n, m)
        assert t[m] == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n", [100, 400, 1024])
def test_table_matches_high_precision_recurrence(n):
    t = sector_overlaps(n)
    want = mp_table(n)
    err = np.max(np.abs(t - np.array(want)))
    assert err < 5e-14


def test_squared_norms_never_exceed_one():
    for n in (1, 2, 7, 64, 300, 1024):
        assert np.sum(sector_overlaps(n) ** 2) <= 1.0 + 1e-12


def test_count_validation():
    with pytest.raises(ValueError):
        sector_overlaps(0)
    with pytest.raises(ValueError):
        sector_overlaps(2.5)


# ---------------------------------------------------------------------------
# the uniform bound


@pytest.mark.parametrize("n", [10, 50, 200, 1024])
def test_krasikov_bound_holds_strictly(n):
    log_value, log_bound = krasikov_check(sector_overlaps(n))
    assert len(log_value) == len(log_bound) == n - 1
    assert np.all(log_value < log_bound)


def test_krasikov_blocks_do_not_change_the_envelope(monkeypatch):
    t = sector_overlaps(1024)
    whole = krasikov_check(t)
    monkeypatch.setattr(combinatorics, "ENVELOPE_BLOCK", 100)
    assert np.array_equal(krasikov_check(t), whole)


def test_krasikov_log_value_is_the_laguerre_magnitude():
    # the log_value channel reconstructs |L_m^{(n-m-1)}(n)| itself
    n = 12
    log_value, _ = krasikov_check(sector_overlaps(n))
    for m in (1, 4, 9):
        with mp.workdps(40):
            want = float(mp.log(abs(mp.laguerre(m, n - m - 1, n))))
        assert log_value[m - 1] == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# the weighted sum


def test_weighted_sum_matches_direct_evaluation():
    for n in (4, 32, 256):
        t = sector_overlaps(n)
        want = sum(t[m] ** 2 / (m + 1) for m in range(n))
        assert weighted_sector_sum(t) == pytest.approx(want, rel=1e-12)


def test_weighted_sum_scaled_stays_order_one():
    scaled = [math.sqrt(n) * weighted_sector_sum(sector_overlaps(n)) for n in (4, 16, 64, 256, 1024)]
    assert max(scaled) / min(scaled) < 2.0
    assert 0.2 < min(scaled) and max(scaled) < 2.0
