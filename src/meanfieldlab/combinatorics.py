"""Number-sector overlap coefficients of displaced product states.

A normalized n-fold product state can be written as a phase average of
coherent states.  The coefficients handled here are, for 0 <= m <= n-1, the
norms of the m-particle sectors of the displacement-inverted (n-1)-fold
product state.  They admit the closed form

    A_0 = exp(-n/2) n^{n/2} / sqrt(n!)
    A_m = exp(-n/2) (sqrt n)^{n-m-1} sqrt(m!/(n-1)!) L_m^{(n-m-1)}(n),

with associated Laguerre polynomials evaluated on the diagonal alpha =
n - m - 1, x = n.  Instead of evaluating that expression (the Laguerre
factor overflows quickly), everything is computed through a normalized
three-term recurrence that follows from the standard Laguerre ladder
relations:

    A_{m+1} = -sqrt((m+1)/n) A_m - sqrt(m/(m+1)) A_{m-1}.

The recurrence is neutrally stable and keeps all magnitudes in [~n^{-1/2}, 1],
so it is exact to roundoff for any n (checked against 50-digit arithmetic up
to n = 1024).

A table is the plain array A_0 .. A_{n-1}: ``sector_overlaps`` builds it,
``weighted_sector_sum`` and ``krasikov_check`` read it, and its length is n.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .grid import admit

ENVELOPE_BLOCK = 4096  # orders per pass of krasikov_check


def log_coherent_norm(n: int) -> float:
    """ln of sqrt(n!) / (n^{n/2} e^{-n/2}).

    This constant links the n-fold product state to the matching coherent
    state: the coherent state with mean occupation n carries the product
    state in its n-particle sector with amplitude exp(-log_coherent_norm(n)).
    Grows like (2 pi n)^{1/4}.
    """
    n = _check_count(n)
    return 0.5 * gammaln(n + 1) - 0.5 * n * np.log(n) + 0.5 * n


def admit_overlaps(n: int) -> None:
    """Refuse, through ``grid.admit``, a table of ``n`` entries before it is built.

    The charge is 48 B per entry.  In ``laguerre``, a table with its weighted
    sum peaks at 32-33 B per entry and a table with its envelope
    (``krasikov_check``) at 24-27 B (tracemalloc, n = 10^5 to 10^6).
    """
    admit(f"a sector-overlap table of {n} entries", 48 * n)


def sector_overlaps(n: int) -> np.ndarray:
    """The array A_0 .. A_{n-1}, by the normalized recurrence."""
    n = _check_count(n)
    a = np.zeros(n)
    a[0] = np.exp(-log_coherent_norm(n))
    if n >= 2:
        a[1] = -a[0] / np.sqrt(n)
    for m in range(1, n - 1):
        a[m + 1] = -np.sqrt((m + 1) / n) * a[m] - np.sqrt(m / (m + 1)) * a[m - 1]
    return a


def krasikov_check(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|L_m^{(n-m-1)}(n)| and Krasikov's uniform bound on it, for m = 1..n-1.

    ``values`` is the table A_0 .. A_{n-1}.  The bound reads, with
    s = sqrt(n) + sqrt(m), q = sqrt(n) - sqrt(m),

        |L| < sqrt((n-1)!/m!) sqrt(n (s^2-q^2) / r) e^{n/2} n^{-(n-m)/2},
        r = (n - q^2)(s^2 - n) = 4 n m - m^2,

    valid for 1 <= m <= n-1 (at m = n the window r degenerates).  Both sides
    are evaluated in the log domain via the sector-overlap recurrence, so the
    check never overflows.  Orders go ENVELOPE_BLOCK at a time, so that the
    temporaries stay small beside the two returned arrays.
    """
    n = len(values)
    log_n, lg_n = np.log(n), gammaln(n)
    log_value, log_bound = np.empty(n - 1), np.empty(n - 1)
    for lo in range(1, n, ENVELOPE_BLOCK):
        hi = min(lo + ENVELOPE_BLOCK, n)
        m = np.arange(lo, hi, dtype=float)
        lg_m = gammaln(m + 1)
        # |A_m| = prefactor * |L|, so log|L| = log|A_m| - log(prefactor).
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(values[lo:hi]))
        log_value[lo - 1 : hi - 1] = log_abs - (-0.5 * n + 0.5 * (n - m - 1) * log_n + 0.5 * (lg_m - lg_n))
        r = 4.0 * n * m - m**2
        log_bound[lo - 1 : hi - 1] = (
            0.5 * (lg_n - lg_m)
            + 0.5 * (log_n + np.log(4.0 * np.sqrt(n * m)) - np.log(r))
            + 0.5 * n
            - 0.5 * (n - m) * log_n
        )
    return log_value, log_bound


def weighted_sector_sum(values: np.ndarray) -> float:
    """sum_{m<n} A_m^2/(m+1) over the table A_0 .. A_{n-1}; sqrt(n) times it stays order one in n."""
    return float(np.sum(values**2 / (np.arange(len(values)) + 1.0)))


def _check_count(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"particle count must be a positive integer, got {n}")
    return int(n)
