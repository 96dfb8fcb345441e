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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln


def log_coherent_norm(n: int) -> float:
    """ln of sqrt(n!) / (n^{n/2} e^{-n/2}).

    This constant links the n-fold product state to the matching coherent
    state: the coherent state with mean occupation n carries the product
    state in its n-particle sector with amplitude exp(-log_coherent_norm(n)).
    Grows like (2 pi n)^{1/4}.
    """
    n = _check_count(n)
    return 0.5 * gammaln(n + 1) - 0.5 * n * np.log(n) + 0.5 * n


@dataclass
class SectorOverlapTable:
    """Sector norms A_m, m = 0..n-1, with their log-magnitudes.

    ``cumulative_sq[m]`` is sum_{j<=m} A_j^2; the grand total over all m >= 0
    would be 1, and the stored range always sums to <= 1.
    """

    n: int
    values: np.ndarray
    log_abs: np.ndarray
    cumulative_sq: np.ndarray

    @property
    def sum_sq(self) -> float:
        return float(self.cumulative_sq[-1])


def sector_overlaps(n: int) -> SectorOverlapTable:
    """Evaluate the full table A_0 .. A_{n-1} by the normalized recurrence."""
    n = _check_count(n)
    a = np.zeros(n)
    a[0] = np.exp(-log_coherent_norm(n))
    if n >= 2:
        a[1] = -a[0] / np.sqrt(n)
    for m in range(1, n - 1):
        a[m + 1] = -np.sqrt((m + 1) / n) * a[m] - np.sqrt(m / (m + 1)) * a[m - 1]

    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(a))
    return SectorOverlapTable(
        n=n,
        values=a,
        log_abs=log_abs,
        cumulative_sq=np.cumsum(a**2),
    )


class BoundCheck(NamedTuple):
    log_value: float
    log_bound: float
    ok: bool


def krasikov_check(table: SectorOverlapTable, m: int) -> BoundCheck:
    """Compare |L_m^{(n-m-1)}(n)| against Krasikov's uniform bound, in logs.

    The bound reads, with s = sqrt(n) + sqrt(m), q = sqrt(n) - sqrt(m),

        |L| < sqrt((n-1)!/m!) sqrt(n (s^2-q^2) / r) e^{n/2} n^{-(n-m)/2},
        r = (n - q^2)(s^2 - n) = 4 n m - m^2,

    valid for 1 <= m <= n-1 (at m = n the window r degenerates), with n the
    count of ``table``.  Both sides are evaluated in the log domain via the
    sector-overlap recurrence, so the check never overflows.
    """
    n = table.n
    if not 1 <= m <= n - 1:
        raise ValueError(f"bound window requires 1 <= m <= n-1, got m={m}, n={n}")

    # |A_m| = prefactor * |L|, so log|L| = log|A_m| - log(prefactor).
    log_pref = (
        -0.5 * n
        + 0.5 * (n - m - 1) * np.log(n)
        + 0.5 * (gammaln(m + 1) - gammaln(n))
    )
    log_value = float(table.log_abs[m] - log_pref)

    r = 4.0 * n * m - float(m) ** 2
    log_bound = float(
        0.5 * (gammaln(n) - gammaln(m + 1))
        + 0.5 * (np.log(n) + np.log(4.0 * np.sqrt(float(n) * m)) - np.log(r))
        + 0.5 * n
        - 0.5 * (n - m) * np.log(n)
    )
    return BoundCheck(log_value, log_bound, log_value < log_bound)


class WeightedSectorSum(NamedTuple):
    value: float
    tail_bound: float
    scaled: float


def weighted_sector_sum(table: SectorOverlapTable) -> WeightedSectorSum:
    """sum_{m<n} A_m^2/(m+1), a rigorous tail bound, and the sqrt(n)-scaled value.

    The tail over m >= n is bounded by (1/n)(1 - sum_{m<n} A_m^2) since each
    omitted weight 1/(m+1) is at most 1/n and the squared norms sum to one.
    The scaled value sqrt(n) * sum stays order one in n, the count of ``table``.
    """
    n = table.n
    value = float(np.sum(table.values**2 / (np.arange(n) + 1.0)))
    tail = (1.0 - table.sum_sq) / n
    return WeightedSectorSum(value, tail, float(np.sqrt(n) * value))


def _check_count(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"particle count must be a positive integer, got {n}")
    return int(n)
