"""Friedman omnibus test and Nemenyi post-hoc pairwise comparisons.

Both tests operate on an ``n blocks x k treatments`` matrix of metric values
(one block per seed, one treatment per algorithm).  Being rank based, the
results are invariant under strictly monotone transforms of the metric.

scipy is imported inside the functions that use it, so importing pearlkit
and running a cell load no scipy module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Studentized-range quantiles over infinite degrees of freedom, already
# divided by sqrt(2) so that CD = q * sqrt(k (k+1) / (6 n)).  Rows are
# k = 2..10.
_Q_TABLE = {
    0.05: [1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164],
    0.10: [1.645, 2.052, 2.291, 2.460, 2.589, 2.693, 2.780, 2.855, 2.920],
}


def block_ranks(values: np.ndarray) -> np.ndarray:
    """Within-block ranks (1 = smallest value), average ranks on ties."""
    from scipy.stats import rankdata

    values = np.atleast_2d(np.asarray(values, dtype=float))
    return np.vstack([rankdata(row) for row in values])


@dataclass
class FriedmanResult:
    statistic: float
    p_value: float
    mean_ranks: np.ndarray


def friedman(values) -> FriedmanResult:
    """Friedman chi-square test across treatments over repeated blocks.

    Returns the classical statistic ``12n/(k(k+1)) * sum_j (Rbar_j - (k+1)/2)^2``
    with the p-value from the chi-square distribution on k-1 degrees of
    freedom.  All-equal data gives statistic 0 and p = 1.
    """
    from scipy.stats import chi2

    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    if n < 2 or k < 2:
        raise ValueError("friedman needs at least 2 blocks and 2 treatments")
    mean_ranks = block_ranks(values).mean(axis=0)
    statistic = 12.0 * n / (k * (k + 1)) * float(np.sum((mean_ranks - (k + 1) / 2.0) ** 2))
    p_value = float(chi2.sf(statistic, k - 1))
    return FriedmanResult(statistic=statistic, p_value=p_value, mean_ranks=mean_ranks)


def critical_difference(k: int, n: int, alpha: float = 0.05) -> float:
    """Nemenyi critical mean-rank difference ``q_alpha * sqrt(k(k+1)/(6n))``.

    Quantiles are tabulated for k <= 10 at alpha in {0.05, 0.10}; other
    alpha values inside that bracket interpolate linearly in log(alpha).
    """
    if not 2 <= k <= 10:
        raise ValueError("critical difference tabulated for 2 <= k <= 10")
    lo, hi = 0.05, 0.10
    if not lo <= alpha <= hi:
        raise ValueError(f"alpha must lie in [{lo}, {hi}]")
    q_lo = _Q_TABLE[lo][k - 2]
    q_hi = _Q_TABLE[hi][k - 2]
    t = (np.log(alpha) - np.log(lo)) / (np.log(hi) - np.log(lo))
    q = q_lo + t * (q_hi - q_lo)
    return float(q * np.sqrt(k * (k + 1) / (6.0 * n)))


def studentized_range_sf(q: float, k: int) -> float:
    """Survival function of the range of k standard normals (infinite df).

    This is the asymptotic reference distribution of the Nemenyi statistic.
    """
    from scipy.integrate import quad
    from scipy.stats import norm

    if q <= 0:
        return 1.0

    def integrand(z):
        return norm.pdf(z) * (norm.cdf(z) - norm.cdf(z - q)) ** (k - 1)

    cdf, _ = quad(integrand, -8.5, 8.5, limit=200)
    return float(min(max(1.0 - k * cdf, 0.0), 1.0))


@dataclass
class NemenyiResult:
    p_values: np.ndarray        # symmetric, unit diagonal
    significant: np.ndarray     # |mean-rank diff| > critical difference
    critical_diff: float
    mean_ranks: np.ndarray
    alpha: float


def nemenyi(values, alpha: float = 0.05) -> NemenyiResult:
    """Pairwise Nemenyi test on the mean ranks of a block design.

    Mean-rank differences are compared against the tabulated critical
    difference at ``alpha``; the reported p-values are the exact asymptotic
    tail probabilities of the studentized-range distribution, which may
    differ in absolute value from table-derived approximations while
    agreeing on the reject/fail decisions.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    if n < 2 or k < 2:
        raise ValueError("nemenyi needs at least 2 blocks and 2 treatments")
    mean_ranks = block_ranks(values).mean(axis=0)
    cd = critical_difference(k, n, alpha)
    scale = np.sqrt(k * (k + 1) / (12.0 * n))
    p = np.ones((k, k))
    sig = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            diff = abs(mean_ranks[i] - mean_ranks[j])
            p[i, j] = p[j, i] = studentized_range_sf(diff / scale, k)
            sig[i, j] = sig[j, i] = diff > cd
    return NemenyiResult(p_values=p, significant=sig, critical_diff=cd,
                         mean_ranks=mean_ranks, alpha=alpha)


def write_significance_csv(result: NemenyiResult, names, path):
    """Serialize a pairwise significance matrix, one row per treatment."""
    names = list(names)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["treatment"] + names)
        for i, name in enumerate(names):
            row = [name]
            for j in range(len(names)):
                flag = "*" if result.significant[i, j] else ""
                row.append(f"{result.p_values[i, j]:.4g}{flag}")
            writer.writerow(row)
