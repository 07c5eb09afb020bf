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

from .pareto import _real


def block_ranks(values: np.ndarray) -> np.ndarray:
    """Within-block ranks (1 = smallest value), average ranks on ties."""
    from scipy.stats import rankdata

    return rankdata(np.atleast_2d(np.asarray(values, dtype=float)), axis=1)


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
    """Nemenyi critical mean-rank difference of k treatments over n blocks:
    the upper ``alpha`` quantile of the studentized range of k treatments
    (infinite degrees of freedom) times ``sqrt(k(k+1)/(12n))``."""
    from scipy.stats import studentized_range

    if k < 2:
        raise ValueError(f"critical difference needs at least 2 treatments, not {k!r}")
    alpha = _real("alpha", alpha, "in (0, 1)")
    return float(studentized_range.isf(alpha, k, np.inf) * np.sqrt(k * (k + 1) / (12.0 * n)))


@dataclass
class NemenyiResult:
    p_values: np.ndarray        # symmetric, unit diagonal
    significant: np.ndarray     # p_values < alpha
    critical_diff: float
    mean_ranks: np.ndarray
    alpha: float


def nemenyi(values, alpha: float = 0.05) -> NemenyiResult:
    """Pairwise Nemenyi test on the mean ranks of a block design.

    A pair's p-value is the studentized-range tail probability of its
    mean-rank gap, and the pair is significant when that p-value is below
    ``alpha``: when its gap exceeds ``critical_diff``, the quantile the same
    distribution gives at ``alpha``.
    """
    from scipy.stats import studentized_range

    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    if n < 2 or k < 2:
        raise ValueError("nemenyi needs at least 2 blocks and 2 treatments")
    cd = critical_difference(k, n, alpha)
    mean_ranks = block_ranks(values).mean(axis=0)
    gaps = np.abs(mean_ranks[:, None] - mean_ranks[None, :])
    p = studentized_range.sf(gaps / np.sqrt(k * (k + 1) / (12.0 * n)), k, np.inf)
    return NemenyiResult(p_values=p, significant=p < alpha, critical_diff=cd,
                         mean_ranks=mean_ranks, alpha=float(alpha))


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
