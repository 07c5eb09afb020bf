"""
Rank-based significance testing across algorithms
=================================================

The Friedman test asks whether any algorithm differs across repeated seeded
runs; the Nemenyi post-hoc test tells which pairs differ, comparing
mean-rank gaps against the studentized-range critical difference.
"""

import numpy as np

from pearlkit import friedman, nemenyi

rng = np.random.default_rng(0)

# 20 seeds x 3 algorithms of a higher-is-better metric; algorithm C is
# genuinely better, A and B are close.
seeds, k = 20, 3
values = np.column_stack([
    rng.normal(26.00, 0.05, seeds),
    rng.normal(26.03, 0.05, seeds),
    rng.normal(26.35, 0.05, seeds),
])

omnibus = friedman(values)
print(f"Friedman chi2 = {omnibus.statistic:.2f}, p = {omnibus.p_value:.2e}")
print("mean ranks:", np.round(omnibus.mean_ranks, 2))

result = nemenyi(values, alpha=0.05)
print("\ncritical difference:", round(result.critical_diff, 3))
names = ["A", "B", "C"]
for i in range(k):
    for j in range(i + 1, k):
        verdict = "different" if result.significant[i, j] else "indistinguishable"
        print(f"{names[i]} vs {names[j]}: p = {result.p_values[i, j]:.3g} -> {verdict}")

# Being rank based, any strictly monotone transform leaves the answer alone.
assert np.isclose(friedman(np.exp(values)).statistic, omnibus.statistic)
print("\nstatistic invariant under monotone transforms: True")
