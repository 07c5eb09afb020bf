"""
Density-based ranking: crowding distance and reference-direction niching
========================================================================

Two ways to order a non-dominated set, best first.  Crowding rewards points
sitting in large gaps (boundaries rank first); niching associates points to
a simplex lattice of directions and prefers lonely niches.
"""

import numpy as np

from pearlkit import crowding_rank, das_dennis, default_divisions, niching_rank

front = np.array([
    [0.0, 2.0],
    [0.4, 1.8],
    [0.5, 1.7],   # crowded next to its neighbor
    [1.0, 1.0],
    [2.0, 0.0],
])

ranked = crowding_rank(front)
print("crowding scores:", np.round(ranked.scores, 3))
print("best-first order:", ranked.order)   # boundaries first, crowded pair last

# Reference directions: all lattice points k/p on the simplex.
dirs = das_dennis(3, 2)
print("\nDas-Dennis directions (F=3, p=2):\n", dirs)
print("count = binomial(F+p-1, p):", len(dirs))

# For an archive of capacity kappa, pick the smallest lattice with at
# least one direction per slot.
print("divisions for kappa=64, F=3:", default_divisions(3, 64))

# Niching on a 2-objective front: the point owning the empty direction wins.
front2 = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
result = niching_rank(front2, das_dennis(2, 1))
print("\nniching order:", result.order, "(the lone point ranks first)")
print("perpendicular distances:", np.round(result.scores, 3))
