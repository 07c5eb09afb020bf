"""
Benchmark problems and reference fronts
=======================================

The registry holds the dtlz suite (dense, biased, degenerate, and
disconnected fronts), two constrained dtlz variants, and the ctp family
whose constraints carve the front into pieces.  All problems minimize on
the unit box and share a uniform evaluation interface.
"""

import numpy as np

from pearlkit import PROBLEMS, evaluate, get_problem, reference_front

for name, spec in PROBLEMS.items():
    print(f"{name:9s} n_x={spec.n_x:2d} F={spec.n_obj} "
          f"constraints={spec.n_constraints} nadir={spec.nadir.tolist()}")

# A dtlz2 evaluation: with the distance variables at 0.5 the point lies
# exactly on the unit-sphere front.
problem = get_problem("dtlz2")
f, _ = evaluate(problem, np.full(12, 0.5))
print("\ndtlz2 midpoint objectives:", np.round(f, 6))
print("sum of squares:", float(np.sum(f**2)))

# Constrained problems report violation-positive raw constraint values.
c2 = get_problem("c2-dtlz2")
_, g = evaluate(c2, np.full(7, 0.5))
print("\nc2-dtlz2 constraint at the sphere midpoint:", g,
      "(<= 0 means feasible)")

# Reference fronts: analytic generators for the sphere/curve families,
# versioned data files for the disconnected ones.
sphere = reference_front(get_problem("dtlz2"), 200)
print("\ndtlz2 front points on the unit sphere:",
      bool(np.allclose(np.sum(sphere**2, axis=1), 1.0)))

dtlz7 = reference_front(get_problem("dtlz7"), 500)
print("dtlz7 front f1 occupies two bands:",
      np.round([dtlz7[:, 0].min(), dtlz7[:, 0].max()], 3).tolist())

ctp2 = reference_front(get_problem("ctp2"), 300)
print("ctp2 disconnected front pieces:", len(ctp2), "points")
