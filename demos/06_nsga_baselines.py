"""
NSGA-II and NSGA-III baselines
==============================

Generational loops with blend crossover and Gaussian mutation, and crowding
or niching survivor selection under feasibility-first dominance.  The
reported front covers every evaluation ever made, which makes the budget
comparison with the policy trainers fair.
"""

import numpy as np

from pearlkit import GAConfig, get_problem, hypervolume, run_nsga2, run_nsga3

problem = get_problem("dtlz2")
cfg = GAConfig(lambda_=32, budget=4096, seed=0, mutpb=0.3, cxpb=0.65)

for name, runner in (("NSGA-II", run_nsga2), ("NSGA-III", run_nsga3)):
    result = runner(problem, cfg)
    front = result.log.F[result.front]  # the front is a set of log rows
    print(f"{name}: {len(result.log)} evaluations, "
          f"front {len(front)} points, "
          f"HV {hypervolume(front, problem.nadir):.3f}")

# On a constrained problem, every feasible point dominates every infeasible one.
problem = get_problem("c2-dtlz2")
result = run_nsga3(problem, GAConfig(lambda_=32, budget=4096, seed=0))
front = result.log.F[result.front]
print(f"\nconstrained NSGA-III on c2-dtlz2: {len(front)} feasible front points, "
      f"HV {hypervolume(front, problem.nadir):.3f}")
