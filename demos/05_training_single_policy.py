"""
Training a single policy to uncover a Pareto front
==================================================

One stochastic policy, eight workers, one-step episodes: each worker draws
an action (a candidate decision vector), evaluates the problem, and scores
it against its private archive.  The run reports the non-dominated rows of
its whole evaluation log as the front.

This demo runs a reduced budget so it finishes in a few seconds; the full
benchmark setting uses budget=10000 (20000 for the harder suites).
"""

import numpy as np

from pearlkit import (
    CurriculumConstrained,
    PearlNds,
    TrainerConfig,
    get_problem,
    hypervolume,
    train,
)

problem = get_problem("dtlz2")
cfg = TrainerConfig(n_steps=32, ncores=8, budget=4096, seed=0)
result = train(problem, lambda: PearlNds(kappa=64, ranker="crowding"), cfg)

# The front is a set of rows of the evaluation log.
log = result.log
front = log.F[result.front]  # objectives as evaluated
print(f"evaluations: {len(log)}, front: {len(front)} points")
print(f"hypervolume vs nadir {problem.nadir.tolist()}: "
      f"{hypervolume(front, problem.nadir):.3f}")
print(f"wall time: {result.wall_time:.1f}s")

# The evaluation log holds every sample as array rows (row i is step i):
# worker, X, F, G, cv, reward.
last = len(log) - 1
print("\nlast log row: step", last, "worker", log.worker[last],
      "reward", round(log.reward[last], 3))
print("decision vector of the first front point:", np.round(log.X[result.front[0]], 3))

# Constrained problems wrap the engine in the curriculum handler: the policy
# first learns to reach feasibility, then optimizes inside it.
problem = get_problem("ctp1")
cfg = TrainerConfig(n_steps=32, ncores=8, budget=4096, seed=0)
result = train(problem,
               lambda: CurriculumConstrained(PearlNds(kappa=64, ranker="crowding")),
               cfg)
front = result.log.F[result.front]
feasible_share = np.mean(result.log.cv == 0.0)
print(f"\nctp1: {len(front)} feasible front points, "
      f"hypervolume {hypervolume(front, problem.nadir):.3f}, "
      f"{feasible_share:.0%} of samples feasible")
