"""
Reward engines: how a scalar reward is assigned to each new solution
====================================================================

Each rollout worker owns one engine.  The envelope engine scalarizes
against Dirichlet-sampled preference rays; the epsilon and non-dominated
sorting engines rank the candidate inside a bounded archive; the curriculum
wrapper handles constraints by paying a distance penalty until feasibility
is reached.
"""

import numpy as np

from pearlkit import (
    CurriculumConstrained,
    PearlEnvelope,
    PearlEpsilon,
    PearlNds,
    make_solution,
    sample_preferences,
)

rng = np.random.default_rng(7)

# Dirichlet preference rays: alpha shapes where the rays concentrate.
flat = sample_preferences((1, 1, 1), 5, rng)
peaked = sample_preferences((10, 10, 10), 5, rng)
print("uniform rays:\n", np.round(flat, 3))
print("concentrated rays:\n", np.round(peaked, 3))

# Every score call names the evaluation-log row of the solution; an engine's
# archive keeps the rows of the members it admits.

# Envelope engine: reward = best scalarization over the active rays.
envelope = PearlEnvelope(n_obj=2, alpha=1.0, lambda_=1.0, uniformity="cos")
envelope.resample(rng)
sol = make_solution(np.zeros(2), [2.0, 4.0])  # costs; the reward is -f
print("\nenvelope reward:", round(envelope.score(sol, 0).reward, 4))

# Rank engines: reward is minus the candidate's archive rank, or minus the
# buffer capacity when the candidate is dominated.
nds = PearlNds(kappa=8, ranker="crowding")
print("\nfirst insert:", nds.score(make_solution(np.zeros(2), [1.0, 1.0]), 0).reward)
print("interior insert:",
      nds.score(make_solution(np.zeros(2), [0.5, 1.5]), 1).reward)
print("dominated insert:",
      nds.score(make_solution(np.zeros(2), [2.0, 2.0]), 2).reward)
print("archived rows:", nds.archive.rows().tolist())

eps = PearlEpsilon(kappa=8, nu=0.05)
for row, objectives in enumerate(([1.0, 0.0], [0.0, 1.0], [0.5, 0.5])):
    out = eps.score(make_solution(np.zeros(2), objectives), row)
    print("epsilon-indicator reward:", out.reward, "archived:", out.archived)

# Curriculum wrapper: infeasible solutions pay distance + bonus and never
# enter the archive, so the buffer only ever holds feasible solutions.
constrained = CurriculumConstrained(PearlNds(kappa=64, ranker="crowding"))
log = [make_solution(np.zeros(2), [1.0, 1.0], constraints=[0.5, 0.2]),
       make_solution(np.zeros(2), [1.0, 1.0], constraints=[-0.1, -0.2])]
print("\ninfeasible reward:", constrained.score(log[0], 0).reward)    # -(0.29) - 64
print("feasible reward:", constrained.score(log[1], 1).reward)
print("archive holds only feasible members:",
      all(log[row].feasible for row in constrained.archive.rows()))
