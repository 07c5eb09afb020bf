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
    EvaluationLog,
    PearlEnvelope,
    PearlEpsilon,
    PearlNds,
    ProblemSpec,
    sample_preferences,
)

rng = np.random.default_rng(7)

# Dirichlet preference rays: alpha shapes where the rays concentrate.
flat = sample_preferences((1, 1, 1), 5, rng)
peaked = sample_preferences((10, 10, 10), 5, rng)
print("uniform rays:\n", np.round(flat, 3))
print("concentrated rays:\n", np.round(peaked, 3))

# Engines score evaluations where a run keeps them: in the rows of its
# EvaluationLog.  log.evaluate fills the next rows from a block of points
# (one row each) and returns those that succeeded, engine.score(log, row)
# reads a row, and a rank engine's archive keeps the rows of the members it
# admits.
# Here the two costs of a point x of the unit square are 4 * x.
costs = ProblemSpec("costs", n_x=2, n_obj=2, objectives=lambda x: 4.0 * x)
log = EvaluationLog(16, costs)


def evaluated(f):
    """Evaluate the point whose costs are ``f`` into the next row of the log
    and return that row."""
    (row,) = log.evaluate(0, np.asarray([f], dtype=float) / 4.0)
    return row


# Envelope engine: reward = best scalarization over the active rays.
envelope = PearlEnvelope(n_obj=2, alpha=1.0, lambda_=1.0, uniformity="cos")
envelope.resample(rng)
row = evaluated([2.0, 4.0])  # costs; the reward is -f
print("\nenvelope reward:", round(envelope.score(log, row).reward, 4))

# Rank engines: reward is minus the candidate's archive rank, or minus the
# buffer capacity when the candidate is dominated.
nds = PearlNds(kappa=8, ranker="crowding")
print("\nfirst insert:", nds.score(log, evaluated([1.0, 1.0])).reward)
print("interior insert:", nds.score(log, evaluated([0.5, 1.5])).reward)
print("dominated insert:", nds.score(log, evaluated([2.0, 2.0])).reward)
print("archived rows:", nds.archive.rows().tolist())

eps = PearlEpsilon(kappa=8, nu=0.05)
for objectives in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
    out = eps.score(log, evaluated(objectives))
    print("epsilon-indicator reward:", out.reward, "archived:", out.archived)

# Curriculum wrapper: infeasible solutions pay distance + bonus and never
# enter the archive, so the buffer only ever holds feasible solutions.  The
# constraints x_i <= 0.5 are violated by g = x - 0.5 where positive.
boxed = ProblemSpec("boxed-costs", n_x=2, n_obj=2, objectives=lambda x: 4.0 * x,
                    constraints=lambda x, f: x - 0.5, n_constraints=2)
boxed_log = EvaluationLog(2, boxed)
# g = (0.5, 0.2) in row 0 and (-0.1, -0.2) in row 1
boxed_log.evaluate(0, np.array([[1.0, 0.7], [0.4, 0.3]]))
constrained = CurriculumConstrained(PearlNds(kappa=64, ranker="crowding"))
print("\ninfeasible reward:", constrained.score(boxed_log, 0).reward)    # -(0.29) - 64
print("feasible reward:", constrained.score(boxed_log, 1).reward)
print("archive holds only feasible members:",
      bool((boxed_log.cv[constrained.inner.archive.rows()] == 0).all()))
