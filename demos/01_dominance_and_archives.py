"""
Dominance relations and bounded Pareto archives
===============================================

The building blocks: dominance (every objective is minimized, and
feasibility takes precedence), non-dominated sorting and the best front of
an array of objective rows, and the bounded archive that the reward engines
use as per-worker memory.
"""

import numpy as np

from pearlkit import (
    ParetoArchive,
    best_front,
    crowding_rank,
    non_dominated_sort,
)

# Between feasible rows (violation 0), dominance is plain: no larger
# everywhere, strictly smaller somewhere.  Sorting rows shows it: (1, 2)
# dominates (2, 3), equal rows never dominate each other, and (1, 2), (3, 1)
# and (0, 4) trade off, so none dominates another.
rows = np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 2.0], [3.0, 1.0], [0.0, 4.0]])
print([front.tolist() for front in
       non_dominated_sort(rows, np.zeros(len(rows)))])  # [[0, 2, 3, 4], [1]]

# Feasibility comes first: any feasible point beats any infeasible one, and
# between infeasible points the smaller violation wins.  Sorting two rows
# shows it: the feasible row 0 comes first despite worse objectives.
pair = np.array([[9.0, 9.0], [0.0, 0.0]])
print([front.tolist() for front in
       non_dominated_sort(pair, np.array([0.0, 0.16]))])  # [[0], [1]]

# Non-dominated sorting peels objective rows into fronts of row indices.
objectives = np.array([(2, 2), (1, 1), (3, 0), (0, 3), (2.5, 2.5)], dtype=float)
violations = np.zeros(len(objectives))
for depth, front in enumerate(non_dominated_sort(objectives, violations)):
    print(f"front {depth}:", front.tolist(), objectives[front].tolist())

# best_front keeps the indices of the distinct non-dominated rows of the
# least-violating group (the feasible rows, when there are any).
violations[[1, 2]] = 0.3
print("best front:", best_front(objectives, violations).tolist())  # [0, 3]

# The bounded archive keeps at most kappa mutually non-dominated members,
# ranked by a density measure; insert(f, cv, row, ranker) returns the
# candidate's rank.  A member is named by its row in the caller's evaluation
# log (here the index of the candidate in the loop).
archive = ParetoArchive(capacity=4)
rng = np.random.default_rng(0)
for row in range(200):
    archive.insert(rng.random(2) * 4, 0.0, row, crowding_rank)
print("archive size:", len(archive))
print("archive rows:", archive.rows().tolist())
print("archive objectives:\n", np.round(archive.objectives(), 3))
