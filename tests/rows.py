"""Evaluation logs holding chosen objective and constraint rows.

Engines score, and archives keep, rows of an ``EvaluationLog``.  A test that
needs given values in those rows evaluates a lookup problem whose point
``x = i`` returns row ``i`` of a table, so every row is written by
``EvaluationLog.evaluate`` itself.
"""

import numpy as np

from pearlkit.problems import ProblemSpec
from pearlkit.trainer import EvaluationLog


def table_problem(F, G=None) -> ProblemSpec:
    """A one-variable problem on ``[0, len(F) - 1]`` (``[0, 0]`` for an
    empty table) whose evaluation at ``x = i`` returns objectives ``F[i]``
    and, when ``G`` is given, constraint values ``G[i]``."""
    F = np.asarray(F, dtype=float)
    n = len(F)
    G = None if G is None else np.asarray(G, dtype=float).reshape(n, -1)
    return ProblemSpec(
        "table", 1, F.shape[1], lambda x: F[int(x[0])].copy(),
        constraints=None if G is None else (lambda x, f: G[int(x[0])].copy()),
        n_constraints=0 if G is None else G.shape[1],
        lower=np.zeros(1), upper=np.full(1, max(n - 1.0, 0.0)))


def table_log(F, G=None, workers=None) -> EvaluationLog:
    """A log whose row ``i`` is the evaluation of ``table_problem(F, G)`` at
    ``i`` by worker ``workers[i]`` (0 by default)."""
    problem = table_problem(F, G)
    log = EvaluationLog(len(F), problem)
    points = np.arange(len(F), dtype=float)[:, None]
    log.evaluate(0 if workers is None else workers, points)
    return log
