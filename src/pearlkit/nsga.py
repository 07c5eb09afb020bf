"""NSGA-II and (constrained) NSGA-III generational baselines.

Variation is a (mu, lambda) evolution strategy: blend crossover applied
with probability ``cxpb`` and per-gene Gaussian mutation applied with
probability ``mutpb``, both clamped to the box.  Survivor selection merges
parents and offspring, sorts by non-domination, and resolves the last
partial front by crowding (NSGA-II) or reference-direction niching
(NSGA-III).  The population is an array of rows of the run's
``EvaluationLog``, and the selection steps work on the log's objective and
violation rows.  The reported front is the log rows of the non-dominated
set of every evaluation ever made, not just the final population.  A failed
evaluation is logged with NaN objectives and left out of the population, as
in the trainer, so the population may shrink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .density import (ReferenceDirectionSet, associate, best_first, crowding_rank, das_dennis,
                      default_divisions, minmax_normalize)
from .pareto import non_dominated_sort
from .problems import ProblemSpec
from .trainer import EvaluationLog, RunResult


@dataclass
class GAConfig:
    """Generational settings; defaults follow the 32-individual setup, and
    ``mu`` (parents) and ``pop_size`` (survivors) default to ``lambda_``."""

    lambda_: int = 32
    mu: Optional[int] = None
    mutpb: float = 0.3
    cxpb: float = 0.65
    pop_size: Optional[int] = None
    budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        self.mu = self.lambda_ if self.mu is None else self.mu
        self.pop_size = self.lambda_ if self.pop_size is None else self.pop_size

    def validate(self):
        if not (0.0 <= self.mutpb <= 1.0 and 0.0 <= self.cxpb <= 1.0):
            raise ValueError("mutpb and cxpb must lie in [0, 1]")
        if self.mu > self.lambda_:
            raise ValueError("mu must not exceed lambda_")
        if self.pop_size < 2:
            raise ValueError("population must hold at least 2 individuals")
        if self.budget < self.pop_size + self.lambda_:
            raise ValueError("budget must cover the initial population and one generation")
        return self


def _selection_order(F: np.ndarray, cv: np.ndarray, constrained: bool) -> np.ndarray:
    """Positions of the rows ``F`` ordered best-first: by front, then density
    inside each front."""
    fronts = non_dominated_sort(F, cv, constrained)
    return np.concatenate([front[crowding_rank(F[front]).order] for front in fronts])


BLEND_ALPHA = 0.5  # blend crossover draws gamma from [-alpha, 1 + alpha]
SIGMA_FRACTION = 0.1  # mutation sigma as a fraction of box width


def _variation(parents: np.ndarray, cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator) -> np.ndarray:
    """lambda_ offspring decision vectors, one per row, from the parents'
    decision vectors (one per row)."""
    lo, hi = problem.lower, problem.upper
    sigma = SIGMA_FRACTION * (hi - lo)
    out = np.empty((cfg.lambda_, problem.n_x))
    for k in range(cfg.lambda_):
        i, j = rng.integers(0, len(parents), size=2)
        child = parents[i]
        if rng.random() < cfg.cxpb:
            gamma = (1.0 + 2.0 * BLEND_ALPHA) * rng.random(problem.n_x) - BLEND_ALPHA
            child = (1.0 - gamma) * parents[i] + gamma * parents[j]
        if rng.random() < cfg.mutpb:
            child = child + rng.normal(0.0, sigma)
        out[k] = np.clip(child, lo, hi)
    return out


def _fill_fronts(F: np.ndarray, cv: np.ndarray, n: int,
                 constrained: bool) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the whole fronts that fit into ``n`` slots, best first,
    and of the first front that does not fit (empty when every front fits)."""
    chosen = np.empty(0, dtype=np.intp)
    for front in non_dominated_sort(F, cv, constrained):
        if len(chosen) + len(front) > n:
            return chosen, front
        chosen = np.concatenate([chosen, front])
    return chosen, chosen[:0]


def _survivors_nsga2(F: np.ndarray, cv: np.ndarray, n: int,
                     constrained: bool = False) -> np.ndarray:
    chosen, last = _fill_fronts(F, cv, n, constrained)
    if len(last) and len(chosen) < n:
        ranked = crowding_rank(F[last]).order
        chosen = np.concatenate([chosen, last[ranked[: n - len(chosen)]]])
    return chosen


def _survivors_nsga3(F: np.ndarray, cv: np.ndarray, n: int, dirs: ReferenceDirectionSet,
                     constrained: bool) -> np.ndarray:
    chosen, last = _fill_fronts(F, cv, n, constrained)
    need = n - len(chosen)
    if need == 0 or not len(last):
        return chosen

    start = len(chosen)
    considered = np.concatenate([chosen, last])
    objs = F[considered]
    niche, dist = associate(minmax_normalize(objs, objs.min(axis=0), objs.max(axis=0)), dirs)
    counts = np.bincount(niche[:start], minlength=len(dirs.directions))

    # deterministic niche filling: each pick is the best-first candidate
    # (closest to its direction) among those of the least-filled niches
    candidates = start + best_first(objs[start:], dist[start:])
    picks = []
    for _ in range(need):  # need < len(last), so candidates never run out
        pick = np.argmin(counts[niche[candidates]])
        picks.append(candidates[pick])
        counts[niche[candidates[pick]]] += 1
        candidates = np.delete(candidates, pick)
    return np.concatenate([chosen, considered[picks]])


def _offspring(pop: np.ndarray, log: EvaluationLog, cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluate, constrained: bool) -> np.ndarray:
    """The log rows of one generation's offspring that evaluated successfully."""
    order = _selection_order(log.F[pop], log.cv[pop], constrained)
    return evaluate(_variation(log.X[pop[order[: cfg.mu]]], cfg, problem, rng))


def nsga2_step(pop: np.ndarray, log: EvaluationLog, cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluate, constrained: bool) -> np.ndarray:
    """One generation: ES variation, merge with parents, crowded selection.
    ``pop`` and the result are rows of ``log``; ``evaluate(X)`` records each
    row of ``X`` in ``log`` and returns the rows that succeeded."""
    pool = np.concatenate([pop, _offspring(pop, log, cfg, problem, rng, evaluate, constrained)])
    return pool[_survivors_nsga2(log.F[pool], log.cv[pool], cfg.pop_size, constrained)]


def nsga3_step(pop: np.ndarray, log: EvaluationLog, cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluate, constrained: bool,
               dirs: ReferenceDirectionSet) -> np.ndarray:
    """One generation: ES variation, merge with parents, niching selection;
    arguments as in ``nsga2_step``."""
    pool = np.concatenate([pop, _offspring(pop, log, cfg, problem, rng, evaluate, constrained)])
    return pool[_survivors_nsga3(log.F[pool], log.cv[pool], cfg.pop_size, dirs, constrained)]


def _run(problem: ProblemSpec, cfg: GAConfig, constrained: Optional[bool], step) -> RunResult:
    """Full generational run under a shared evaluation budget; ``step`` is
    ``nsga2_step`` or ``nsga3_step`` with its directions bound.

    ``constrained`` defaults to whether the problem has constraints.  The
    initial population counts against the budget; the returned front is
    ``log.front()``, the (feasibility-first) non-dominated rows of all
    evaluations.
    """
    cfg.validate()
    if constrained is None:
        constrained = problem.n_constraints > 0
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    generations = (cfg.budget - cfg.pop_size) // cfg.lambda_
    log = EvaluationLog(cfg.pop_size + generations * cfg.lambda_, problem)

    def evaluate(X: np.ndarray) -> np.ndarray:
        first = len(log)
        return first + np.flatnonzero([log.evaluate(problem, 0, x) for x in X])

    pop = evaluate(rng.uniform(problem.lower, problem.upper, (cfg.pop_size, problem.n_x)))
    for _ in range(generations):
        pop = step(pop, log, cfg, problem, rng, evaluate, constrained)

    return RunResult(front=log.front(), log=log, wall_time=time.perf_counter() - start)


def run_nsga2(problem: ProblemSpec, cfg: GAConfig,
              constrained: Optional[bool] = None) -> RunResult:
    return _run(problem, cfg, constrained, nsga2_step)


def run_nsga3(problem: ProblemSpec, cfg: GAConfig, constrained: Optional[bool] = None,
              dirs: Optional[ReferenceDirectionSet] = None) -> RunResult:
    if dirs is None:
        dirs = das_dennis(problem.n_obj, default_divisions(problem.n_obj, cfg.pop_size))
    return _run(problem, cfg, constrained, partial(nsga3_step, dirs=dirs))
