"""NSGA-II and (constrained) NSGA-III generational baselines.

Variation is a (mu, lambda) evolution strategy: blend crossover applied
with probability ``cxpb`` and per-gene Gaussian mutation applied with
probability ``mutpb``, both clamped to the box.  Survivor selection merges
parents and offspring, sorts by non-domination, and resolves the last
partial front by crowding (NSGA-II) or reference-direction niching
(NSGA-III).  The reported front is the non-dominated set of every
evaluation ever made, not just the final population.  A failed evaluation
is logged with NaN objectives and left out of the population, as in the
trainer, so the population may shrink.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .density import (ReferenceDirectionSet, associate, best_first, crowding_rank, das_dennis,
                      default_divisions, minmax_normalize)
from .pareto import Solution, best_front, non_dominated_sort
from .problems import ProblemSpec
from .trainer import EvaluationLog, RunResult, evaluate_solution


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


def _selection_order(pop: list[Solution], constrained: bool) -> list[int]:
    """Indices ordered best-first: by front, then density inside each front."""
    fronts = non_dominated_sort(pop, constrained)
    order: list[int] = []
    for front in fronts:
        objs = np.array([pop[i].f for i in front])
        ranked = crowding_rank(objs).order
        order.extend(front[i] for i in ranked)
    return order


BLEND_ALPHA = 0.5  # blend crossover draws gamma from [-alpha, 1 + alpha]
SIGMA_FRACTION = 0.1  # mutation sigma as a fraction of box width


def _variation(parents: list[Solution], cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator) -> list[np.ndarray]:
    """lambda_ offspring decision vectors from the parent pool."""
    lo, hi = problem.lower, problem.upper
    sigma = SIGMA_FRACTION * (hi - lo)
    out = []
    for _ in range(cfg.lambda_):
        i, j = rng.integers(0, len(parents), size=2)
        child = parents[i].x.copy()
        if rng.random() < cfg.cxpb:
            gamma = (1.0 + 2.0 * BLEND_ALPHA) * rng.random(problem.n_x) - BLEND_ALPHA
            child = (1.0 - gamma) * parents[i].x + gamma * parents[j].x
        if rng.random() < cfg.mutpb:
            child = child + rng.normal(0.0, sigma)
        out.append(np.clip(child, lo, hi))
    return out


def _fill_fronts(pool: list[Solution], n: int,
                 constrained: bool) -> tuple[list[int], list[int]]:
    """Whole fronts that fit into ``n`` slots, best first, and the first
    front that does not fit (empty when every front fits)."""
    chosen: list[int] = []
    for front in non_dominated_sort(pool, constrained):
        if len(chosen) + len(front) > n:
            return chosen, front
        chosen.extend(front)
    return chosen, []


def _survivors_nsga2(pool: list[Solution], n: int,
                     constrained: bool = False) -> list[Solution]:
    chosen, last = _fill_fronts(pool, n, constrained)
    if last and len(chosen) < n:
        ranked = crowding_rank(np.array([pool[i].f for i in last])).order
        chosen.extend(last[i] for i in ranked[: n - len(chosen)])
    return [pool[i] for i in chosen]


def _survivors_nsga3(pool: list[Solution], n: int, dirs: ReferenceDirectionSet,
                     constrained: bool) -> list[Solution]:
    chosen, last = _fill_fronts(pool, n, constrained)
    need = n - len(chosen)
    if need == 0 or not last:
        return [pool[i] for i in chosen]

    start = len(chosen)
    considered = chosen + last
    objs = np.array([pool[i].f for i in considered])
    niche, dist = associate(minmax_normalize(objs, objs.min(axis=0), objs.max(axis=0)), dirs)
    counts = np.bincount(niche[:start], minlength=len(dirs.directions))

    # deterministic niche filling: each pick is the best-first candidate
    # (closest to its direction) among those of the least-filled niches
    candidates = start + best_first(objs[start:], dist[start:])
    for _ in range(need):  # need < len(last), so candidates never run out
        pick = np.argmin(counts[niche[candidates]])
        chosen.append(considered[candidates[pick]])
        counts[niche[candidates[pick]]] += 1
        candidates = np.delete(candidates, pick)
    return [pool[i] for i in chosen]


def _offspring(pop: list[Solution], cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluator, constrained: bool) -> list[Solution]:
    """One generation's evaluated offspring; failed evaluations are left out."""
    order = _selection_order(pop, constrained)
    parents = [pop[i] for i in order[: cfg.mu]]
    evaluated = [evaluator(x) for x in _variation(parents, cfg, problem, rng)]
    return [sol for sol in evaluated if sol is not None]


def nsga2_step(pop: list[Solution], cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluator, constrained: bool) -> list[Solution]:
    """One generation: ES variation, merge with parents, crowded selection."""
    pool = pop + _offspring(pop, cfg, problem, rng, evaluator, constrained)
    return _survivors_nsga2(pool, cfg.pop_size, constrained)


def nsga3_step(pop: list[Solution], cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator, evaluator, constrained: bool,
               dirs: ReferenceDirectionSet) -> list[Solution]:
    """One generation: ES variation, merge with parents, niching selection."""
    pool = pop + _offspring(pop, cfg, problem, rng, evaluator, constrained)
    return _survivors_nsga3(pool, cfg.pop_size, dirs, constrained)


def _run(problem: ProblemSpec, cfg: GAConfig, constrained: Optional[bool], step) -> RunResult:
    """Full generational run under a shared evaluation budget;
    ``step(pop, rng, evaluator, constrained)`` makes one generation.

    ``constrained`` defaults to whether the problem has constraints.  The
    initial population counts against the budget; the returned front is the
    (feasibility-first) non-dominated set over all evaluations.
    """
    cfg.validate()
    if constrained is None:
        constrained = problem.n_constraints > 0
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    generations = (cfg.budget - cfg.pop_size) // cfg.lambda_
    log = EvaluationLog(cfg.pop_size + generations * cfg.lambda_, problem)
    everything: list[Solution] = []

    def logged_eval(x: np.ndarray) -> Optional[Solution]:
        sol = evaluate_solution(problem, x, len(log))
        log.record(0, x, sol, np.nan)
        if sol is not None:
            everything.append(sol)
        return sol

    initial = [logged_eval(rng.uniform(problem.lower, problem.upper))
               for _ in range(cfg.pop_size)]
    pop = [sol for sol in initial if sol is not None]
    for _ in range(generations):
        pop = step(pop, rng, logged_eval, constrained)

    return RunResult(front=best_front(everything), log=log, config=asdict(cfg),
                     wall_time=time.perf_counter() - start,
                     n_evaluations=len(log))


def run_nsga2(problem: ProblemSpec, cfg: GAConfig,
              constrained: Optional[bool] = None) -> RunResult:
    return _run(problem, cfg, constrained, lambda pop, rng, evaluator, constrained: nsga2_step(
        pop, cfg, problem, rng, evaluator, constrained))


def run_nsga3(problem: ProblemSpec, cfg: GAConfig, constrained: Optional[bool] = None,
              dirs: Optional[ReferenceDirectionSet] = None) -> RunResult:
    if dirs is None:
        dirs = das_dennis(problem.n_obj, default_divisions(problem.n_obj, cfg.pop_size))
    return _run(problem, cfg, constrained, lambda pop, rng, evaluator, constrained: nsga3_step(
        pop, cfg, problem, rng, evaluator, constrained, dirs))
