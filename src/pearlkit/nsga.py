"""NSGA-II and NSGA-III generational baselines.

Variation is a (mu, lambda) evolution strategy: blend crossover applied
with probability ``cxpb`` and per-gene Gaussian mutation applied with
probability ``mutpb``, both clamped to the box.  Survivor selection merges
parents and offspring, sorts by non-domination (feasibility first, as
everywhere in the package), and resolves the last partial front by
crowding (NSGA-II) or reference-direction niching (NSGA-III).  The
population is an array of rows of the run's ``EvaluationLog``, which holds
the run's problem and evaluates each generation's offspring as one block;
the selection steps work on the log's objective and violation rows.  From
the initial sort on, the population lies in front blocks, best first, so
parent selection never sorts.  The reported front is the log rows of the
non-dominated set of every evaluation ever made, not just the final
population.  A failed evaluation is logged with NaN objectives and left out
of the population, as in the trainer, so the population may shrink.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .density import (associate, best_first, crowding_rank, das_dennis, default_divisions,
                      minmax_normalize)
from .pareto import _positive_int, _real, non_dominated_sort
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
        for key in ("budget", "lambda_", "mu", "pop_size"):
            _positive_int(key, getattr(self, key))
        for key in ("mutpb", "cxpb"):
            _real(key, getattr(self, key), "in [0, 1]")
        if self.mu > self.lambda_:
            raise ValueError("mu must not exceed lambda_")
        if self.pop_size < 2:
            raise ValueError("population must hold at least 2 individuals")
        if self.budget < self.pop_size + self.lambda_:
            raise ValueError("budget must cover the initial population and one generation")
        return self


def _selection_order(F: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Positions of the rows ``F`` ordered best-first: by front, then density
    inside each front.  The rows lie in front blocks, best first, of the
    lengths ``sizes``, as the initial sort and survivor selection leave them.
    """
    ends = np.cumsum(sizes).tolist()
    return np.concatenate([end - size + crowding_rank(F[end - size:end]).order
                           for size, end in zip(sizes, ends)])


BLEND_ALPHA = 0.5  # blend crossover draws gamma from [-alpha, 1 + alpha]
SIGMA_FRACTION = 0.1  # mutation sigma as a fraction of box width


def _variation(parents: np.ndarray, cfg: GAConfig, problem: ProblemSpec,
               rng: np.random.Generator) -> np.ndarray:
    """lambda_ offspring decision vectors, one per row, from the parents'
    decision vectors (one per row).

    Offspring ``k`` is parent ``i``, blended with parent ``j`` with
    probability ``cxpb`` and then given Gaussian noise with probability
    ``mutpb``, and clamped to the box.  Each draw is made once for the whole
    block, in this order: the parent pairs ``(2, lambda_)``, the crossover
    coins, the blend weights ``(lambda_, n_x)``, the mutation coins and the
    standard-normal noise ``(lambda_, n_x)``.  Rows that are not crossed or
    not mutated leave their draws unused.
    """
    n, n_x = cfg.lambda_, problem.n_x
    i, j = rng.integers(0, len(parents), size=(2, n))
    crossed = rng.random(n) < cfg.cxpb
    gamma = (1.0 + 2.0 * BLEND_ALPHA) * rng.random((n, n_x)) - BLEND_ALPHA
    mutated = rng.random(n) < cfg.mutpb
    noise = SIGMA_FRACTION * (problem.upper - problem.lower) * rng.standard_normal((n, n_x))
    out = parents[i]
    out[crossed] = ((1.0 - gamma) * out + gamma * parents[j])[crossed]
    out[mutated] += noise[mutated]
    return np.clip(out, problem.lower, problem.upper, out=out)


def _fill_fronts(F: np.ndarray, cv: np.ndarray,
                 n: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Positions of the whole fronts that fit into ``n`` slots, best first,
    the lengths of those fronts, and the positions of the first front that
    does not fit (empty when every front fits)."""
    fronts = non_dominated_sort(F, cv)
    sizes, taken = [], 0
    for front in fronts:
        if taken + len(front) > n:
            break
        sizes.append(len(front))
        taken += len(front)
    ranked = np.concatenate(fronts)
    last = fronts[len(sizes)] if len(sizes) < len(fronts) else ranked[:0]
    return ranked[:taken], sizes, last


def _survivors_nsga2(F: np.ndarray, cv: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Positions of the ``n`` survivors among the rows ``F`` (all of them
    when fewer): whole fronts, then the least crowded of the first front
    that does not fit; and the lengths of the survivors' fronts.

    The survivors' fronts lie in blocks, best first.  A block lists its rows
    in the order ``non_dominated_sort`` of the survivors would, so the next
    generation's parent selection need not sort again.
    """
    chosen, sizes, last = _fill_fronts(F, cv, n)
    need = n - len(chosen)
    if need and len(last):
        ranked = crowding_rank(F[last]).order
        chosen = np.concatenate([chosen, last[ranked[:need]]])
        sizes.append(need)
    return chosen, sizes


def _survivors_nsga3(F: np.ndarray, cv: np.ndarray, n: int,
                     dirs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """As ``_survivors_nsga2``, with the first front that does not fit cut
    down by niching on the reference directions ``dirs``."""
    chosen, sizes, last = _fill_fronts(F, cv, n)
    need = n - len(chosen)
    if need and len(last):
        chosen = np.concatenate([chosen, _niche_picks(F, chosen, last, need, dirs)])
        sizes.append(need)
    return chosen, sizes


def _niche_picks(F: np.ndarray, chosen: np.ndarray, last: np.ndarray, need: int,
                 dirs: np.ndarray) -> np.ndarray:
    """Positions of the ``need`` members of the front ``last`` (``need <
    len(last)``) that best fill the niches the positions ``chosen`` leave
    least filled, in the order they are picked.

    Each pick is the best-first candidate (closest to its direction) among
    the untaken ones of the least-filled niches; a tie in niche count goes to
    the candidate earliest in best-first order.  Each niche's candidates wait
    in best-first order, and a heap holds one entry per niche that still has
    one: the niche's count and the best-first position of its next
    candidate.  A pick changes only its own niche's count and next
    candidate, so every other entry stays valid.
    """
    start = len(chosen)
    objs = F[np.concatenate([chosen, last])]
    niche, dist = associate(minmax_normalize(objs, objs.min(axis=0), objs.max(axis=0)), dirs)
    counts = np.bincount(niche[:start], minlength=len(dirs))

    candidates = best_first(objs[start:], dist[start:])
    niches = niche[start:][candidates].tolist()
    waiting: dict[int, list[int]] = {}
    for pos in range(len(niches) - 1, -1, -1):
        waiting.setdefault(niches[pos], []).append(pos)  # best first at the end
    heap = [(int(counts[k]), queue.pop(), k) for k, queue in waiting.items()]
    heapq.heapify(heap)
    picks = np.empty(need, dtype=np.intp)
    for i in range(need):
        count, pos, k = heapq.heappop(heap)
        picks[i] = pos
        if waiting[k]:
            heapq.heappush(heap, (count + 1, waiting[k].pop(), k))
    return last[candidates[picks]]


def _offspring(pop: np.ndarray, sizes: list[int], log: EvaluationLog, cfg: GAConfig,
               rng: np.random.Generator) -> np.ndarray:
    """The log rows of one generation's offspring that evaluated successfully."""
    order = _selection_order(log.F[pop], sizes)
    return log.evaluate(0, _variation(log.X[pop[order[: cfg.mu]]], cfg, log.problem, rng))


def nsga2_step(pop: np.ndarray, sizes: list[int], log: EvaluationLog, cfg: GAConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """One generation: ES variation, merge with parents, crowded selection.

    ``pop`` and the returned population are rows of ``log``; the offspring
    are evaluated into ``log`` as one block (``log.evaluate``), and those
    that succeed join the pool.  ``pop`` lies in front blocks, best first,
    of the lengths ``sizes``, as ``_run``'s initial sort or the previous
    step left it.  Returns the new population and the lengths of its front
    blocks.
    """
    pool = np.concatenate([pop, _offspring(pop, sizes, log, cfg, rng)])
    chosen, sizes = _survivors_nsga2(log.F[pool], log.cv[pool], cfg.pop_size)
    return pool[chosen], sizes


def nsga3_step(pop: np.ndarray, sizes: list[int], log: EvaluationLog, cfg: GAConfig,
               rng: np.random.Generator,
               dirs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """One generation: ES variation, merge with parents, niching selection;
    arguments and result as in ``nsga2_step``."""
    pool = np.concatenate([pop, _offspring(pop, sizes, log, cfg, rng)])
    chosen, sizes = _survivors_nsga3(log.F[pool], log.cv[pool], cfg.pop_size, dirs)
    return pool[chosen], sizes


def _run(problem: ProblemSpec, cfg: GAConfig, step) -> RunResult:
    """Full generational run under a shared evaluation budget; ``step`` is
    ``nsga2_step`` or ``nsga3_step`` with its directions bound.

    The initial population counts against the budget; the returned front is
    ``log.front()``, the (feasibility-first) non-dominated rows of all
    evaluations.
    """
    cfg.validate()
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    generations = (cfg.budget - cfg.pop_size) // cfg.lambda_
    log = EvaluationLog(cfg.pop_size + generations * cfg.lambda_, problem)
    pop = log.evaluate(0, rng.uniform(problem.lower, problem.upper, (cfg.pop_size, problem.n_x)))
    # the one sort for parent selection: it puts the initial population in
    # front blocks, and each step returns the blocks its survivor selection found
    chosen, sizes, _ = _fill_fronts(log.F[pop], log.cv[pop], len(pop))
    pop = pop[chosen]
    for _ in range(generations):
        pop, sizes = step(pop, sizes, log, cfg, rng)

    return RunResult(front=log.front(), log=log, wall_time=time.perf_counter() - start)


def run_nsga2(problem: ProblemSpec, cfg: GAConfig) -> RunResult:
    return _run(problem, cfg, nsga2_step)


def run_nsga3(problem: ProblemSpec, cfg: GAConfig,
              dirs: Optional[np.ndarray] = None) -> RunResult:
    if dirs is None:
        dirs = das_dennis(problem.n_obj, default_divisions(problem.n_obj, cfg.pop_size))
    return _run(problem, cfg, partial(nsga3_step, dirs=dirs))
