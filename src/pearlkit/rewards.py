"""Reward-assignment engines for single-policy Pareto-front learning.

Four engines turn an evaluation into the scalar reward an agent trains on.
Each reads the evaluation from its row of the run's ``EvaluationLog``
(``score(log, row)``):

* ``PearlEnvelope`` scalarizes against Dirichlet-sampled preference rays,
  optionally adding a uniformity term (cosine alignment or a negated
  KL non-uniformity penalty).
* ``PearlEpsilon`` ranks the candidate inside a bounded archive by an
  additive-epsilon indicator fitness.
* ``PearlNds`` ranks the candidate by a density ranker (crowding or
  niching) inside a bounded archive.
* ``CurriculumConstrained`` wraps any of the above: infeasible samples are
  paid a distance-to-feasibility penalty minus a bonus gap, feasible ones
  are forwarded to the inner engine whose archive then only ever holds
  feasible solutions.  The rank-based alternative ("crowding2"/"niching2")
  is ``PearlNds`` itself: every archive ranks feasibility first.

Every engine is single-owner state: one instance per rollout worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from .density import (DensityRank, best_first, crowding_rank, das_dennis, default_divisions,
                      minmax_normalize, niching_rank)
from .pareto import FEASIBILITY_TOL, ParetoArchive, _positive_int, _real

if TYPE_CHECKING:
    from .trainer import EvaluationLog

KAPPA = 64  # default archive size of the rank engines


def constraint_violation(values, weights=None) -> float | np.ndarray:
    """Weighted squared distance from the feasible region.

    The entries are raw ``g(x) <= 0`` constraint values and contribute
    ``max(0, g_i)**2``, weighted by ``weights`` (default 1).  Violations
    below FEASIBILITY_TOL count as satisfied, so the result is 0 exactly for
    feasible inputs, and a NaN entry gives a NaN violation, never a
    satisfied constraint.  ``values`` is one row, which gives a float, or an
    ``(n, m)`` block, which gives the ``n`` row violations as an array: the
    same expression reduced along the last axis, so each equals its row's
    own call bit for bit.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    squares = np.where(v <= FEASIBILITY_TOL, 0.0, v) ** 2  # a NaN entry stays NaN
    if weights is not None:  # None is unit weights: multiplying by 1.0 is exact
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != v.shape[-1:]:
            raise ValueError("weights must match the constraint vector length")
        if np.any(w <= 0):
            raise ValueError("constraint weights must be strictly positive")
        squares = w * squares
    total = np.add.reduce(squares, axis=-1)
    return float(total) if v.ndim == 1 else total


def sample_preferences(alpha, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` preference vectors from Dirichlet(alpha), one per row,
    with numpy's sampler: each row is nonnegative and sums to 1, and a small
    ``alpha`` puts nearly all of a row's mass on one component.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("Dirichlet concentration entries must be positive and finite")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return rng.dirichlet(a, size=count)


def cosine_uniformity(w: np.ndarray, r: np.ndarray) -> float:
    """Cosine alignment between a preference ray and an objective profile.

    Defined as 0 when either vector has zero norm (degenerate all-zero
    rewards; removable singularity).
    """
    nw = float(np.linalg.norm(w))
    nr = float(np.linalg.norm(r))
    if nw == 0.0 or nr == 0.0:
        return 0.0
    return float(np.dot(w, r) / (nw * nr))


def kl_uniformity(w: np.ndarray, r: np.ndarray) -> float:
    """Negated KL divergence of the weighted profile from uniform.

    The profile is ``p_i = w_i r_i / sum_k w_k r_k``.  The result is 0 when
    the profile is uniform and negative otherwise, so larger always means
    better aligned.  When the profile is not a valid distribution (negative
    entries or zero total mass) the term is defined as 0.
    """
    q = np.asarray(w, dtype=float) * np.asarray(r, dtype=float)
    total = float(q.sum())
    if total <= 0.0 or np.any(q < 0):
        return 0.0
    p = q / total
    nz = p > 0
    kl = float(np.sum(p[nz] * np.log(p[nz] * p.size)))
    return -kl


_UNIFORMITY = {"cos": cosine_uniformity, "kl": kl_uniformity}


def pearl_e_reward(r, rays, lambda_: float, uniformity: str = "cos") -> float:
    """Envelope reward: best scalarization over the active preference rays.

    ``max_j (w_j . r + lambda * u(w_j, r))`` with ``u`` the configured
    uniformity term.
    """
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    if rays.shape[0] == 0:
        raise ValueError("need at least one preference ray")
    try:
        u = _UNIFORMITY[uniformity]
    except KeyError:
        raise ValueError(f"unknown uniformity kind: {uniformity!r}") from None
    r = np.asarray(r, dtype=float)
    best = -math.inf
    for w in rays:
        value = float(np.dot(w, r))
        if lambda_ != 0.0:
            value += lambda_ * u(w, r)
        best = max(best, value)
    return best


def epsilon_fitness(normalized: np.ndarray, nu: float) -> np.ndarray:
    """Indicator-based fitness of every member of a set.

    ``F(x) = sum_{y != x} -exp(-I(y, x) / nu)`` where
    ``I(y, x) = max_k (y_k - x_k)`` is the smallest shift that makes ``y``
    weakly dominate ``x``.  Higher fitness means the member is less
    threatened by the rest of the set.
    """
    f = np.atleast_2d(np.asarray(normalized, dtype=float))
    ind = np.max(f[:, None, :] - f[None, :, :], axis=2)  # ind[y, x] = I(y, x)
    contrib = np.exp(-ind / nu)
    return -(contrib.sum(axis=0) - 1.0)  # drop the self term exp(0)


class RunningBounds:
    """Componentwise min/max of every objective vector seen so far."""

    def __init__(self):
        self.lo: Optional[np.ndarray] = None
        self.hi: Optional[np.ndarray] = None

    def update(self, v: np.ndarray):
        v = np.asarray(v, dtype=float)
        if self.lo is None:
            self.lo = v.copy()
            self.hi = v.copy()
        else:
            np.minimum(self.lo, v, out=self.lo)
            np.maximum(self.hi, v, out=self.hi)

    def normalize(self, v: np.ndarray) -> np.ndarray:
        """Min-max map of a vector, or of a matrix of stacked vectors, to
        [0, 1]; degenerate ranges collapse to 0."""
        if self.lo is None:
            return np.zeros_like(np.asarray(v, dtype=float))
        return minmax_normalize(v, self.lo, self.hi)


@dataclass
class RewardOutcome:
    """Scalar reward for one scored solution, and whether it was archived."""

    reward: float
    archived: bool


class PearlEnvelope:
    """Preference-conditioned scalarization engine (no archive).

    The reward depends only on the scored objectives, the active rays and
    the running bounds, so nothing is archived.  ``resample`` must be called
    before the first ``score`` and is meant to run at batch boundaries (one
    ray set per rollout segment).

    The engine scalarizes the reward ``r = -f``, the negated costs, or with
    ``normalized_obj`` that reward min-max normalized by the running bounds.
    The ``kl`` uniformity term is 0 whenever every cost is nonnegative
    (``w * r`` then has no positive mass), as on every shipped problem,
    unless ``normalized_obj`` is set.
    """

    reward_scale = 1.0
    # scalarization rewards stay informative everywhere, so wider action
    # noise pays off; rank rewards prefer a narrower default (see below)
    default_log_std = -0.5

    def __init__(self, n_obj: int, alpha=1.0, lambda_: float = 1.0,
                 uniformity: str = "cos", normalized_obj: bool = False, n_rays: int = 1):
        # one concentration for every objective, or one per objective
        alpha = np.array([_real("alpha", a, "positive and finite")
                          for a in (alpha if np.ndim(alpha) else [alpha])])
        if alpha.size == 1:
            alpha = np.full(n_obj, float(alpha[0]))
        if alpha.size != n_obj:
            raise ValueError("alpha length must match the objective count")
        if uniformity not in _UNIFORMITY:
            raise ValueError(f"unknown uniformity kind: {uniformity!r}")
        self.n_obj = n_obj
        self.alpha = alpha
        self.lambda_ = _real("lambda", lambda_, "finite")
        self.uniformity = uniformity
        self.normalized_obj = normalized_obj
        self.n_rays = _positive_int("n_rays", n_rays)
        self.rays: Optional[np.ndarray] = None
        self.bounds = RunningBounds()

    def observation(self) -> np.ndarray:
        if self.rays is None:
            raise RuntimeError("resample() must run before the engine is observed")
        return self.rays.ravel().copy()

    def resample(self, rng: np.random.Generator):
        self.rays = sample_preferences(self.alpha, self.n_rays, rng)

    def score(self, log: EvaluationLog, row: int) -> RewardOutcome:
        """Reward of the evaluation at ``row`` of ``log``; never archived."""
        if self.rays is None:
            raise RuntimeError("resample() must run before scoring")
        r = -log.F[row]  # a cost becomes a reward
        if self.normalized_obj:  # nothing else reads the bounds
            self.bounds.update(r)
            r = self.bounds.normalize(r)
        reward = pearl_e_reward(r, self.rays, self.lambda_, self.uniformity)
        return RewardOutcome(reward=reward, archived=False)


class _RankedEngine:
    """Shared machinery for the archive-rank engines."""

    default_log_std = -0.75

    def __init__(self, kappa: int):
        self.kappa = _positive_int("kappa", kappa)
        self.reward_scale = float(kappa)
        self.archive = ParetoArchive(capacity=self.kappa)

    def observation(self) -> np.ndarray:
        # rank engines contribute nothing to the policy observation
        return np.empty(0)

    def resample(self, rng: np.random.Generator):
        pass

    def _ranker(self, objs: np.ndarray) -> DensityRank:
        raise NotImplementedError

    def score(self, log: EvaluationLog, row: int) -> RewardOutcome:
        """Minus the archive rank of the evaluation at ``row`` of ``log``, or
        ``-kappa`` when the archive rejects it."""
        rank = self.archive.insert(log.F[row], log.cv[row], row, self._ranker)
        if rank is None:
            return RewardOutcome(reward=-float(self.kappa), archived=False)
        return RewardOutcome(reward=-float(rank), archived=rank < self.kappa)


class PearlEpsilon(_RankedEngine):
    """Additive-epsilon indicator ranking inside a bounded archive.

    Fitness is computed on objectives min-max normalized by the running
    bounds of everything the engine has seen; equal fitness breaks
    lexicographically on the raw objective vector.
    """

    def __init__(self, kappa: int = KAPPA, nu: float = 0.05):
        super().__init__(kappa)
        self.nu = _real("nu", nu, "positive and finite")
        self.bounds = RunningBounds()

    def _ranker(self, objs: np.ndarray) -> DensityRank:
        fitness = epsilon_fitness(self.bounds.normalize(objs), self.nu)
        return DensityRank(order=best_first(objs, -fitness), scores=fitness)

    def score(self, log: EvaluationLog, row: int) -> RewardOutcome:
        self.bounds.update(log.F[row])
        return super().score(log, row)


class PearlNds(_RankedEngine):
    """Density ranking (crowding or niching) inside a bounded archive.

    On a constrained problem this is the rank-based constraint handling: the
    archive ranks feasibility first, so a single feasible solution displaces
    every infeasible one.
    """

    def __init__(self, kappa: int = KAPPA, ranker: str = "crowding",
                 n_obj: Optional[int] = None):
        super().__init__(kappa)
        # bound once: the instance attribute stands in for ``_ranker``
        if ranker == "crowding":
            self._ranker = crowding_rank
        elif ranker == "niching":
            if n_obj is None:
                raise ValueError("niching needs n_obj")
            dirs = das_dennis(n_obj, default_divisions(n_obj, kappa))
            self._ranker = partial(niching_rank, dirs=dirs)
        else:
            raise ValueError(f"unknown ranker: {ranker!r}")


class CurriculumConstrained:
    """Two-stage constrained engine: reach feasibility first, then rank.

    Infeasible solutions earn ``-(sum_i gammas_i * phi_i) - M`` and never
    touch the archive; feasible ones are forwarded to the inner engine.  The
    bonus gap ``M`` defaults to the inner buffer size ``kappa``; with ``M``
    at least that size, every infeasible reward sits strictly below every
    feasible one.  ``gammas`` weights the constraints (one positive weight
    per constraint; unit weights by default).
    """

    def __init__(self, inner, M: Optional[float] = None, gammas=None):
        self.inner = inner
        if M is None:
            if not hasattr(inner, "kappa"):
                raise ValueError("M must be given explicitly for this inner engine")
            M = inner.kappa
        self.M = _real("M", M, "nonnegative and finite")
        if gammas is not None:
            gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
            if gammas.ndim != 1 or not np.all(np.isfinite(gammas) & (gammas > 0)):
                raise ValueError(f"gammas must be positive finite weights, not {gammas.tolist()}")
        self.gammas = gammas
        self.reward_scale = (
            float(inner.reward_scale) if inner.reward_scale != 1.0 else max(1.0, self.M)
        )
        self.default_log_std = inner.default_log_std

    def observation(self) -> np.ndarray:
        return self.inner.observation()

    def resample(self, rng: np.random.Generator):
        self.inner.resample(rng)

    def score(self, log: EvaluationLog, row: int) -> RewardOutcome:
        if log.cv[row] == 0:
            return self.inner.score(log, row)
        cv = constraint_violation(log.G[row], weights=self.gammas)
        return RewardOutcome(reward=-cv - self.M, archived=False)
