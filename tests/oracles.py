"""Independent oracle implementations used to cross-check the library.

Everything here is written deliberately as plain scalar loops, separate from
the vectorized library code paths.
"""

import csv
import itertools
import math
from typing import NamedTuple

import numpy as np


def brute_force_dominates(a, b):
    """Dominance (minimization) by explicit componentwise loop."""
    at_least_as_good = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def brute_force_front_indices(objs, dominates_fn):
    """Indices of the non-dominated members by exhaustive pairwise checks."""
    front = []
    for i in range(len(objs)):
        if not any(dominates_fn(objs[j], objs[i]) for j in range(len(objs)) if j != i):
            front.append(i)
    return front


def non_dominated_mask_scalar(points):
    """Scalar reference for ``non_dominated_mask`` (minimization).

    One dominance check of each point against the points kept so far, in
    lexicographic order; then, in input order, only the first occurrence of
    each non-dominated row stays (``0.0`` and ``-0.0`` are one value).
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.lexsort(pts.T[::-1])
    kept = np.empty((n, pts.shape[1]))
    n_kept = 0
    for i in order:
        p = pts[i]
        if n_kept:
            view = kept[:n_kept]
            dom = np.all(view <= p, axis=1) & np.any(view < p, axis=1)
            if bool(dom.any()):
                continue
        mask[i] = True
        kept[n_kept] = p
        n_kept += 1
    seen = set()
    for i in range(n):
        key = tuple(pts[i].tolist())
        if mask[i] and key in seen:
            mask[i] = False
        seen.add(key)
    return mask


def unique_rows(points):
    """The distinct rows of ``points`` in lexicographic order and the index
    of each one's first occurrence, from ``np.unique(axis=0,
    return_index=True)``: the reference for ``pareto._first_occurrences``."""
    return np.unique(np.asarray(points, dtype=float), axis=0, return_index=True)


# Demsar (JMLR 7, 2006), Table 5: the Nemenyi critical values q_alpha for
# k = 2..10 treatments, studentized-range quantiles over infinite degrees of
# freedom divided by sqrt(2), so that CD = q_alpha * sqrt(k (k+1) / (6 n)).
DEMSAR_Q = {
    0.05: [1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164],
    0.10: [1.645, 2.052, 2.291, 2.460, 2.589, 2.693, 2.780, 2.855, 2.920],
}
# The table divides three-decimal quantiles by sqrt(2) and rounds again, so an
# entry may carry both roundings' error: k = 3 and k = 7 at 0.05 sit 7.0e-4
# and 6.8e-4 from the exact value, and each is what that procedure gives.
DEMSAR_Q_TOL = 5e-4 * (1.0 + 1.0 / math.sqrt(2.0))


def log_front_scalar(F, cv):
    """Scalar reference for ``EvaluationLog.front``: the rows whose ``cv`` is
    not NaN; of them the feasible ones, or when none is feasible those of
    least violation; of those, each row no other dominates, unless an
    earlier one has the same objectives.  Returns ascending row numbers."""
    ok = [i for i in range(len(cv)) if not math.isnan(cv[i])]
    if not ok:
        return []
    least = min(cv[i] for i in ok)
    pool = [i for i in ok if cv[i] == least]
    front = []
    for i in pool:
        dominated = any(brute_force_dominates(F[j], F[i]) for j in pool)
        repeated = any(list(F[j]) == list(F[i]) for j in pool if j < i)
        if not dominated and not repeated:
            front.append(i)
    return front


def rollout_per_worker(policy, workers, cfg, log):
    """Reference for ``trainer.rollout``: one policy and one value pass per
    worker, each worker evaluated and scored before the next one draws.
    A failed evaluation or a non-finite reward is paid, row by row, the
    lower of ``-reward_scale`` and the lowest finite reward of the batch."""
    from pearlkit.trainer import RolloutBatch, gaussian_log_prob, squash

    n = cfg.n_steps
    first = len(log)
    problem = log.problem
    parts = []
    for worker in workers:
        worker.engine.resample(worker.rng)
        latent = worker.rng.uniform(0.0, 1.0, size=(n, problem.n_x))
        obs = np.hstack([latent, np.tile(worker.engine.observation(), (n, 1))])
        mean, log_std = policy.policy_heads(obs)
        std = np.exp(log_std)
        z = mean + std * worker.rng.standard_normal((n, policy.act_dim))
        for x in problem.lower + (problem.upper - problem.lower) * squash(z):
            for row in log.evaluate(worker.index, x[None, :]):
                log.reward[row] = worker.engine.score(log, row).reward
        parts.append((obs, z, gaussian_log_prob(z, mean, log_std), policy.value(obs),
                      np.full(n, float(worker.engine.reward_scale))))
    obs, z, gauss_logp, values, scales = map(np.concatenate, zip(*parts))
    finite = [float(r) for r in log.reward[first:len(log)] if math.isfinite(r)]
    for i in range(len(scales)):
        if not math.isfinite(log.reward[first + i]):
            log.reward[first + i] = min([-scales[i]] + finite)
    return RolloutBatch(observations=obs, pre_squash=z,
                        rewards=log.reward[first:len(log)] / scales,
                        gauss_log_probs=gauss_logp, values=values)


class Member(NamedTuple):
    """An archive member: objectives, violation and evaluation-log row."""

    f: tuple
    cv: float
    row: int


class OracleArchive:
    """Scalar reference for ``ParetoArchive``: one relation call per member,
    feasibility first (``constrained_dominates_scalar``).

    ``add`` and ``insert`` take and return what the library's methods take
    and return, and leave the members in the same order, except that the
    ranker of ``insert`` is a scalar oracle returning ``(order, scores)``,
    such as ``crowding_rank_scalar``.
    """

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.members = []

    @staticmethod
    def rel(a, b):
        return constrained_dominates_scalar(a.f, a.cv, b.f, b.cv)

    def rows(self):
        return [m.row for m in self.members]

    def _rejects(self, new):
        # dominated by a member, or a duplicate of a member it does not beat
        for m in self.members:
            if self.rel(m, new):
                return True
            if m.f == new.f and not self.rel(new, m):
                return True
        return False

    def _admit(self, f, cv, row):
        new = Member(tuple(float(v) for v in f), float(cv), row)
        if self._rejects(new):
            return False
        self.members = [m for m in self.members if not self.rel(new, m)]
        self.members.append(new)
        return True

    def add(self, f, cv, row):
        kept = self._admit(f, cv, row)
        if self.capacity is not None and len(self.members) > self.capacity:
            raise RuntimeError("bounded archive overflow")
        return kept

    def insert(self, f, cv, row, ranker):
        if not self._admit(f, cv, row):
            return None
        order = [int(i) for i in ranker([m.f for m in self.members])[0]]
        pos = order.index(len(self.members) - 1)
        self.members = [self.members[i] for i in order][: self.capacity]
        return pos


def nearest_distances_scalar(points, targets, chebyshev=False):
    """Scalar reference for ``indicators._nearest_distances``: for each point, a loop over
    the targets with a sequential sum of squares and ``math.sqrt`` (or, with
    ``chebyshev``, the largest absolute coordinate difference), keeping the
    smallest."""
    nearest = []
    for p in np.asarray(points, dtype=float).tolist():
        best = math.inf
        for t in np.asarray(targets, dtype=float).tolist():
            if chebyshev:
                d = 0.0
                for a, b in zip(p, t):
                    d = max(d, abs(a - b))
            else:
                s = 0.0
                for a, b in zip(p, t):
                    s += (a - b) * (a - b)
                d = math.sqrt(s)
            best = min(best, d)
        nearest.append(best)
    return np.array(nearest)


def additive_epsilon_full(front, reference):
    """Reference for ``indicators.additive_epsilon``: the whole
    ``(front, reference)`` matrix of shifts ``max_i (a_i - z_i)``, one
    objective at a time, then ``max_z min_a``."""
    f = np.atleast_2d(np.asarray(front, dtype=float))
    z = np.atleast_2d(np.asarray(reference, dtype=float))
    shifts = f[:, None, 0] - z[None, :, 0]
    for k in range(1, f.shape[1]):
        np.maximum(shifts, f[:, None, k] - z[None, :, k], out=shifts)
    return float(np.max(np.min(shifts, axis=0)))


def monte_carlo_hypervolume(front, ref, n_samples, seed=0, chunk=2_000_000):
    """Monte-Carlo estimate of the dominated box-union volume (minimization).

    Returns (estimate, standard_error).
    """
    front = np.asarray(front, dtype=float)
    ref = np.asarray(ref, dtype=float)
    keep = np.all(front < ref, axis=1)
    front = front[keep]
    if front.size == 0:
        return 0.0, 0.0
    lo = front.min(axis=0)
    box = np.prod(ref - lo)
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        pts = rng.uniform(lo, ref, size=(m, len(ref)))
        cols = np.ascontiguousarray(pts.T)  # one contiguous row per objective
        dominated = np.zeros(m, dtype=bool)
        hit = np.empty(m, dtype=bool)
        ge = np.empty(m, dtype=bool)
        for p in front:
            np.greater_equal(cols[0], p[0], out=hit)
            for k in range(1, len(p)):
                np.greater_equal(cols[k], p[k], out=ge)
                hit &= ge
            dominated |= hit
        hits += int(dominated.sum())
        remaining -= m
    p_hat = hits / n_samples
    estimate = p_hat * box
    stderr = box * math.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / n_samples)
    return estimate, stderr


def grid_hypervolume(front, ref):
    """Exact dominated hypervolume (minimization) by counting grid cells.

    The distinct coordinates of the points that strictly dominate ``ref``,
    with ``ref`` itself, cut the box between them into a grid.  A cell lies
    in the dominated region exactly when some point weakly dominates its
    lower corner, and the volume is the sum of those cells' volumes.
    """
    ref = [float(r) for r in ref]
    points = [p for p in np.asarray(front, dtype=float).reshape(-1, len(ref)).tolist()
              if all(a < r for a, r in zip(p, ref))]
    edges = [sorted({p[k] for p in points} | {ref[k]}) for k in range(len(ref))]
    total = 0.0
    for cell in itertools.product(*(range(len(e) - 1) for e in edges)):
        corner = [edges[k][i] for k, i in enumerate(cell)]
        if any(all(a <= c for a, c in zip(p, corner)) for p in points):
            volume = 1.0
            for k, i in enumerate(cell):
                volume *= edges[k][i + 1] - edges[k][i]
            total += volume
    return total


def crowding_distances_direct(front):
    """Crowding distances straight from the textbook definition."""
    front = [tuple(map(float, row)) for row in front]
    n = len(front)
    m = len(front[0])
    dist = [0.0] * n
    for j in range(m):
        idx = sorted(range(n), key=lambda i: (front[i][j], front[i]))
        dist[idx[0]] = math.inf
        dist[idx[-1]] = math.inf
        span = front[idx[-1]][j] - front[idx[0]][j]
        if span <= 0:
            continue
        for pos in range(1, n - 1):
            if not math.isinf(dist[idx[pos]]):
                dist[idx[pos]] += (front[idx[pos + 1]][j] - front[idx[pos - 1]][j]) / span
    return dist


def crowding_rank_scalar(front):
    """Crowding order and distances with tuple-key sorts.

    Returns ``(order, distances)``: best first by larger distance, then smaller
    objective sum, then lexicographically smaller objective vector, then index.
    """
    f = [tuple(map(float, row)) for row in front]
    dist = crowding_distances_direct(f)
    order = sorted(range(len(f)), key=lambda i: (-dist[i], float(np.sum(f[i])), f[i]))
    return np.asarray(order, dtype=int), np.asarray(dist)


def crowding_rank_loop(front):
    """``density.crowding_rank`` as it was before its row keys were built once
    and each sorted column taken once: a fancy index per boundary, per span
    and per gap.  Returns ``(order, distances)``; the reference for the bytes
    of both, including NaN gaps from non-finite spans.
    """

    def best_first(f, *keys):
        return np.lexsort(tuple(f.T[::-1]) + keys[::-1])

    f = np.atleast_2d(np.asarray(front, dtype=float))
    n, m = f.shape
    dist = np.zeros(n)
    for j in range(m):
        idx = best_first(f, f[:, j])
        dist[idx[[0, -1]]] = math.inf
        span = f[idx[-1], j] - f[idx[0], j]
        if span > 0:
            dist[idx[1:-1]] += (f[idx[2:], j] - f[idx[:-2], j]) / span
    return best_first(f, -dist, f.sum(axis=1)), dist


def das_dennis_recursive(n_obj, divisions):
    """``density.das_dennis`` by recursion over the counts: each prefix
    ``k_1..k_i`` takes ``k_{i+1} = 0..left`` in turn, the last count is what
    is left, and every row is divided by ``divisions``."""
    rows = []

    def recurse(prefix, remaining, left):
        if remaining == 1:
            rows.append(prefix + [left])
            return
        for k in range(left + 1):
            recurse(prefix + [k], remaining - 1, left - k)

    recurse([], n_obj, divisions)
    return np.asarray(rows, dtype=float) / divisions


def minmax_scalar(row, lo, hi):
    """Min-max map of one vector, coordinate by coordinate; a degenerate
    range maps to 0."""
    return np.array([(v - a) / (b - a) if b - a > 0 else 0.0
                     for v, a, b in zip(row, lo, hi)])


def niching_rank_scalar(front, dirs):
    """Niching order and perpendicular distances with a tuple-key sort.

    Best first by smaller niche count, then smaller distance, then
    lexicographically smaller objective vector, then index.
    """
    from pearlkit.density import associate

    f = np.atleast_2d(np.asarray(front, dtype=float))
    lo, hi = f.min(axis=0), f.max(axis=0)
    normalized = np.vstack([minmax_scalar(row, lo, hi) for row in f])
    niche, dist = associate(normalized, dirs)
    counts = [0] * len(dirs)
    for k in niche:
        counts[k] += 1
    order = sorted(range(len(f)), key=lambda i: (counts[niche[i]], dist[i], tuple(f[i])))
    return np.asarray(order, dtype=int), dist


def epsilon_rank_scalar(objs, lo, hi, nu):
    """PearlEpsilon's order and fitness: rows normalized one at a time by the
    running bounds, best first by larger fitness, then lexicographically."""
    from pearlkit.rewards import epsilon_fitness

    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    normalized = np.vstack([minmax_scalar(row, lo, hi) for row in objs])
    fitness = epsilon_fitness(normalized, nu)
    order = sorted(range(len(objs)), key=lambda i: (-fitness[i], tuple(objs[i])))
    return np.asarray(order, dtype=int), fitness


def constrained_dominates_scalar(fa, cva, fb, cvb):
    """Feasibility-first dominance on one pair of rows: feasible beats
    infeasible, the lower violation wins between two infeasible rows, and
    plain dominance decides between two feasible ones."""
    if cva == 0.0 and cvb > 0.0:
        return True
    if cva > 0.0 and cvb == 0.0:
        return False
    if cva > 0.0:
        return cva < cvb
    return brute_force_dominates(fa, fb)


def non_dominated_fronts_scalar(f, cv):
    """Fronts of ascending row indices, peeled by exhaustive pairwise
    feasibility-first checks among the rows not yet placed."""
    def dom(i, j):
        return constrained_dominates_scalar(f[i], cv[i], f[j], cv[j])

    remaining = list(range(len(f)))
    fronts = []
    while remaining:
        front = [i for i in remaining if not any(dom(j, i) for j in remaining if j != i)]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def nsga3_survivors_scalar(f, cv, n, dirs):
    """Positions of the NSGA-III survivors among the rows ``f`` (violations
    ``cv``), with the fronts peeled pairwise and the niche fill written as
    repeated ``min`` calls.

    Whole fronts are taken while they fit; from the first front that does not
    fit, each pick is, among the least-filled niches that still have
    candidates, the candidate closest to its direction, then the
    lexicographically smaller objective vector, then the lower index.
    """
    from pearlkit.density import associate

    f = np.asarray(f, dtype=float)
    chosen, last = [], []
    for front in non_dominated_fronts_scalar(f, cv):
        if len(chosen) + len(front) > n:
            last = front
            break
        chosen.extend(front)
    need = n - len(chosen)
    if need == 0 or not last:
        return chosen
    considered = chosen + last
    objs = f[considered]
    lo, hi = objs.min(axis=0), objs.max(axis=0)
    normalized = np.vstack([minmax_scalar(row, lo, hi) for row in objs])
    niche, dist = associate(normalized, dirs)
    counts = [0] * len(dirs)
    for k in niche[: len(chosen)]:
        counts[k] += 1
    available = list(range(len(chosen), len(considered)))
    while need > 0 and available:
        min_count = min(counts[niche[c]] for c in available)
        pick = min(
            (c for c in available if counts[niche[c]] == min_count),
            key=lambda c: (dist[c], tuple(objs[c])),
        )
        chosen.append(considered[pick])
        counts[niche[pick]] += 1
        available.remove(pick)
        need -= 1
    return chosen


def niche_picks_scalar(F, chosen, last, need, dirs):
    """NSGA-III niche picks with one ``argmin`` per pick: among the untaken
    candidates in best-first order, the first of the least-filled niches;
    taken candidates are masked with a count no untaken one reaches."""
    from pearlkit.density import associate, best_first, minmax_normalize

    taken_count = np.iinfo(np.intp).max
    start = len(chosen)
    objs = F[np.concatenate([chosen, last])]
    niche, dist = associate(minmax_normalize(objs, objs.min(axis=0), objs.max(axis=0)), dirs)
    counts = np.bincount(niche[:start], minlength=len(dirs))
    candidates = best_first(objs[start:], dist[start:])
    niches = niche[start:][candidates]
    taken = np.zeros(len(candidates), dtype=bool)
    picks = np.empty(need, dtype=np.intp)
    for k in range(need):
        pick = np.argmin(np.where(taken, taken_count, counts[niches]))
        taken[pick] = True
        counts[niches[pick]] += 1
        picks[k] = candidates[pick]
    return last[picks]


def selection_order_sorted(F, cv):
    """Reference for ``nsga._selection_order``: the rows ``F`` (violations
    ``cv``) sorted afresh into fronts, then ordered by crowding inside each
    front, as parent selection did before every population was carried in
    front blocks."""
    from pearlkit.density import crowding_rank
    from pearlkit.pareto import non_dominated_sort

    return np.concatenate([front[crowding_rank(F[front]).order]
                           for front in non_dominated_sort(F, cv)])


def variation_scalar(parents, cfg, problem, rng):
    """NSGA offspring one at a time: parent ``i``, blended with parent ``j``
    with probability ``cxpb``, mutated with probability ``mutpb`` and
    clamped to the box.  The draws are ``_variation``'s five block draws,
    in its documented order: parent pairs, crossover coins, blend weights,
    mutation coins, noise."""
    from pearlkit.nsga import BLEND_ALPHA, SIGMA_FRACTION

    n, n_x = cfg.lambda_, problem.n_x
    lo, hi = problem.lower, problem.upper
    sigma = SIGMA_FRACTION * (hi - lo)
    pairs = rng.integers(0, len(parents), size=(2, n))
    cross = rng.random(n)
    weights = rng.random((n, n_x))
    mutate = rng.random(n)
    noise = rng.standard_normal((n, n_x))
    out = np.empty((n, n_x))
    for k in range(n):
        i, j = pairs[:, k]
        child = parents[i]
        if cross[k] < cfg.cxpb:
            gamma = (1.0 + 2.0 * BLEND_ALPHA) * weights[k] - BLEND_ALPHA
            child = (1.0 - gamma) * parents[i] + gamma * parents[j]
        if mutate[k] < cfg.mutpb:
            child = child + sigma * noise[k]
        out[k] = np.clip(child, lo, hi)
    return out


def adam_reference(params, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step on dicts of named arrays, one key at a time; updates
    ``params`` in place and ``m``/``v`` by key."""
    for key, g in grads.items():
        m[key] = beta1 * m[key] + (1 - beta1) * g
        v[key] = beta2 * v[key] + (1 - beta2) * g * g
        m_hat = m[key] / (1 - beta1**t)
        v_hat = v[key] / (1 - beta2**t)
        params[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def forward(params, prefix, obs):
    """The two-tanh-layer network whose weights start with ``prefix``
    (``"p"`` policy, ``"v"`` value), one network at a time: hidden
    activations and linear output."""
    h1 = np.tanh(obs @ params[prefix + "W1"] + params[prefix + "b1"])
    h2 = np.tanh(h1 @ params[prefix + "W2"] + params[prefix + "b2"])
    return h1, h2, h2 @ params[prefix + "W3"] + params[prefix + "b3"]


def backward(params, prefix, obs, h1, h2, d_out, grads):
    """Write into the named gradient views ``grads`` the weight gradients of
    ``forward(params, prefix, obs)`` given the output gradient."""
    grads[prefix + "W3"][...] = h2.T @ d_out
    grads[prefix + "b3"][...] = d_out.sum(axis=0)
    dh2 = d_out @ params[prefix + "W3"].T * (1.0 - h2**2)
    grads[prefix + "W2"][...] = h1.T @ dh2
    grads[prefix + "b2"][...] = dh2.sum(axis=0)
    dh1 = dh2 @ params[prefix + "W2"].T * (1.0 - h1**2)
    grads[prefix + "W1"][...] = obs.T @ dh1
    grads[prefix + "b1"][...] = dh1.sum(axis=0)


def loss_and_grad_per_network(policy, obs, z, gauss_logp_old, adv, returns, cfg):
    """Reference for ``trainer.loss_and_grad``: separate forward and backward
    passes of the policy and the value network over ``policy.params``, in
    whole-array numpy expressions."""
    from pearlkit.trainer import LOG_STD_MAX, LOG_STD_MIN, gaussian_log_prob

    p = policy.params
    B = obs.shape[0]
    grad = np.zeros(policy.flat.size)
    grads = policy.views(grad)

    h1, h2, mean = forward(p, "p", obs)
    log_std = np.clip(p["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    inv_var = np.exp(-2.0 * log_std)
    delta = z - mean
    logp = gaussian_log_prob(z, mean, log_std)
    ratio = np.exp(logp - gauss_logp_old)
    surr_raw = ratio * adv
    surr_clip = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv
    policy_loss = -float(np.mean(np.minimum(surr_raw, surr_clip)))

    use_raw = surr_raw < surr_clip
    inside = (ratio > 1.0 - cfg.clip_ratio) & (ratio < 1.0 + cfg.clip_ratio)
    d_logp = np.where(use_raw | inside, -adv / B, 0.0) * ratio
    d_mean = d_logp[:, None] * (delta * inv_var)
    std_mask = (p["log_std"] > LOG_STD_MIN) & (p["log_std"] < LOG_STD_MAX)
    d_log_std = np.sum(d_logp[:, None] * (delta**2 * inv_var - 1.0), axis=0)
    entropy = float(np.sum(log_std) + policy.act_dim * 0.5 * (1.0 + np.log(2 * np.pi)))
    d_log_std -= cfg.entropy_coef
    grads["log_std"][...] = np.where(std_mask, d_log_std, 0.0)
    backward(p, "p", obs, h1, h2, d_mean, grads)

    vh1, vh2, v_out = forward(p, "v", obs)
    err = v_out[:, 0] - returns
    value_loss = float(np.mean(err**2))
    dv = (2.0 * cfg.value_coef / B) * err
    backward(p, "v", obs, vh1, vh2, dv[:, None], grads)

    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    return loss, grad, {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}


def update_per_network(policy, batch, cfg, rng):
    """Reference for ``trainer.update``: each minibatch fancy-indexed from the
    batch by its ``np.array_split`` chunk of the epoch's permutation, its
    gradient from ``loss_and_grad_per_network``."""
    B = len(batch.rewards)
    returns = batch.rewards
    adv = returns - batch.values
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    for _ in range(cfg.epochs):
        for chunk in np.array_split(rng.permutation(B), cfg.minibatches):
            if len(chunk) == 0:
                continue
            loss, grad, _ = loss_and_grad_per_network(
                policy, batch.observations[chunk], batch.pre_squash[chunk],
                batch.gauss_log_probs[chunk], adv[chunk], returns[chunk], cfg)
            if not np.isfinite(loss):
                policy.learning_rate *= 0.5
                continue
            policy.adam_step(grad)
    policy.check_finite()
    return policy


def finite_difference_gradient(fn, params, h=1e-6):
    """Central finite differences of a scalar function of a parameter dict."""
    grads = {}
    for key, value in params.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn(params)
            flat[i] = orig - h
            f_minus = fn(params)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads[key] = g
    return grads


# --- independent transcriptions of the benchmark formulas (scalar style) ---

def dtlz2_scalar(x, n_obj=3):
    x = list(map(float, x))
    k = len(x) - n_obj + 1
    g = sum((xi - 0.5) ** 2 for xi in x[n_obj - 1:])
    f = []
    for i in range(n_obj):
        value = 1.0 + g
        for j in range(n_obj - 1 - i):
            value *= math.cos(x[j] * math.pi / 2)
        if i > 0:
            value *= math.sin(x[n_obj - 1 - i] * math.pi / 2)
        f.append(value)
    return f


def dtlz4_scalar(x, n_obj=3, alpha=100.0):
    y = [xi**alpha for xi in x[: n_obj - 1]] + list(x[n_obj - 1:])
    g = sum((xi - 0.5) ** 2 for xi in x[n_obj - 1:])
    f = []
    for i in range(n_obj):
        value = 1.0 + g
        for j in range(n_obj - 1 - i):
            value *= math.cos(y[j] * math.pi / 2)
        if i > 0:
            value *= math.sin(y[n_obj - 1 - i] * math.pi / 2)
        f.append(value)
    return f


def _dtlz5_like_scalar(x, g, n_obj=3):
    theta = [x[0] * math.pi / 2]
    for j in range(1, n_obj - 1):
        theta.append(math.pi / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * x[j]))
    f = []
    for i in range(n_obj):
        value = 1.0 + g
        for j in range(n_obj - 1 - i):
            value *= math.cos(theta[j])
        if i > 0:
            value *= math.sin(theta[n_obj - 1 - i])
        f.append(value)
    return f


def dtlz5_scalar(x, n_obj=3):
    g = sum((xi - 0.5) ** 2 for xi in x[n_obj - 1:])
    return _dtlz5_like_scalar(x, g, n_obj)


def dtlz6_scalar(x, n_obj=3):
    g = sum(xi**0.1 for xi in x[n_obj - 1:])
    return _dtlz5_like_scalar(x, g, n_obj)


def dtlz7_scalar(x, n_obj=3):
    tail = x[n_obj - 1:]
    g = 1.0 + 9.0 * sum(tail) / len(tail)
    f = list(x[: n_obj - 1])
    h = n_obj - sum(fi / (1.0 + g) * (1.0 + math.sin(3.0 * math.pi * fi)) for fi in f)
    f.append((1.0 + g) * h)
    return f


def c2dtlz2_constraint_scalar(f, r=0.5):
    total = sum(v * v for v in f)
    corner = min((fi - 1.0) ** 2 + (total - fi * fi) - r * r for fi in f)
    a = 1.0 / math.sqrt(len(f))
    center = sum((fi - a) ** 2 for fi in f) - r * r
    return min(corner, center)


def c2dtlz2_constraint_numpy(f, radius=0.5):
    """The array form of ``problems.c2dtlz2_constraint``, its bitwise
    reference: squares, sums and the corner minimum taken by numpy."""
    f = np.asarray(f, dtype=float)
    sq = f**2
    total = float(np.add.reduce(sq))
    corner = float(np.minimum.reduce((f - 1.0) ** 2 + (total - sq) - radius**2))
    center = total - 2.0 * float(np.add.reduce(f)) / math.sqrt(f.size) + 1.0 - radius**2
    return np.array([min(corner, center)])


def _hypersphere_numpy(angles, scale):
    cos = np.cos(angles).tolist()
    sin = np.sin(angles).tolist()
    prefix = [1.0]
    for c in cos:
        prefix.append(prefix[-1] * c)
    m = len(cos)
    return np.array([scale * prefix[m]]
                    + [scale * prefix[k] * sin[k] for k in range(m - 1, -1, -1)])


def _dtlz5_angles_numpy(xp, g):
    angles = np.empty_like(xp)
    angles[0] = xp[0] * np.pi / 2
    angles[1:] = np.pi / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * xp[1:])
    return angles


def dtlz2_numpy(x, n_obj=3):
    """The array forms of the ``problems.dtlz*_objectives``, their bitwise
    references: sums by ``np.add.reduce``, angles and sines by numpy."""
    x = np.asarray(x, dtype=float)
    xp, xm = x[: n_obj - 1], x[n_obj - 1:]
    g = float(np.add.reduce((xm - 0.5) ** 2))
    return _hypersphere_numpy(xp * np.pi / 2, 1.0 + g)


def dtlz4_numpy(x, n_obj=3, alpha=100.0):
    x = np.asarray(x, dtype=float)
    xp, xm = x[: n_obj - 1], x[n_obj - 1:]
    g = float(np.add.reduce((xm - 0.5) ** 2))
    return _hypersphere_numpy((xp ** alpha) * np.pi / 2, 1.0 + g)


def dtlz5_numpy(x, n_obj=3):
    x = np.asarray(x, dtype=float)
    xp, xm = x[: n_obj - 1], x[n_obj - 1:]
    g = float(np.add.reduce((xm - 0.5) ** 2))
    return _hypersphere_numpy(_dtlz5_angles_numpy(xp, g), 1.0 + g)


def dtlz6_numpy(x, n_obj=3):
    x = np.asarray(x, dtype=float)
    xp, xm = x[: n_obj - 1], x[n_obj - 1:]
    g = float(np.add.reduce(xm ** 0.1))
    return _hypersphere_numpy(_dtlz5_angles_numpy(xp, g), 1.0 + g)


def dtlz7_numpy(x, n_obj=3):
    x = np.asarray(x, dtype=float)
    xp, xm = x[: n_obj - 1], x[n_obj - 1:]
    g = 1.0 + 9.0 * (float(np.add.reduce(xm)) / xm.size)
    f = np.empty(n_obj)
    f[: n_obj - 1] = xp
    h = n_obj - float(np.add.reduce(xp / (1.0 + g) * (1.0 + np.sin(3.0 * np.pi * xp))))
    f[n_obj - 1] = (1.0 + g) * h
    return f


def in_box_numpy(problem, x):
    """The array form of ``evaluate``'s box test, 1e-9 slack on each face;
    a NaN coordinate fails it."""
    x = np.asarray(x, dtype=float)
    return bool(np.logical_and.reduce((x >= problem.lower - 1e-9)
                                      & (x <= problem.upper + 1e-9)))


def c3dtlz4_constraint_scalar(f):
    total = sum(v * v for v in f)
    return [1.0 - fi * fi / 4.0 - (total - fi * fi) for fi in f]


def ctp_constraint_scalar(f1, f2, theta, a, b, c, d, e):
    lhs = math.cos(theta) * (f2 - e) - math.sin(theta) * f1
    inner = math.sin(theta) * (f2 - e) + math.cos(theta) * f1
    signed_pow = math.copysign(abs(inner) ** c, inner)
    rhs = a * abs(math.sin(b * math.pi * signed_pow)) ** d
    return rhs - lhs


def write_evaluations_csv_scalar(log, path):
    """Scalar reference for ``write_evaluations_csv``: one ``csv.writer``
    row per step, each value formatted on its own as ``repr(float(v))``."""
    problem = log.problem

    def fmt(value):
        return repr(float(value))

    header = (["step", "worker"]
              + [f"x{i + 1}" for i in range(problem.n_x)]
              + [f"f{i + 1}" for i in range(problem.n_obj)]
              + [f"g{i + 1}" for i in range(problem.n_constraints)]
              + ["cv", "reward"])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for step in range(len(log)):
            writer.writerow(
                [step, int(log.worker[step])]
                + [fmt(v) for v in log.X[step]]
                + [fmt(v) for v in log.F[step]]
                + [fmt(v) for v in log.G[step]]
                + [fmt(log.cv[step]), fmt(log.reward[step])])
