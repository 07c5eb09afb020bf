"""Clipped-surrogate policy-gradient trainer for single-step problems.

The training problem is a continuous bandit: one action per episode, the
action is the decision vector, and the reward comes from a per-worker
engine that scores the evaluated objectives.  The policy is a small
feed-forward network emitting a diagonal Gaussian that is mapped onto the
unit box by a clipped linear map and from there linearly onto the problem's
box; a network of the same shape, stacked with it layer by layer so that
one pass serves both, provides the value baseline.  Everything runs in
float64 numpy so that gradients can be checked against finite differences.

Workers are independent-state objects: each owns its reward engine (and
the engine's archive, if it keeps one) and its RNG stream.  A rollout
evaluates the whole batch in one block and then scores each row with its
worker's engine (problem evaluation is pure, so this matches the fork-join
model without the process overhead); parameters are published to the
workers immutably between batches.  The archives only shape rewards: a run
reports the front of its whole evaluation log.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .pareto import _positive_int, _real, best_front
from .problems import ProblemSpec, ProblemSpecError, evaluate
from .rewards import constraint_violation

logger = logging.getLogger(__name__)

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class TrainerConfig:
    """Optimization hyperparameters; defaults are the conventional clipped
    surrogate settings with batches of n_steps x ncores transitions.

    Each single-step episode observes a fresh uniform latent vector of the
    decision dimension (the reset state of the one-step environment).
    Conditioning the policy on that latent lets a single network cover a
    whole front instead of collapsing to one Gaussian mode;
    preference-conditioned engines append their active rays to the
    observation.  Advantages are normalized within each batch.
    """

    n_steps: int = 32
    ncores: int = 8
    budget: int = 10_000
    learning_rate: float = 3e-4
    clip_ratio: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    epochs: int = 4
    minibatches: int = 4
    seed: int = 0
    hidden: int = 64
    # None: use the reward engine's preferred exploration width
    init_log_std: Optional[float] = None

    def batch_size(self) -> int:
        return self.n_steps * self.ncores

    def validate(self):
        for key in ("n_steps", "ncores", "budget", "epochs", "minibatches", "hidden"):
            _positive_int(key, getattr(self, key))
        rules = {"learning_rate": "positive and finite", "entropy_coef": "nonnegative and finite",
                 "value_coef": "nonnegative and finite", "clip_ratio": "nonnegative"}
        if self.init_log_std is not None:
            rules["init_log_std"] = "finite"
        for key, rule in rules.items():
            _real(key, getattr(self, key), rule)
        if self.budget < self.batch_size():
            raise ValueError("budget must cover at least one batch of evaluations")
        return self


class PolicyState:
    """Network parameters plus optimizer moments and a step counter.

    The parameters live in one float64 vector, ``flat``, as the blocks
    ``W1 (2, obs_dim, h)``, ``b1 (2, 1, h)``, ``W2 (2, h, h)``, ``b2 (2, 1, h)``
    (the two networks' hidden layers, 0 policy and 1 value), ``pW3``, ``pb3``,
    ``log_std``, ``vW3`` and ``vb3``.  The Adam moments ``m`` and ``v`` and
    every gradient share that layout.  ``blocks`` gives the blocks of such a
    vector, ``views`` each network's weights and biases by name (``params``
    for ``flat``).
    """

    def __init__(self, obs_dim: int, act_dim: int, cfg: TrainerConfig,
                 rng: np.random.Generator, init_log_std: float):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        h = cfg.hidden
        def dense(n_in, n_out, scale=1.0):
            return rng.normal(0.0, scale / np.sqrt(n_in), size=(n_in, n_out))

        # drawn in the order pW1, pW2, pW3, vW1, vW2, vW3
        pW1, pW2, pW3 = dense(obs_dim, h), dense(h, h), dense(h, act_dim, scale=0.01)
        vW1, vW2, vW3 = dense(obs_dim, h), dense(h, h), dense(h, 1, scale=0.01)
        arrays = {"W1": np.stack([pW1, vW1]), "b1": np.zeros((2, 1, h)),
                  "W2": np.stack([pW2, vW2]), "b2": np.zeros((2, 1, h)),
                  "pW3": pW3, "pb3": np.zeros(act_dim),
                  "log_std": np.full(act_dim, float(init_log_std)), "vW3": vW3, "vb3": np.zeros(1)}
        ends = np.cumsum([value.size for value in arrays.values()]).tolist()
        self._layout = [(key, slice(end - value.size, end), value.shape)
                        for (key, value), end in zip(arrays.items(), ends)]
        self.flat = np.concatenate([value.ravel() for value in arrays.values()])
        self.params = self.views(self.flat)
        self._blocks = self.blocks(self.flat)
        self._work = {}
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        self.adam_steps = 0
        self.learning_rate = cfg.learning_rate

    def blocks(self, flat: np.ndarray) -> dict:
        """The blocks of a vector laid out like ``self.flat``, as views."""
        return {key: flat[part].reshape(shape) for key, part, shape in self._layout}

    def views(self, flat: np.ndarray) -> dict:
        """Named views, per network, of a vector laid out like ``self.flat``."""
        b = self.blocks(flat)
        return {"pW1": b["W1"][0], "pb1": b["b1"][0, 0], "pW2": b["W2"][0], "pb2": b["b2"][0, 0],
                "pW3": b["pW3"], "pb3": b["pb3"], "log_std": b["log_std"],
                "vW1": b["W1"][1], "vb1": b["b1"][1, 0], "vW2": b["W2"][1], "vb2": b["b2"][1, 0],
                "vW3": b["vW3"], "vb3": b["vb3"]}

    def heads(self, obs: np.ndarray):
        """One pass of both networks: the ``(2, B, h)`` hidden stacks (work arrays
        the next pass over ``B`` rows overwrites, so no pass pages in fresh
        memory), the action mean, the clamped log-std and the values."""
        p = self._blocks
        if len(obs) not in self._work:
            self._work[len(obs)] = np.empty((2, 2, len(obs), p["W2"].shape[1]))
        h1, h2 = self._work[len(obs)]
        np.matmul(obs, p["W1"], out=h1)
        h1 += p["b1"]
        np.tanh(h1, out=h1)
        np.matmul(h1, p["W2"], out=h2)
        h2 += p["b2"]
        np.tanh(h2, out=h2)
        log_std = np.minimum(np.maximum(p["log_std"], LOG_STD_MIN), LOG_STD_MAX)
        return (h1, h2, h2[0] @ p["pW3"] + p["pb3"], log_std,
                (h2[1] @ p["vW3"] + p["vb3"])[:, 0])

    def policy_heads(self, obs: np.ndarray):
        """Action mean (pre-squash) and clamped per-dimension log-std."""
        return self.heads(obs)[2:4]

    def value(self, obs: np.ndarray) -> np.ndarray:
        return self.heads(obs)[4]

    def adam_step(self, grad: np.ndarray):
        """One Adam step on every parameter from the flat gradient ``grad``.

        Every vector is updated in place, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``flat -= lr * m_hat / (sqrt(v_hat) + eps)``.
        """
        self.adam_steps += 1
        t = self.adam_steps
        a, b = self._scratch
        np.multiply(self.m, _ADAM_BETA1, out=self.m)
        np.multiply(grad, 1 - _ADAM_BETA1, out=a)
        self.m += a
        np.multiply(grad, 1 - _ADAM_BETA2, out=a)
        a *= grad
        np.multiply(self.v, _ADAM_BETA2, out=self.v)
        self.v += a
        np.divide(self.m, 1 - _ADAM_BETA1**t, out=a)
        a *= self.learning_rate
        np.divide(self.v, 1 - _ADAM_BETA2**t, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        self.flat -= a

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            key = next(key for key, value in self.views(self.flat).items()
                       if not np.isfinite(value).all())
            raise FloatingPointError(f"non-finite parameter {key}")


def gaussian_log_prob(z: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    std = np.exp(log_std)
    return np.add.reduce(-0.5 * ((z - mean) / std) ** 2 - log_std - _HALF_LOG_2PI, axis=1)


def squash(z: np.ndarray) -> np.ndarray:
    """Map Gaussian samples onto the unit box: [-1, 1] maps linearly onto
    the box and the rest clamps, so boundary values are reachable exactly."""
    return np.clip(0.5 * (z + 1.0), 0.0, 1.0)


@dataclass
class RolloutBatch:
    """One batch of transitions: n_steps x ncores single-step episodes."""

    observations: np.ndarray   # (B, obs_dim)
    pre_squash: np.ndarray     # (B, act) Gaussian samples before squashing
    rewards: np.ndarray        # (B,) scaled rewards used for the update
    gauss_log_probs: np.ndarray  # (B,) pre-squash Gaussian log-densities
    values: np.ndarray         # (B,) value predictions at collection time


class EvaluationLog:
    """Every evaluation of a run of ``problem``, in arrays preallocated to
    its row count.

    Row ``i`` is step ``i``: the ``worker`` that made it, decision vector
    ``X``, objectives ``F``, constraint values ``G`` and violation ``cv``
    (NaN when the evaluation failed), and the ``reward`` paid (NaN until the
    trainer pays one; NSGA pays none).  ``evaluate`` fills the next rows
    from a block of points and is the one place a run evaluates its
    problem.  Rows from ``len(log)`` on are not filled yet.
    """

    def __init__(self, n_rows: int, problem: ProblemSpec):
        self.problem = problem
        self.worker = np.zeros(n_rows, dtype=np.int64)
        self.X = np.empty((n_rows, problem.n_x))
        self.F = np.empty((n_rows, problem.n_obj))
        self.G = np.empty((n_rows, problem.n_constraints))
        self.cv = np.empty(n_rows)
        self.reward = np.full(n_rows, np.nan)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def evaluate(self, worker: int | np.ndarray, X: np.ndarray) -> np.ndarray:
        """Evaluate the log's problem at each row of the ``(n, n_x)`` block ``X``
        into the next ``n`` rows for ``worker`` (one index, or one per row)
        and return the rows whose evaluation succeeded, ascending.

        Trainer and NSGA share this failure policy: an evaluation that
        raises (a non-finite objective among the causes) is logged with a
        warning, its row holds NaN objectives, constraints and violation,
        and it is otherwise skipped.  A ``ProblemSpecError`` is a
        misdeclared problem and propagates: the rows before it stay filled
        and counted, and ``len(log)`` ends before its row.  One block
        ``constraint_violation`` call fills ``cv`` for the succeeded rows
        when the loop ends, by a ``ProblemSpecError`` too; it equals one
        call per row bit for bit.
        """
        first, end = self._n, self._n + len(X)
        self.worker[first:end], self.X[first:end] = worker, X
        succeeded = []
        try:
            for i in range(first, end):
                try:
                    # the module-level name, looked up per call, so that a
                    # wrapper installed on it sees every evaluation
                    f, g = evaluate(self.problem, self.X[i])
                except ProblemSpecError:
                    raise
                except Exception:  # noqa: BLE001 - flagged, never aborts the run
                    logger.warning("evaluation of %s failed at step %d", self.problem.name, i,
                                   exc_info=True)
                    self.F[i] = self.G[i] = self.cv[i] = np.nan
                else:
                    self.F[i], self.G[i] = f, g
                    succeeded.append(i)
                self._n = i + 1
        finally:
            rows = np.array(succeeded, dtype=np.intp)
            self.cv[rows] = constraint_violation(self.G[rows])
        return rows

    def front(self) -> np.ndarray:
        """The rows a run reports as its front: ``best_front`` over the rows
        whose evaluation succeeded, ascending."""
        rows = np.flatnonzero(~np.isnan(self.cv[:self._n]))
        return rows[best_front(self.F[rows], self.cv[rows])]


@dataclass
class RunResult:
    """Outcome of one training or baseline run: the reported front as rows
    of the run's evaluation log (``log.F[front]`` are its objectives), the
    log itself, and the wall time in seconds."""

    front: np.ndarray
    log: EvaluationLog
    wall_time: float


@dataclass
class Worker:
    """One rollout worker: engine + RNG stream."""

    index: int
    engine: object
    rng: np.random.Generator


def loss_and_grad(policy: PolicyState, obs, z, gauss_logp_old, adv, returns,
                  cfg: TrainerConfig):
    """Total loss (clip surrogate + value MSE - entropy bonus), its gradient
    as a fresh vector laid out like ``policy.flat``, and the loss terms.

    Advantages and returns are collection-time constants.  The squash
    jacobian is policy-independent given the action, so probability ratios
    are formed from the pre-squash Gaussian densities alone.
    """
    p = policy._blocks
    B = obs.shape[0]
    grad = np.empty(policy.flat.size)
    g = policy.blocks(grad)
    h1, h2, mean, log_std, values = policy.heads(obs)
    inv_var = np.exp(-2.0 * log_std)
    delta = z - mean
    # the same expression rollout uses, so the on-policy ratio is exactly 1
    ratio = np.exp(gaussian_log_prob(z, mean, log_std) - gauss_logp_old)
    lo, hi = 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio
    surr_raw = ratio * adv
    surr_clip = np.minimum(np.maximum(ratio, lo), hi) * adv
    policy_loss = -float(np.add.reduce(np.minimum(surr_raw, surr_clip)) / B)

    # d policy_loss / d ratio; ties fall to the clipped branch so a zero
    # clip range yields an exactly zero gradient at the on-policy point
    use = (surr_raw < surr_clip) | ((ratio > lo) & (ratio < hi))
    d_logp = (np.where(use, -adv / B, 0.0) * ratio)[:, None]
    d_mean = delta * inv_var * d_logp
    # (delta * delta) * inv_var, in that order
    d_log_std = np.add.reduce((delta * delta * inv_var - 1.0) * d_logp, axis=0)

    # entropy bonus: H = sum_d (log_std_d + (1 + log 2 pi) / 2)
    entropy = float(np.add.reduce(log_std) + policy.act_dim * 0.5 * (1.0 + np.log(2 * np.pi)))
    std_mask = (p["log_std"] > LOG_STD_MIN) & (p["log_std"] < LOG_STD_MAX)
    g["log_std"][...] = np.where(std_mask, d_log_std - cfg.entropy_coef, 0.0)

    err = values - returns
    value_loss = float(np.add.reduce(err * err) / B)
    dv = ((2.0 * cfg.value_coef / B) * err)[:, None]

    # output layers, then both hidden layers at once
    np.matmul(h2[0].T, d_mean, out=g["pW3"])
    np.add.reduce(d_mean, axis=0, out=g["pb3"])
    np.matmul(h2[1].T, dv, out=g["vW3"])
    np.add.reduce(dv, axis=0, out=g["vb3"])
    dh = np.empty_like(h2)
    np.matmul(d_mean, p["pW3"].T, out=dh[0])
    np.matmul(dv, p["vW3"].T, out=dh[1])
    # 1 - h*h in place: fresh arrays of this size are slower to get
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    dh *= h2
    np.matmul(h1.transpose(0, 2, 1), dh, out=g["W2"])
    np.add.reduce(dh, axis=1, keepdims=True, out=g["b2"])
    dh = np.matmul(dh, p["W2"].transpose(0, 2, 1))
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    dh *= h1
    np.matmul(obs.T, dh, out=g["W1"])
    np.add.reduce(dh, axis=1, keepdims=True, out=g["b1"])

    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    info = {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}
    return loss, grad, info


def rollout(policy: PolicyState, workers: list[Worker], cfg: TrainerConfig,
            log: EvaluationLog) -> RolloutBatch:
    """Collect one batch: every worker draws n_steps actions and scores them,
    recording one row per evaluation of the log's problem in ``log``.

    Each worker draws its rays, latents and action noise from its own
    stream, in worker order; one pass of both networks then covers the
    whole batch, one ``log.evaluate`` call evaluates it, and the rows that
    succeeded are scored in row order, each by the engine of its worker.
    Squashed actions map linearly onto the problem's box.

    A failed problem evaluation never aborts the batch: it is flagged in the
    log with NaN objectives.  It, and any non-finite reward, is paid the
    lower of ``-reward_scale`` and the lowest finite reward of the batch, so
    no failure out-earns a valid sample and every reward is finite.  An
    exception from the engine is a program or configuration error and
    propagates.
    """
    n = cfg.n_steps
    first = len(log)
    problem = log.problem
    obs, noise = [], []
    for worker in workers:
        worker.engine.resample(worker.rng)
        # a fresh latent per episode, then the engine's conditioning (its
        # preference rays, if it has them), constant within the batch
        suffix = worker.engine.observation()
        latent = worker.rng.uniform(0.0, 1.0, size=(n, problem.n_x))
        obs.append(np.hstack([latent, np.broadcast_to(suffix, (n, suffix.size))]))
        noise.append(worker.rng.standard_normal((n, policy.act_dim)))
    obs = np.concatenate(obs)
    _, _, mean, log_std, values = policy.heads(obs)
    z = mean + np.exp(log_std) * np.concatenate(noise)
    points = problem.lower + (problem.upper - problem.lower) * squash(z)
    scales = np.repeat([float(w.engine.reward_scale) for w in workers], n)
    for row in log.evaluate(np.repeat([w.index for w in workers], n), points).tolist():
        log.reward[row] = workers[(row - first) // n].engine.score(log, row).reward
    raw = log.reward[first:len(log)]  # a view: the fix-up below rewrites the log
    bad = ~np.isfinite(raw)  # failed evaluations still hold NaN
    raw[bad] = np.minimum(-scales[bad], raw[~bad].min(initial=np.inf))
    return RolloutBatch(observations=obs, pre_squash=z, rewards=raw / scales,
                        gauss_log_probs=gaussian_log_prob(z, mean, log_std),
                        values=values)


def update(policy: PolicyState, batch: RolloutBatch, cfg: TrainerConfig,
           rng: np.random.Generator) -> PolicyState:
    """Several epochs of minibatch clipped-surrogate steps on one batch.

    A non-finite loss skips that minibatch, halves the learning rate, and
    logs a warning; parameters are verified finite after the update.
    """
    B = len(batch.rewards)
    returns = batch.rewards
    adv = returns - batch.values
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    # np.array_split's non-empty chunks: the first B % minibatches take one more row
    each, extra = divmod(B, cfg.minibatches)
    bounds = sorted({i * each + min(i, extra) for i in range(cfg.minibatches + 1)})
    for _ in range(cfg.epochs):
        perm = rng.permutation(B)
        arrays = [a[perm] for a in (batch.observations, batch.pre_squash,
                                    batch.gauss_log_probs, adv, returns)]
        for lo, hi in zip(bounds, bounds[1:]):
            loss, grad, _ = loss_and_grad(policy, *(a[lo:hi] for a in arrays), cfg=cfg)
            if not np.isfinite(loss):
                policy.learning_rate *= 0.5
                logger.warning("non-finite loss; skipping minibatch and halving "
                               "learning rate to %g", policy.learning_rate)
                continue
            policy.adam_step(grad)
    policy.check_finite()
    return policy


def train(problem: ProblemSpec, engine_factory: Callable[[], object],
          cfg: TrainerConfig) -> RunResult:
    """Alternate rollout and update until the evaluation budget is spent.

    ``engine_factory`` builds one fresh reward engine per worker.  Returns
    the complete evaluation history and, as rows of it, its front
    (``EvaluationLog.front``).
    """
    cfg.validate()
    start = time.perf_counter()
    seed_seq = np.random.SeedSequence(cfg.seed)
    streams = seed_seq.spawn(cfg.ncores + 2)
    init_rng = np.random.Generator(np.random.PCG64(streams[0]))
    shuffle_rng = np.random.Generator(np.random.PCG64(streams[1]))
    workers = [Worker(i, engine_factory(), np.random.Generator(np.random.PCG64(streams[2 + i])))
               for i in range(cfg.ncores)]
    # ray-conditioned engines know their observation suffix only after the
    # first resample; probe with a throwaway stream
    probe = engine_factory()
    probe.resample(np.random.Generator(np.random.PCG64(seed_seq.spawn(1)[0])))
    obs_dim = problem.n_x + len(probe.observation())
    init_log_std = probe.default_log_std if cfg.init_log_std is None else cfg.init_log_std
    policy = PolicyState(obs_dim=obs_dim, act_dim=problem.n_x, cfg=cfg,
                         rng=init_rng, init_log_std=init_log_std)

    n_updates = cfg.budget // cfg.batch_size()
    log = EvaluationLog(n_updates * cfg.batch_size(), problem)
    for _ in range(n_updates):
        batch = rollout(policy, workers, cfg, log)
        update(policy, batch, cfg, shuffle_rng)
    return RunResult(front=log.front(), log=log, wall_time=time.perf_counter() - start)
