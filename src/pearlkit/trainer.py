"""Clipped-surrogate policy-gradient trainer for single-step problems.

The training problem is a continuous bandit: one action per episode, the
action is the decision vector, and the reward comes from a per-worker
engine that scores the evaluated objectives.  The policy is a small
feed-forward network emitting a diagonal Gaussian that is mapped onto the
unit box by a clipped linear map and from there linearly onto the problem's
box; a separate network of the same shape provides the value baseline.
Everything runs in float64 numpy so that gradients can be checked against
finite differences exactly.

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
        for key in ("n_steps", "ncores", "epochs", "minibatches", "hidden"):
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

    The parameters live in one float64 vector, ``flat``; the Adam moments
    ``m`` and ``v`` and every gradient are vectors with the same layout.
    ``params`` names the weight matrices and biases as reshaped views of
    ``flat``, and ``views`` gives the same names for any such vector.
    """

    def __init__(self, obs_dim: int, act_dim: int, cfg: TrainerConfig,
                 rng: np.random.Generator, init_log_std: float):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        h = cfg.hidden
        def dense(n_in, n_out, scale=1.0):
            return rng.normal(0.0, scale / np.sqrt(n_in), size=(n_in, n_out))

        arrays = {
            "pW1": dense(obs_dim, h), "pb1": np.zeros(h),
            "pW2": dense(h, h), "pb2": np.zeros(h),
            "pW3": dense(h, act_dim, scale=0.01), "pb3": np.zeros(act_dim),
            "log_std": np.full(act_dim, float(init_log_std)),
            "vW1": dense(obs_dim, h), "vb1": np.zeros(h),
            "vW2": dense(h, h), "vb2": np.zeros(h),
            "vW3": dense(h, 1, scale=0.01), "vb3": np.zeros(1),
        }
        self._layout = []
        start = 0
        for key, value in arrays.items():
            self._layout.append((key, slice(start, start + value.size), value.shape))
            start += value.size
        self.flat = np.concatenate([value.ravel() for value in arrays.values()])
        self.params = self.views(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        self.adam_steps = 0
        self.learning_rate = cfg.learning_rate

    def views(self, flat: np.ndarray) -> dict:
        """Named reshaped views of a vector laid out like ``self.flat``."""
        return {key: flat[part].reshape(shape) for key, part, shape in self._layout}

    def policy_heads(self, obs: np.ndarray):
        """Action mean (pre-squash) and clamped per-dimension log-std."""
        mean = forward(self.params, "p", obs)[2]
        return mean, np.clip(self.params["log_std"], LOG_STD_MIN, LOG_STD_MAX)

    def value(self, obs: np.ndarray) -> np.ndarray:
        return forward(self.params, "v", obs)[2][:, 0]

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


def forward(params: dict, prefix: str, obs: np.ndarray):
    """The two-tanh-layer network whose weights start with ``prefix``
    (``"p"`` policy, ``"v"`` value): hidden activations and linear output."""
    h1 = np.tanh(obs @ params[prefix + "W1"] + params[prefix + "b1"])
    h2 = np.tanh(h1 @ params[prefix + "W2"] + params[prefix + "b2"])
    return h1, h2, h2 @ params[prefix + "W3"] + params[prefix + "b3"]


def backward(params: dict, prefix: str, obs: np.ndarray, h1: np.ndarray, h2: np.ndarray,
             d_out: np.ndarray, grads: dict):
    """Write into the named gradient views ``grads`` the weight gradients of
    ``forward(params, prefix, obs)`` (hidden activations ``h1``, ``h2``)
    given the output gradient."""
    grads[prefix + "W3"][...] = h2.T @ d_out
    grads[prefix + "b3"][...] = d_out.sum(axis=0)
    dh2 = d_out @ params[prefix + "W3"].T * (1.0 - h2**2)
    grads[prefix + "W2"][...] = h1.T @ dh2
    grads[prefix + "b2"][...] = dh2.sum(axis=0)
    dh1 = dh2 @ params[prefix + "W2"].T * (1.0 - h1**2)
    grads[prefix + "W1"][...] = obs.T @ dh1
    grads[prefix + "b1"][...] = dh1.sum(axis=0)


def gaussian_log_prob(z: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    std = np.exp(log_std)
    return np.sum(-0.5 * ((z - mean) / std) ** 2 - log_std - _HALF_LOG_2PI, axis=1)


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


class Worker:
    """One rollout worker: engine + RNG stream."""

    def __init__(self, index: int, engine, rng: np.random.Generator):
        self.index = index
        self.engine = engine
        self.rng = rng


def loss_and_grad(policy: PolicyState, obs, z, gauss_logp_old, adv, returns,
                  cfg: TrainerConfig):
    """Total loss (clip surrogate + value MSE - entropy bonus), its gradient
    as a fresh vector laid out like ``policy.flat``, and the loss terms.

    Advantages and returns are collection-time constants.  The squash
    jacobian is policy-independent given the action, so probability ratios
    are formed from the pre-squash Gaussian densities alone.
    """
    p = policy.params
    B = obs.shape[0]
    grad = np.zeros(policy.flat.size)
    grads = policy.views(grad)

    h1, h2, mean = forward(p, "p", obs)
    log_std = np.clip(p["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    inv_var = np.exp(-2.0 * log_std)

    delta = z - mean
    # the same expression rollout uses, so the on-policy ratio is exactly 1
    logp = gaussian_log_prob(z, mean, log_std)
    ratio = np.exp(logp - gauss_logp_old)
    surr_raw = ratio * adv
    clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    surr_clip = clipped_ratio * adv
    policy_loss = -float(np.mean(np.minimum(surr_raw, surr_clip)))

    # d policy_loss / d ratio; ties fall to the clipped branch so a zero
    # clip range yields an exactly zero gradient at the on-policy point
    use_raw = surr_raw < surr_clip
    inside = (ratio > 1.0 - cfg.clip_ratio) & (ratio < 1.0 + cfg.clip_ratio)
    d_ratio = np.where(use_raw | inside, -adv / B, 0.0)
    d_logp = d_ratio * ratio

    d_mean = d_logp[:, None] * (delta * inv_var)
    std_mask = (p["log_std"] > LOG_STD_MIN) & (p["log_std"] < LOG_STD_MAX)
    d_log_std = np.sum(d_logp[:, None] * (delta**2 * inv_var - 1.0), axis=0)

    # entropy bonus: H = sum_d (log_std_d + (1 + log 2 pi) / 2)
    entropy = float(np.sum(log_std) + policy.act_dim * 0.5 * (1.0 + np.log(2 * np.pi)))
    d_log_std -= cfg.entropy_coef
    grads["log_std"][...] = np.where(std_mask, d_log_std, 0.0)

    backward(p, "p", obs, h1, h2, d_mean, grads)

    # value network
    vh1, vh2, v_out = forward(p, "v", obs)
    values = v_out[:, 0]
    err = values - returns
    value_loss = float(np.mean(err**2))
    dv = (2.0 * cfg.value_coef / B) * err
    backward(p, "v", obs, vh1, vh2, dv[:, None], grads)

    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    info = {"policy_loss": policy_loss, "value_loss": value_loss, "entropy": entropy}
    return loss, grad, info


def _worker_observations(worker: Worker, n: int, latent_dim: int) -> np.ndarray:
    """Per-episode observations: fresh latents plus the engine's conditioning.

    The engine suffix (preference rays, when the engine has them) is constant
    within a batch; the latent part resamples every episode.
    """
    suffix = worker.engine.observation()
    latent = worker.rng.uniform(0.0, 1.0, size=(n, latent_dim))
    if suffix.size == 0:
        return latent
    return np.hstack([latent, np.repeat(suffix[None, :], n, axis=0)])


def rollout(policy: PolicyState, workers: list[Worker], cfg: TrainerConfig,
            log: EvaluationLog) -> RolloutBatch:
    """Collect one batch: every worker draws n_steps actions and scores them,
    recording one row per evaluation of the log's problem in ``log``.

    Each worker draws its rays, latents and action noise from its own
    stream, in worker order; one policy and one value pass then cover the
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
        obs.append(_worker_observations(worker, n, problem.n_x))
        noise.append(worker.rng.standard_normal((n, policy.act_dim)))
    obs = np.concatenate(obs)
    mean, log_std = policy.policy_heads(obs)
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
                        values=policy.value(obs))


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
    for _ in range(cfg.epochs):
        perm = rng.permutation(B)
        for chunk in np.array_split(perm, cfg.minibatches):
            if len(chunk) == 0:
                continue
            loss, grad, _ = loss_and_grad(
                policy, batch.observations[chunk], batch.pre_squash[chunk],
                batch.gauss_log_probs[chunk], adv[chunk], returns[chunk], cfg)
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
    workers = [
        Worker(index=i, engine=engine_factory(),
               rng=np.random.Generator(np.random.PCG64(streams[2 + i])))
        for i in range(cfg.ncores)
    ]
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
