import dataclasses
import json

import numpy as np
import pytest

import pearlkit.trainer as trainer_module
from pearlkit import problems
from pearlkit.experiment import _ENGINES, run_experiment
from pearlkit.pareto import FEASIBILITY_TOL
from pearlkit.problems import ProblemSpec, ProblemSpecError, get_problem
from pearlkit.rewards import (CurriculumConstrained, PearlEnvelope, PearlEpsilon, PearlNds,
                              constraint_violation)
from pearlkit.trainer import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    EvaluationLog,
    PolicyState,
    RolloutBatch,
    TrainerConfig,
    Worker,
    gaussian_log_prob,
    loss_and_grad,
    rollout,
    train,
    update,
)

from oracles import (
    adam_reference,
    brute_force_dominates,
    finite_difference_gradient,
    forward,
    log_front_scalar,
    loss_and_grad_per_network,
    rollout_per_worker,
    update_per_network,
)
from rows import table_log, table_problem


def toy_batch(rng, obs_dim, act_dim, n):
    obs = rng.normal(size=(n, obs_dim))
    z = rng.normal(size=(n, act_dim))
    logp_old = rng.normal(scale=0.2, size=n)
    adv = rng.normal(size=n)
    returns = rng.normal(size=n)
    return obs, z, logp_old, adv, returns


class TestGradients:
    def test_backprop_matches_central_differences(self):
        cfg = TrainerConfig(hidden=6, clip_ratio=0.2, entropy_coef=0.01,
                            value_coef=0.5)
        rng = np.random.default_rng(0)
        for trial in range(20):
            policy = PolicyState(obs_dim=3, act_dim=2, cfg=cfg, rng=rng, init_log_std=-0.75)
            # keep parameters away from the clip kinks for differentiability
            obs, z, logp_old, adv, returns = toy_batch(rng, 3, 2, 6)
            mean, log_std = policy.policy_heads(obs)
            logp_old = gaussian_log_prob(z, mean, log_std) + rng.uniform(
                0.05, 0.1, size=6) * rng.choice([-1.0, 1.0], size=6)
            loss, grad, _ = loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)
            grads = policy.views(grad)

            def loss_fn(params):
                saved = policy.params
                policy.params = params
                value = loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)[0]
                policy.params = saved
                return value

            fd = finite_difference_gradient(loss_fn, policy.params, h=1e-6)
            for key in policy.params:
                scale = max(np.max(np.abs(fd[key])), 1e-8)
                err = np.max(np.abs(grads[key] - fd[key])) / scale
                assert err < 1e-4, f"trial {trial} param {key}: rel err {err:.2e}"

    def test_zero_advantage_leaves_policy_untouched_without_entropy(self):
        cfg = TrainerConfig(hidden=8, entropy_coef=0.0)
        rng = np.random.default_rng(1)
        policy = PolicyState(obs_dim=2, act_dim=3, cfg=cfg, rng=rng, init_log_std=-0.75)
        obs, z, _, _, returns = toy_batch(rng, 2, 3, 8)
        mean, log_std = policy.policy_heads(obs)
        logp = gaussian_log_prob(z, mean, log_std)
        adv = np.zeros(8)
        grads = policy.views(loss_and_grad(policy, obs, z, logp, adv, returns, cfg)[1])
        for key in ("pW1", "pb1", "pW2", "pb2", "pW3", "pb3", "log_std"):
            assert np.allclose(grads[key], 0.0), key
        assert np.any(grads["vW3"] != 0.0)

    def test_zero_clip_ratio_gives_zero_policy_gradient_on_policy(self):
        cfg = TrainerConfig(hidden=8, clip_ratio=0.0, entropy_coef=0.0)
        rng = np.random.default_rng(2)
        policy = PolicyState(obs_dim=2, act_dim=2, cfg=cfg, rng=rng, init_log_std=-0.75)
        obs, z, _, adv, returns = toy_batch(rng, 2, 2, 8)
        mean, log_std = policy.policy_heads(obs)
        logp = gaussian_log_prob(z, mean, log_std)  # ratio is exactly 1
        grads = policy.views(loss_and_grad(policy, obs, z, logp, adv, returns, cfg)[1])
        for key in ("pW1", "pb1", "pW2", "pb2", "pW3", "pb3", "log_std"):
            assert np.allclose(grads[key], 0.0), key


class TestRollout:
    def make_workers(self, n, kappa=8, seed=0):
        streams = np.random.SeedSequence(seed).spawn(n)
        return [
            Worker(i, PearlNds(kappa=kappa, ranker="crowding"),
                   np.random.Generator(np.random.PCG64(streams[i])))
            for i in range(n)
        ]

    def test_batch_size_is_steps_times_cores(self):
        cfg = TrainerConfig(n_steps=32, ncores=8, hidden=8)
        problem = get_problem("dtlz2")
        workers = self.make_workers(8)
        policy = PolicyState(obs_dim=12, act_dim=12, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.75)
        log = EvaluationLog(cfg.batch_size(), problem)
        batch = rollout(policy, workers, cfg, log)
        assert len(batch.rewards) == 256
        assert batch.observations.shape == (256, 12)
        assert np.all((log.X >= 0) & (log.X <= 1))
        assert np.all(batch.rewards >= -1.0) and np.all(batch.rewards <= 0.0)

    def test_evaluation_failure_flagged_not_fatal(self, monkeypatch):
        import pearlkit.trainer as trainer_module

        cfg = TrainerConfig(n_steps=4, ncores=1, hidden=8)
        problem = get_problem("dtlz2")
        workers = self.make_workers(1, kappa=8)
        policy = PolicyState(obs_dim=12, act_dim=12, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.75)
        calls = {"n": 0}

        evaluate = trainer_module.evaluate

        def exploding_evaluate(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return evaluate(*args)

        monkeypatch.setattr(trainer_module, "evaluate", exploding_evaluate)
        log = EvaluationLog(4, problem)
        batch = rollout(policy, workers, cfg, log=log)
        assert len(batch.rewards) == len(log) == 4
        assert log.reward[1] == -8.0  # full archive penalty
        assert np.isnan(log.F[1]).all() and np.isnan(log.cv[1])
        assert np.isfinite(np.delete(log.F, 1, axis=0)).all()

    def test_nan_action_flagged_not_fatal(self, monkeypatch):
        import pearlkit.trainer as trainer_module

        cfg = TrainerConfig(n_steps=3, ncores=1, hidden=8)
        problem = get_problem("dtlz2")
        workers = self.make_workers(1, kappa=8)
        policy = PolicyState(obs_dim=12, act_dim=12, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.75)
        monkeypatch.setattr(trainer_module, "squash", lambda z: np.full_like(z, np.nan))
        log = EvaluationLog(3, problem)
        batch = rollout(policy, workers, cfg, log=log)
        assert log.reward.tolist() == [-8.0, -8.0, -8.0]
        assert batch.rewards.tolist() == [-1.0, -1.0, -1.0]
        assert np.isnan(log.F).all()

    def test_envelope_rays_constant_within_batch_resampled_across(self):
        cfg = TrainerConfig(n_steps=8, ncores=2, hidden=8)
        problem = get_problem("dtlz2")
        streams = np.random.SeedSequence(3).spawn(2)
        workers = [
            Worker(i, PearlEnvelope(n_obj=3, lambda_=0.0, n_rays=1),
                   np.random.Generator(np.random.PCG64(streams[i])))
            for i in range(2)
        ]
        policy = PolicyState(obs_dim=15, act_dim=12, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.75)
        first = rollout(policy, workers, cfg, EvaluationLog(16, problem))
        second = rollout(policy, workers, cfg, EvaluationLog(16, problem))
        for batch in (first, second):
            rays = batch.observations[:, 12:].reshape(2, 8, 3)
            for w in range(2):
                assert np.all(rays[w] == rays[w, 0])
        # ray part of the observation resamples across batches
        assert not np.allclose(first.observations[0, 12:], second.observations[0, 12:])
        # latent part differs per episode within a batch
        assert not np.allclose(first.observations[0, :12], first.observations[1, :12])


class TestStackedRollout:
    """``rollout`` keeps every draw, evaluation and reward of the per-worker
    loop in ``rollout_per_worker``, bit for bit, on whatever BLAS runs it."""

    ENGINES = {
        "rank": lambda: [CurriculumConstrained(PearlNds(kappa=8, ranker="crowding")),
                         PearlNds(kappa=8, ranker="niching", n_obj=3),
                         PearlEpsilon(kappa=8)],
        "envelope": lambda: [PearlEnvelope(n_obj=3, n_rays=2),
                             PearlEnvelope(n_obj=3, n_rays=2, lambda_=0.0, alpha=3.0),
                             PearlEnvelope(n_obj=3, n_rays=2, uniformity="kl",
                                           normalized_obj=True)],
    }

    @pytest.mark.parametrize("engines", sorted(ENGINES))
    def test_matches_per_worker_loop(self, engines):
        problem = TestFailureReward.flaky("c2dtlz2")
        cfg = TrainerConfig(n_steps=16, ncores=3, hidden=8)
        obs_dim = problem.n_x + (6 if engines == "envelope" else 0)
        policy = PolicyState(obs_dim=obs_dim, act_dim=problem.n_x, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.5)
        runs = []
        for collect in (rollout, rollout_per_worker):
            streams = np.random.SeedSequence(11).spawn(cfg.ncores)
            workers = [Worker(i, engine, np.random.Generator(np.random.PCG64(streams[i])))
                       for i, engine in enumerate(self.ENGINES[engines]())]
            log = EvaluationLog(3 * cfg.batch_size(), problem)
            batches = [collect(policy, workers, cfg, log) for _ in range(3)]
            runs.append((batches, log, [w.rng.bit_generator.state for w in workers]))
        (batches, log, states), (ref_batches, ref_log, ref_states) = runs
        assert np.isnan(log.cv).any()
        for batch, ref in zip(batches, ref_batches):
            for field in dataclasses.fields(batch):
                assert np.array_equal(getattr(batch, field.name), getattr(ref, field.name)), \
                    field.name
        for name in ("worker", "X", "F", "G", "cv", "reward"):
            assert np.array_equal(getattr(log, name), getattr(ref_log, name), equal_nan=True), \
                name
        assert states == ref_states


class TestNonFiniteReward:
    """A +inf constraint value gives ``cv = inf``, and c-pearl's distance
    penalty for it is ``-inf``.  The rollout pays that row as it pays a
    failed evaluation, so every reward is finite and training goes on."""

    @staticmethod
    def problem():
        base = get_problem("c2dtlz2")

        def constraints(x, f):
            return np.array([np.inf]) if x[0] > 0.7 else base.constraints(x, f)

        return dataclasses.replace(base, name="infc2dtlz2", constraints=constraints)

    @staticmethod
    def record_learning_rates(monkeypatch):
        rates = []

        def recording_update(policy, batch, cfg, rng):
            out = update(policy, batch, cfg, rng)
            rates.append(policy.learning_rate)
            return out

        monkeypatch.setattr(trainer_module, "update", recording_update)
        return rates

    def test_train(self, monkeypatch):
        rates = self.record_learning_rates(monkeypatch)
        problem = self.problem()
        cfg = TrainerConfig(n_steps=16, ncores=4, budget=256, hidden=8, seed=0)
        result = train(problem, lambda: _ENGINES["c-pearl"](problem, {"mode": "distance-cl"}),
                       cfg)
        log = result.log
        assert (log.cv == np.inf).any()
        assert np.isfinite(log.reward).all()
        assert rates == [cfg.learning_rate] * 4
        # paid as a failed evaluation: never above the batch's lowest other reward
        rewards = log.reward.reshape(-1, cfg.batch_size())
        infinite = (log.cv == np.inf).reshape(rewards.shape)
        assert (np.where(infinite, rewards, -np.inf).max(axis=1)
                <= np.where(infinite, np.inf, rewards).min(axis=1)).all()

    def test_config_cell(self, monkeypatch, tmp_path):
        rates = self.record_learning_rates(monkeypatch)
        monkeypatch.setitem(problems.PROBLEMS, "infc2dtlz2", self.problem())
        config = {
            "version": 1, "problems": "infc2dtlz2",
            "algorithms": [{"name": "c-pearl", "mode": "distance-cl"}],
            "budget": 256, "n_steps": 16, "ncores": 4, "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (cell,) = run_experiment(path).glob("*/*/seed0")
        header, *rows = (cell / "evaluations.csv").read_text().splitlines()
        columns = header.split(",")
        cv = np.array([float(r.split(",")[columns.index("cv")]) for r in rows])
        reward = np.array([float(r.split(",")[columns.index("reward")]) for r in rows])
        assert len(rows) == 256 and (cv == np.inf).any()
        assert np.isfinite(reward).all()
        assert rates == [TrainerConfig().learning_rate] * 4


class TestFailureReward:
    @staticmethod
    def flaky(name):
        problem = get_problem(name)

        def objectives(x):
            if x[0] > 0.7:
                raise RuntimeError("simulator run failed")
            return problem.objectives(x)

        return dataclasses.replace(problem, name=f"flaky-{name}", objectives=objectives)

    @pytest.mark.parametrize("engine,params,problem", [
        ("pearl-e", {"lambda": 0.0}, "dtlz7"),
        ("pearl-eps", {"kappa": 8}, "dtlz7"),
        ("pearl-nds", {"kappa": 8}, "dtlz7"),
        ("c-pearl", {"kappa": 8}, "c2dtlz2"),
    ])
    def test_failed_evaluation_never_out_earns_a_valid_one(self, engine, params, problem):
        problem = self.flaky(problem)
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=64, hidden=8, seed=2)
        result = train(problem, lambda: _ENGINES[engine](problem, params), cfg)
        rewards = result.log.reward.reshape(-1, cfg.batch_size())
        failed = np.isnan(result.log.cv).reshape(rewards.shape)
        assert failed.any()
        lowest_valid = np.where(failed, np.inf, rewards).min(axis=1)
        highest_failed = np.where(failed, rewards, -np.inf).max(axis=1)
        assert (lowest_valid >= highest_failed).all(), (lowest_valid, highest_failed)


class TestStackedPass:
    """The stacked pass of both networks equals the per-network forward and
    backward passes of ``oracles.py`` bit for bit: losses, every gradient,
    and parameters and Adam moments after several update rounds."""

    SHAPES = [(15, 12, 64), (12, 12, 64), (5, 2, 6), (30, 30, 8)]

    @staticmethod
    def policy(obs_dim, act_dim, cfg):
        policy = PolicyState(obs_dim=obs_dim, act_dim=act_dim, cfg=cfg,
                             rng=np.random.default_rng(4), init_log_std=-0.75)
        # one dimension pinned at each clamp bound, one beyond each
        policy.params["log_std"][:4] = [LOG_STD_MIN, LOG_STD_MAX, LOG_STD_MIN - 1.0,
                                        LOG_STD_MAX + 1.0][:act_dim]
        return policy

    @staticmethod
    def off_policy_batch(policy, rng, n):
        obs = rng.uniform(size=(n, policy.obs_dim))
        mean, log_std = policy.policy_heads(obs)
        z = mean + np.exp(log_std) * rng.normal(size=(n, policy.act_dim))
        # ratios from about 0.5 to 2: on both sides of the clip range
        logp_old = gaussian_log_prob(z, mean, log_std) + rng.uniform(-0.7, 0.7, size=n)
        return obs, z, logp_old

    def test_initial_parameters_follow_the_per_network_draw_order(self):
        cfg = TrainerConfig(hidden=6)
        policy = PolicyState(obs_dim=5, act_dim=2, cfg=cfg, rng=np.random.default_rng(3),
                             init_log_std=-0.5)
        rng = np.random.default_rng(3)
        drawn = {}
        for prefix in "pv":
            for key, n_in, n_out, scale in (("W1", 5, 6, 1.0), ("W2", 6, 6, 1.0),
                                            ("W3", 6, 2 if prefix == "p" else 1, 0.01)):
                drawn[prefix + key] = rng.normal(0.0, scale / np.sqrt(n_in), size=(n_in, n_out))
        assert list(policy.params) == ["pW1", "pb1", "pW2", "pb2", "pW3", "pb3", "log_std",
                                       "vW1", "vb1", "vW2", "vb2", "vW3", "vb3"]
        for key, value in policy.params.items():
            assert np.shares_memory(value, policy.flat), key
            expected = drawn.get(key)
            if expected is None:
                expected = np.full(2, -0.5) if key == "log_std" else np.zeros(value.shape)
            assert value.tobytes() == expected.tobytes(), key
        blocks = policy.blocks(policy.flat)
        assert blocks["W1"].shape == (2, 5, 6) and blocks["b2"].shape == (2, 1, 6)
        assert np.array_equal(blocks["W2"][1], drawn["vW2"])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_loss_and_grad_match_per_network_passes(self, shape):
        cfg = TrainerConfig(hidden=shape[2])
        policy = self.policy(*shape[:2], cfg)
        rng = np.random.default_rng(sum(shape))
        grads = []
        for n in (64, 10, 3, 1):
            obs, z, logp_old = self.off_policy_batch(policy, rng, n)
            adv, returns = rng.normal(size=n), rng.normal(size=n)
            loss, grad, info = loss_and_grad(policy, obs, z, logp_old, adv, returns, cfg)
            ref_loss, ref_grad, ref_info = loss_and_grad_per_network(
                policy, obs, z, logp_old, adv, returns, cfg)
            assert loss == ref_loss and info == ref_info, n
            assert grad.tobytes() == ref_grad.tobytes(), n
            grads.append((grad, grad.copy()))
        # every call returns a vector of its own
        assert all(grad.tobytes() == kept.tobytes() for grad, kept in grads)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n, minibatches", [(64, 4), (10, 4), (3, 4)])
    def test_update_rounds_match_per_network_passes(self, shape, n, minibatches):
        cfg = TrainerConfig(hidden=shape[2], minibatches=minibatches)
        policy, ref = self.policy(*shape[:2], cfg), self.policy(*shape[:2], cfg)
        rng = np.random.default_rng(n)
        for round_ in range(5):
            obs, z, logp_old = self.off_policy_batch(policy, rng, n)
            batch = RolloutBatch(observations=obs, pre_squash=z, rewards=rng.normal(size=n),
                                 gauss_log_probs=logp_old, values=policy.value(obs))
            update(policy, batch, cfg, np.random.default_rng(round_))
            update_per_network(ref, batch, cfg, np.random.default_rng(round_))
            for name in ("flat", "m", "v"):
                assert getattr(policy, name).tobytes() == getattr(ref, name).tobytes(), \
                    (round_, name)
        assert policy.adam_steps == ref.adam_steps == 5 * min(n, minibatches) * cfg.epochs

    def test_rollout_heads_match_per_network_passes(self):
        problem = get_problem("dtlz2")
        cfg = TrainerConfig(n_steps=32, ncores=8, hidden=64)
        policy = PolicyState(obs_dim=problem.n_x, act_dim=problem.n_x, cfg=cfg,
                             rng=np.random.default_rng(0), init_log_std=-0.75)
        workers = TestRollout().make_workers(8)
        batch = rollout(policy, workers, cfg, EvaluationLog(cfg.batch_size(), problem))
        obs = batch.observations
        mean = forward(policy.params, "p", obs)[2]
        values = forward(policy.params, "v", obs)[2][:, 0]
        log_std = np.clip(policy.params["log_std"], LOG_STD_MIN, LOG_STD_MAX)
        assert batch.values.tobytes() == values.tobytes()
        assert batch.gauss_log_probs.tobytes() == \
            gaussian_log_prob(batch.pre_squash, mean, log_std).tobytes()
        heads_mean, heads_log_std = policy.policy_heads(obs)
        assert heads_mean.tobytes() == mean.tobytes()
        assert heads_log_std.tobytes() == log_std.tobytes()
        assert policy.value(obs).tobytes() == values.tobytes()


class TestUpdate:
    def test_value_head_converges_on_constant_reward(self):
        cfg = TrainerConfig(n_steps=8, ncores=2, hidden=16, learning_rate=1e-2,
                            entropy_coef=0.0)
        rng = np.random.default_rng(5)
        policy = PolicyState(obs_dim=1, act_dim=2, cfg=cfg, rng=rng, init_log_std=-0.75)
        constant = 0.25
        obs = np.ones((16, 1))
        for step in range(50):
            z = rng.normal(size=(16, 2))
            mean, log_std = policy.policy_heads(obs)
            logp = gaussian_log_prob(z, mean, log_std)
            from pearlkit.trainer import RolloutBatch

            batch = RolloutBatch(
                observations=obs, pre_squash=z, rewards=np.full(16, constant),
                gauss_log_probs=logp,
                values=policy.value(obs),
            )
            update(policy, batch, cfg, rng)
        assert abs(float(policy.value(obs[:1])[0]) - constant) < 1e-2

    def test_flat_adam_matches_per_key_reference(self):
        cfg = TrainerConfig(hidden=6, learning_rate=1e-2)
        rng = np.random.default_rng(8)
        policy = PolicyState(obs_dim=3, act_dim=2, cfg=cfg, rng=rng, init_log_std=-0.75)
        policy.params["log_std"][0] = LOG_STD_MIN  # clamped: its gradient is zero
        params = {k: p.copy() for k, p in policy.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 51):
            grad = rng.normal(size=policy.flat.size) * (rng.random(policy.flat.size) > 0.3)
            grads = policy.views(grad)
            grads["log_std"][0] = 0.0
            adam_reference(params, m, v, {k: g.copy() for k, g in grads.items()}, t,
                           cfg.learning_rate)
            policy.adam_step(grad)
        for key, value in policy.params.items():
            assert np.shares_memory(value, policy.flat), key
            assert np.array_equal(value, params[key]), key
            assert np.array_equal(policy.views(policy.m)[key], m[key]), key
            assert np.array_equal(policy.views(policy.v)[key], v[key]), key
        assert policy.params["log_std"][0] == LOG_STD_MIN

    def test_nan_guard_halves_learning_rate(self):
        cfg = TrainerConfig(hidden=8, n_steps=4, ncores=1)
        rng = np.random.default_rng(6)
        policy = PolicyState(obs_dim=1, act_dim=2, cfg=cfg, rng=rng, init_log_std=-0.75)
        from pearlkit.trainer import RolloutBatch

        z = rng.normal(size=(4, 2))
        obs = np.ones((4, 1))
        mean, log_std = policy.policy_heads(obs)
        logp = gaussian_log_prob(z, mean, log_std)
        batch = RolloutBatch(
            observations=obs, pre_squash=z,
            rewards=np.array([np.nan, 0.0, 0.0, 0.0]), gauss_log_probs=logp,
            values=np.zeros(4),
        )
        before = policy.learning_rate
        update(policy, batch, cfg, rng)
        assert policy.learning_rate < before
        policy.check_finite()
        policy.params["vW2"][3, 1] = np.nan
        with pytest.raises(FloatingPointError, match="vW2"):
            policy.check_finite()


class TestTrain:
    def test_budget_smaller_than_batch_is_usage_error(self):
        cfg = TrainerConfig(n_steps=32, ncores=8, budget=100)
        with pytest.raises(ValueError):
            train(get_problem("dtlz2"), lambda: PearlNds(kappa=8), cfg)

    def test_float_budget_is_rejected(self):
        # a float budget used to pass and then fail inside numpy's sizing
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=512.0, hidden=8)
        with pytest.raises(ValueError, match="budget must be a positive integer, not 512.0"):
            train(get_problem("dtlz2"), lambda: PearlNds(kappa=8), cfg)

    def test_update_round_count_and_budget(self):
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=100, hidden=8, seed=1)
        result = train(get_problem("ctp1"),
                       lambda: PearlNds(kappa=8, ranker="crowding"),
                       cfg)
        # 100 // 16 = 6 rounds of 16 evaluations
        assert len(result.log) == 96
        assert result.log.worker.tolist() == ([0] * 8 + [1] * 8) * 6

    def test_fixed_seed_reproduces_evaluation_log(self):
        cfg = TrainerConfig(n_steps=8, ncores=3, budget=96, hidden=8, seed=7)
        runs = []
        for _ in range(2):
            result = train(get_problem("dtlz2"),
                           lambda: PearlNds(kappa=8, ranker="crowding"), cfg)
            runs.append(result)
        a, b = runs[0].log, runs[1].log
        assert len(a) == len(b) == 96
        assert np.array_equal(a.worker, b.worker)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.reward, b.reward)

    def test_front_mutually_non_dominated(self):
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=160, hidden=8, seed=3)
        result = train(get_problem("dtlz2"),
                       lambda: PearlNds(kappa=8, ranker="crowding"), cfg)
        front = result.log.F[result.front]
        assert len(front)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not brute_force_dominates(a, b)

    def test_front_is_the_log_front_and_covers_every_archive(self):
        engines = []

        def make_engine():
            engines.append(PearlNds(kappa=8, ranker="crowding"))
            return engines[-1]

        cfg = TrainerConfig(n_steps=8, ncores=3, budget=240, hidden=8, seed=5)
        result = train(get_problem("dtlz2"), make_engine, cfg)
        log = result.log
        assert result.front.tolist() == log_front_scalar(log.F, log.cv)
        front = log.F[result.front]
        members = np.concatenate([e.archive.rows() for e in engines])
        assert len(members)
        # the front is never worse than the union of the worker archives
        for row in members:
            assert (front <= log.F[row]).all(axis=1).any(), row

    def test_points_lie_in_the_problem_box(self):
        # before, actions landed on the unit box whatever the problem's box,
        # and every evaluation of this spec failed
        problem = problems.ProblemSpec(
            "shifted-dtlz2", 4, 3, lambda x: problems.dtlz2_objectives(x - 2.0),
            lower=np.full(4, 2.0), upper=np.full(4, 3.0))
        cfg = TrainerConfig(n_steps=16, ncores=4, budget=64, hidden=8, seed=0)
        log = train(problem, lambda: PearlNds(kappa=8, ranker="crowding"), cfg).log
        assert len(log) == 64
        assert not np.isnan(log.cv).any()
        assert ((log.X >= 2.0) & (log.X <= 3.0)).all()

    def test_epsilon_engine_trains(self):
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=96, hidden=8, seed=4)
        result = train(get_problem("dtlz2"), lambda: PearlEpsilon(kappa=8, nu=0.05), cfg)
        assert len(result.log) == 96


class TestLogFront:
    """``EvaluationLog.front`` against ``log_front_scalar``."""

    def test_failed_rows_are_left_out(self):
        log = table_log([[1.0, 1.0], [np.nan, 0.0], [2.0, 0.5], [0.0, np.inf]])
        assert np.isnan(log.cv[[1, 3]]).all()
        assert log.front().tolist() == [0, 2] == log_front_scalar(log.F, log.cv)

    def test_feasible_rows_shadow_infeasible(self):
        log = table_log([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]], [[0.5], [-1.0], [0.1]])
        assert log.front().tolist() == [1] == log_front_scalar(log.F, log.cv)

    def test_least_violation_when_none_is_feasible(self):
        log = table_log([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]],
                        [[0.5], [0.2], [0.2], [0.2]])
        assert log.front().tolist() == [1, 2] == log_front_scalar(log.F, log.cv)

    def test_each_point_once_at_first_occurrence_ascending(self):
        log = table_log([[3.0, 0.0], [1.0, 1.0], [0.0, 3.0], [1.0, 1.0], [3.0, 0.0]])
        assert log.front().tolist() == [0, 1, 2] == log_front_scalar(log.F, log.cv)

    def test_empty_and_all_failed_logs_have_no_front(self):
        assert table_log(np.empty((0, 2))).front().tolist() == []
        assert table_log([[np.nan, 1.0], [1.0, np.inf]]).front().tolist() == []

    def test_matches_scalar_reference_on_random_logs(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            F = rng.integers(0, 4, size=(n, 3)).astype(float)
            F[rng.random(n) < 0.1, 0] = np.nan
            G = np.where(rng.random((n, 1)) < 0.5, -1.0, rng.integers(1, 3, size=(n, 1)))
            log = table_log(F, G)
            assert log.front().tolist() == log_front_scalar(log.F, log.cv)


class TestEvaluationLog:
    def test_keeps_objectives_as_evaluated(self):
        log = table_log([[1.0, -2.0]])
        assert len(log) == 1 and log.F[0].tolist() == [1.0, -2.0]

    def test_cv_is_zero_exactly_when_every_constraint_holds(self):
        # cv >= 0 on every row, and 0 exactly when every g_i <= FEASIBILITY_TOL
        G = [[-1.0, 0.0], [FEASIBILITY_TOL, -np.inf], [2 * FEASIBILITY_TOL, -1.0],
             [0.5, 0.2], [-1.0, np.inf]]
        log = table_log(np.ones((len(G), 2)), G)
        assert log.cv.tolist() == pytest.approx([0.0, 0.0, 4 * FEASIBILITY_TOL**2, 0.29, np.inf])
        assert ((log.cv == 0) == (log.G <= FEASIBILITY_TOL).all(axis=1)).all()

    def test_reward_is_nan_until_paid(self):
        log = table_log([[1.0, 2.0], [2.0, 1.0]])
        assert np.isnan(log.reward).all()

    def test_failure_mid_block_is_flagged_and_skipped(self):
        # row 1 returns a non-finite objective: a failed evaluation
        problem = table_problem([[1.0, 2.0], [np.inf, 1.0], [2.0, 1.0], [3.0, 0.0]])
        log = EvaluationLog(6, problem)
        log.evaluate(0, [[0.0]])
        rows = log.evaluate(0, np.arange(1.0, 4.0)[:, None])
        assert rows.tolist() == [2, 3] and len(log) == 4
        assert np.isnan(log.F[1]).all() and np.isnan(log.cv[1])
        assert log.F[2:4].tolist() == [[2.0, 1.0], [3.0, 0.0]]
        assert log.X[:4, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_worker_per_row_is_recorded(self):
        problem = table_problem(np.ones((4, 2)))
        log = EvaluationLog(4, problem)
        log.evaluate([3, 1, 4, 1], np.arange(4.0)[:, None])
        assert log.worker.tolist() == [3, 1, 4, 1]

    def test_spec_error_mid_block_keeps_the_rows_before_it(self):
        # the point x = 2 returns one objective of the two declared
        problem = ProblemSpec("short-at-2", 1, 2, lambda x: np.ones(1 if x[0] == 2 else 2),
                              lower=np.zeros(1), upper=np.full(1, 3.0))
        log = EvaluationLog(5, problem)
        log.evaluate(7, [[3.0]])
        with pytest.raises(ProblemSpecError, match="short-at-2"):
            log.evaluate([5, 6, 8, 9], np.arange(4.0)[:, None])
        assert len(log) == 3
        assert log.worker[:3].tolist() == [7, 5, 6]
        assert log.F[:3].tolist() == [[1.0, 1.0]] * 3

    def test_spec_error_mid_block_leaves_the_rows_before_it_their_cv(self):
        # x = 5 returns two constraint values of the one declared; the cv of
        # the rows before it is filled although the block never finishes
        G = [[0.25], [1.5], [np.nan], [-1.0], [np.inf], [1.0, 1.0]]
        problem = ProblemSpec("long-g-at-5", 1, 2, lambda x: np.ones(2),
                              constraints=lambda x, f: np.array(G[int(x[0])]), n_constraints=1,
                              lower=np.zeros(1), upper=np.full(1, 5.0))
        log = EvaluationLog(6, problem)
        log.evaluate(0, [[0.0]])
        first = len(log)
        with pytest.raises(ProblemSpecError, match="long-g-at-5"):
            log.evaluate(0, np.arange(1.0, 6.0)[:, None])
        assert len(log) == first + 4
        for row in (0, 1, 3, 4):
            assert log.cv[row].tobytes() == np.float64(constraint_violation(G[row])).tobytes()
        assert np.isnan(log.cv[2]) and np.isnan(log.G[2]).all()

    def test_nan_constraint_fails_its_row_and_inf_is_valid(self):
        log = EvaluationLog(3, table_problem(np.ones((3, 2)), [[np.nan], [np.inf], [0.5]]))
        rows = log.evaluate(0, np.arange(3.0)[:, None])
        assert rows.tolist() == [1, 2] and len(log) == 3
        assert np.isnan(log.cv[0]) and np.isnan(log.F[0]).all()
        assert log.cv[1:].tolist() == [np.inf, 0.25]

    def test_empty_block_fills_nothing(self):
        problem = table_problem(np.ones((2, 2)))
        log = EvaluationLog(2, problem)
        rows = log.evaluate(0, np.empty((0, 1)))
        assert rows.tolist() == [] and len(log) == 0
        assert log.evaluate(0, [[1.0]]).tolist() == [0]
