import math

import numpy as np
import pytest

from pearlkit.density import das_dennis, niching_rank
from pearlkit.pareto import FEASIBILITY_TOL
from pearlkit.rewards import (
    CurriculumConstrained,
    PearlEnvelope,
    PearlEpsilon,
    PearlNds,
    constraint_violation,
    cosine_uniformity,
    epsilon_fitness,
    kl_uniformity,
    pearl_e_reward,
    sample_preferences,
)

from rows import table_log


def score_all(engine, F, G=None):
    """Score each row of ``table_log(F, G)`` in order: the log and the
    outcomes."""
    log = table_log(F, G)
    return log, [engine.score(log, row) for row in range(len(log))]


class TestSamplePreferences:
    def test_uniform_dirichlet_mean(self):
        rng = np.random.default_rng(0)
        rays = sample_preferences((1, 1, 1), 10_000, rng)
        assert rays.shape == (10_000, 3)
        assert np.allclose(rays.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(rays >= 0)
        assert np.allclose(rays.mean(axis=0), 1 / 3, atol=0.02)

    def test_concentration_reduces_variance(self):
        rng = np.random.default_rng(1)
        wide = sample_preferences((1, 1, 1), 10_000, rng)
        tight = sample_preferences((10, 10, 10), 10_000, rng)
        # componentwise variance per the Dirichlet formula a(a0-a)/(a0^2 (a0+1))
        assert np.allclose(wide.var(axis=0), 2 / 36, rtol=0.2)
        assert np.allclose(tight.var(axis=0), 200 / 27900, rtol=0.2)
        assert np.all(tight.var(axis=0) < wide.var(axis=0))

    def test_tiny_alpha_draws_near_vertices(self):
        # Gamma variates summed to 0 in 10.8% of these rows, which then fell
        # back to the uniform ray, and the mean row maximum read 0.927
        rays = sample_preferences((1e-3,) * 3, 20_000, np.random.default_rng(0))
        assert np.all(np.isfinite(rays)) and np.allclose(rays.sum(axis=1), 1.0)
        assert rays.max(axis=1).mean() >= 0.99
        assert not np.any(np.all(rays == 1 / 3, axis=1))

    def test_zero_count(self):
        rays = sample_preferences((1, 1), 0, np.random.default_rng(2))
        assert rays.shape == (0, 2)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            sample_preferences((1.0, 0.0), 4, np.random.default_rng(3))

    @pytest.mark.parametrize("alpha", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0)])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN drew all-NaN rays and inf drew [nan, 0, 0] rows
        with pytest.raises(ValueError, match="positive and finite"):
            sample_preferences(alpha, 2, np.random.default_rng(3))


class TestEnvelopeReward:
    def test_linear_scalarization_when_lambda_zero(self):
        assert pearl_e_reward((2, 4), [(0.5, 0.5)], 0.0) == pytest.approx(3.0)

    def test_single_ray_lambda_zero_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = rng.normal(size=3)
            w = sample_preferences((1, 1, 1), 1, rng)
            assert pearl_e_reward(r, w, 0.0) == pytest.approx(float(w[0] @ r), abs=1e-12)

    def test_kl_term_zero_for_uniform_profile(self):
        assert pearl_e_reward((1, 1), [(0.5, 0.5)], 1.0, "kl") == pytest.approx(1.0)

    def test_cosine_parallel_vectors(self):
        assert pearl_e_reward((1, 0), [(1, 0)], 1.0, "cos") == pytest.approx(2.0)

    def test_cosine_term_equals_lambda_along_ray(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = sample_preferences((2, 1, 1), 1, rng)[0]
            r = 3.7 * w
            lam = 2.5
            expected = float(w @ r) + lam
            assert pearl_e_reward(r, [w], lam, "cos") == pytest.approx(expected)

    def test_max_over_rays(self):
        rays = [(1.0, 0.0), (0.0, 1.0)]
        assert pearl_e_reward((2.0, 5.0), rays, 0.0) == pytest.approx(5.0)

    def test_zero_norm_reward_vector_cosine(self):
        assert pearl_e_reward((0.0, 0.0), [(0.5, 0.5)], 1.0, "cos") == pytest.approx(0.0)

    def test_empty_rays_rejected(self):
        with pytest.raises(ValueError):
            pearl_e_reward((1, 1), np.empty((0, 2)), 0.0)


class TestUniformityTerms:
    def test_kl_nonpositive_and_zero_only_at_uniform(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.random(3) + 0.05
            r = rng.random(3) + 0.05
            u = kl_uniformity(w, r)
            assert u <= 1e-12
            profile = w * r / np.sum(w * r)
            if np.allclose(profile, 1 / 3, atol=1e-12):
                assert u == pytest.approx(0.0)
        assert kl_uniformity(np.array([0.5, 0.5]), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_kl_invalid_profile_neutral(self):
        assert kl_uniformity(np.array([0.5, 0.5]), np.array([-1.0, 0.5])) == 0.0

    def test_cosine_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            w, r = rng.normal(size=(2, 3))
            assert -1.0 - 1e-12 <= cosine_uniformity(w, r) <= 1.0 + 1e-12


class TestEpsilonEngine:
    def test_empty_archive_rank_zero(self):
        engine = PearlEpsilon(kappa=8, nu=0.05)
        out = engine.score(table_log([(1, 2)]), 0)
        assert out.reward == 0.0
        assert out.archived

    def test_dominated_gets_full_penalty(self):
        engine = PearlEpsilon(kappa=8, nu=0.05)
        _, (_, out) = score_all(engine, [(1, 1), (2, 2)])
        assert out.reward == -8.0
        assert not out.archived
        assert len(engine.archive) == 1

    def test_two_member_fitness_tie_breaks_lexicographically(self):
        engine = PearlEpsilon(kappa=8, nu=0.05)
        _, (_, out) = score_all(engine, [(0, 1), (1, 0)])
        # pairwise indicator is 1 on the normalized scale in both directions,
        # fitness ties at -exp(-20); (0,1) precedes (1,0) lexicographically
        assert out.reward == -1.0
        assert out.archived
        fit = epsilon_fitness(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05)
        assert fit[0] == pytest.approx(-math.exp(-20.0))
        assert fit[1] == pytest.approx(-math.exp(-20.0))

    def test_rewards_stay_in_range(self):
        rng = np.random.default_rng(17)
        engine = PearlEpsilon(kappa=6, nu=0.05)
        log = table_log(rng.random((300, 3)) * 5)
        for row in range(300):
            out = engine.score(log, row)
            assert -6.0 <= out.reward <= 0.0
            assert float(out.reward).is_integer() or out.reward == -6.0
            assert len(engine.archive) <= 6


class TestNdsEngine:
    def test_empty_archive(self):
        engine = PearlNds(kappa=4, ranker="crowding")
        assert engine.score(table_log([(1, 1)]), 0).reward == 0.0

    def test_dominating_candidate_gets_rank_zero(self):
        engine = PearlNds(kappa=4, ranker="crowding")
        _, outs = score_all(engine, [(3, 3), (4, 2), (1, 1)])
        assert outs[-1].reward == 0.0
        assert len(engine.archive) == 1

    def test_interior_point_behind_boundaries(self):
        engine = PearlNds(kappa=4, ranker="crowding")
        _, outs = score_all(engine, [(0, 2), (2, 0), (1, 1)])
        assert outs[-1].reward == -2.0

    def test_rewards_in_allowed_set(self):
        rng = np.random.default_rng(19)
        for ranker in ("crowding", "niching"):
            engine = PearlNds(kappa=5, ranker=ranker, n_obj=3)
            log = table_log(rng.random((300, 3)) * 4)
            for row in range(300):
                size_before = len(engine.archive)
                out = engine.score(log, row)
                assert out.reward in {-5.0} | {-float(k) for k in range(size_before + 1)}

    def test_niching_ranks_minimized_rows(self):
        # kappa 3 gives the directions (0, 1), (0.5, 0.5), (1, 0); associated
        # as minimized, the two inner points join the axis directions, where
        # the mirrored rows 1 - f would put both on the middle one
        front = np.array([(0.0, 1.0), (1.0, 0.0), (0.1, 0.5), (0.5, 0.1)])
        engine = PearlNds(kappa=3, ranker="niching", n_obj=2)
        rewards = [out.reward for out in score_all(engine, front)[1]]
        order = niching_rank(front, das_dennis(2, 2)).order.tolist()
        assert order == [0, 1, 2, 3]
        assert rewards == [0.0, -1.0, -2.0, -3.0]
        assert engine.archive.rows().tolist() == [0, 1, 2]

    def test_monotone_in_dominance_crowding_two_objectives(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            base = rng.random((4, 2)) * 4
            s2 = rng.random(2) * 4
            s1 = s2 - rng.random(2) * 0.5 - 1e-6  # strictly dominates s2
            rewards = []
            for candidate in (s1, s2):
                engine = PearlNds(kappa=4, ranker="crowding")
                rewards.append(score_all(engine, np.vstack([base, candidate]))[1][-1].reward)
            assert rewards[0] >= rewards[1]

    def test_dominance_monotonicity_can_fail_beyond_two_objectives(self):
        # With three or more objectives a dominated candidate can become the
        # extreme (hence infinite-crowding) point of some objective while the
        # dominating one stays interior; crowding then ranks the dominated
        # candidate higher.  This pins that known behavior of the NSGA-style
        # density measure rather than hiding it.
        base = [(2.0, 2.1, 1.2), (1.3, 4.6, 3.6)]
        s1, s2 = (1.8, 3.6, 3.55), (1.9, 3.7, 3.8)  # s1 dominates s2
        rewards = []
        for candidate in (s1, s2):
            engine = PearlNds(kappa=4, ranker="crowding")
            rewards.append(score_all(engine, base + [candidate])[1][-1].reward)
        assert rewards == [-2.0, -1.0]


class TestConstraintViolation:
    def test_all_satisfied(self):
        assert constraint_violation([-1.0, -0.5]) == 0.0

    def test_benchmark_convention(self):
        assert constraint_violation([0.5, 0.2]) == pytest.approx(0.29)
        assert constraint_violation([0.5, -0.2]) == pytest.approx(0.25)

    def test_weights(self):
        assert constraint_violation([0.5, 0.2], weights=[2.0, 1.0]) == pytest.approx(0.54)
        with pytest.raises(ValueError):
            constraint_violation([0.5], weights=[-1.0])

    def test_tolerance_boundary(self):
        assert constraint_violation([1e-13]) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 8, 17])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "random-weights"])
    def test_block_equals_each_row_bit_for_bit(self, m, weighted):
        rng = np.random.default_rng(m)
        G = rng.standard_normal((2000, m)) * rng.choice([1e-13, 1e-6, 1.0, 1e3], (2000, 1))
        special = np.array([np.inf, FEASIBILITY_TOL, -FEASIBILITY_TOL, -np.inf, 0.0, -1.0])
        G[::7, 0] = special[np.arange(0, 2000, 7) % len(special)]
        G[::5, -1] = FEASIBILITY_TOL
        weights = rng.uniform(0.1, 10.0, m) if weighted else None
        block = constraint_violation(G, weights=weights)
        rows = np.array([constraint_violation(g, weights=weights) for g in G])
        assert block.shape == (len(G),) and block.tobytes() == rows.tobytes()
        assert np.isinf(block).any() and (block == 0).any()

    def test_nan_entry_is_not_satisfied(self):
        # a NaN constraint value is unknown, not satisfied: the row and the
        # block forms give NaN for its row and keep the other rows' bits
        assert math.isnan(constraint_violation([np.nan]))
        assert math.isnan(constraint_violation([np.nan, 1.0], weights=[1.0, 2.0]))
        G = np.array([[np.nan, 1.0], [0.5, -1.0], [-np.inf, np.nan]])
        block = constraint_violation(G)
        assert np.isnan(block[[0, 2]]).all()
        assert block[1].tobytes() == np.float64(constraint_violation(G[1])).tobytes()

    def test_block_without_constraints_is_zeros(self):
        assert constraint_violation(np.empty((5, 0))).tolist() == [0.0] * 5
        assert constraint_violation(np.empty(0)) == 0.0


class TestCurriculumConstrained:
    def test_feasible_empty_archive(self):
        engine = CurriculumConstrained(PearlNds(kappa=4, ranker="crowding"))
        out = engine.score(table_log([(1, 1)]), 0)
        assert out.reward == 0.0 and out.archived
        assert engine.inner.archive.rows().tolist() == [0]

    def test_infeasible_penalty(self):
        engine = CurriculumConstrained(PearlNds(kappa=64, ranker="crowding"))
        out = engine.score(table_log([(1, 1)], [[0.5, 0.2]]), 0)
        assert out.reward == pytest.approx(-64.29)
        assert not out.archived
        assert len(engine.inner.archive) == 0

    def test_archive_only_holds_feasible(self):
        rng = np.random.default_rng(29)
        engine = CurriculumConstrained(PearlNds(kappa=8, ranker="crowding"))
        points = [(rng.random(2), [rng.normal()]) for _ in range(200)]
        log, _ = score_all(engine, [f for f, _ in points], [g for _, g in points])
        assert len(engine.inner.archive) > 0
        assert (log.cv[engine.inner.archive.rows()] == 0).all()

    def test_infeasible_strictly_below_feasible_when_bonus_matches_kappa(self):
        rng = np.random.default_rng(31)
        engine = CurriculumConstrained(PearlNds(kappa=4, ranker="crowding"))
        points = [([rng.normal(loc=-0.2, scale=0.6)], rng.random(2) * 3) for _ in range(300)]
        log, outs = score_all(engine, [f for _, f in points], [g for g, _ in points])
        rewards = np.array([out.reward for out in outs])
        feasible = log.cv == 0
        assert feasible.any() and not feasible.all()
        assert rewards[~feasible].max() < rewards[feasible].min()

    def test_rank2_infeasible_vs_feasible_archive(self):
        engine = PearlNds(kappa=4, ranker="crowding")
        _, (_, out) = score_all(engine, [(5, 5), (1, 1)], [[0.0], [0.4]])
        assert out.reward == -4.0
        assert not out.archived

    def test_rank2_tracks_least_violating_before_feasibility(self):
        engine = PearlNds(kappa=4, ranker="crowding")
        log, outs = score_all(engine, [(0, 0), (1, 1)], [[0.9], [0.5]])
        assert [out.reward for out in outs] == [0.0, 0.0]
        assert engine.archive.rows().tolist() == [1]
        assert log.cv[1] == pytest.approx(0.25)


class TestEnvelopeEngine:
    def test_requires_resample_before_scoring(self):
        engine = PearlEnvelope(n_obj=2, lambda_=0.0)
        with pytest.raises(RuntimeError):
            engine.score(table_log([(1, 1)]), 0)

    def test_reward_ignores_history_and_nothing_is_archived(self):
        rng = np.random.default_rng(37)
        engine = PearlEnvelope(n_obj=2, lambda_=0.0, n_rays=1)
        engine.resample(rng)
        w = engine.rays[0].copy()
        log, outs = score_all(engine, rng.random((100, 2)) * 3)
        assert not hasattr(engine, "archive")
        assert not any(out.archived for out in outs)
        # every reward is exactly the scalarization, independent of what was
        # scored before: each point scored again on a fresh engine
        for row, out in enumerate(outs):
            assert out.reward == float(np.dot(w, -log.F[row]))
            fresh = PearlEnvelope(n_obj=2, lambda_=0.0, n_rays=1)
            fresh.rays = w[None, :]
            assert out.reward == fresh.score(log, row).reward

    def test_normalized_objectives(self):
        engine = PearlEnvelope(n_obj=2, lambda_=0.0, normalized_obj=True)
        engine.rays = np.array([[0.5, 0.5]])
        _, outs = score_all(engine, [(0, 0), (4, 2), (2, 1)])
        # rewards -f span [-4, 0] x [-2, 0]: normalized profile (0.5, 0.5)
        assert outs[-1].reward == pytest.approx(0.5)

    def test_observation_is_ray_vector(self):
        engine = PearlEnvelope(n_obj=3, n_rays=2)
        engine.resample(np.random.default_rng(41))
        assert engine.observation().shape == (6,)
