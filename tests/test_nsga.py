import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pearlkit.density import das_dennis
from pearlkit.nsga import (
    GAConfig,
    _fill_fronts,
    _niche_picks,
    _run,
    _survivors_nsga3,
    _variation,
    nsga2_step,
    nsga3_step,
    run_nsga2,
    run_nsga3,
)
from pearlkit.problems import (ProblemSpec, ProblemSpecError, c2dtlz2_constraint,
                               ctp1_constraint, ctp1_objectives, dtlz2_objectives,
                               get_problem)
from pearlkit.pareto import non_dominated_sort
from pearlkit.rewards import PearlNds
from pearlkit.trainer import EvaluationLog, TrainerConfig, train

from oracles import (brute_force_dominates, brute_force_front_indices, niche_picks_scalar,
                     non_dominated_mask_scalar, variation_scalar)
from rows import table_problem


def logged(problem):
    """An evaluation log of ``problem`` with room for every test's rows."""
    return EvaluationLog(4096, problem)


def front_blocks(log, rows):
    """The log rows ``rows`` in front blocks, best first, and the lengths of
    the blocks, as ``_run`` hands its initial population to the first step."""
    chosen, sizes, _ = _fill_fronts(log.F[rows], log.cv[rows], len(rows))
    return rows[chosen], sizes


def initial_population(problem, n, seed=0):
    """A log, and the rows of ``n`` uniform random points evaluated into it
    in front blocks with the blocks' lengths."""
    log = logged(problem)
    rng = np.random.default_rng(seed)
    rows = log.evaluate(0, rng.uniform(problem.lower, problem.upper, (n, problem.n_x)))
    return (log, *front_blocks(log, rows))


class TestSteps:
    def test_population_size_preserved(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=16, budget=10_000)
        log, pop, sizes = initial_population(problem, 16)
        rng = np.random.default_rng(1)
        nxt, _ = nsga2_step(pop, sizes, log, cfg, rng)
        assert len(nxt) == 16
        assert len(log) == 32 and set(nxt.tolist()) <= set(range(32))

    def test_no_variation_degenerate(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=8, mutpb=0.0, cxpb=0.0)
        log, pop, sizes = initial_population(problem, 8, seed=2)
        rng = np.random.default_rng(2)
        nxt, _ = nsga2_step(pop, sizes, log, cfg, rng)
        # offspring are copies; survivors must come from the original set
        originals = {tuple(x) for x in log.X[pop].tolist()}
        assert {tuple(x) for x in log.X[nxt].tolist()} <= originals

    def test_offspring_stay_in_box(self):
        problem = get_problem("ctp1")
        cfg = GAConfig(lambda_=32, mutpb=1.0, cxpb=1.0)
        log, pop, sizes = initial_population(problem, 32, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            pop, sizes = nsga2_step(pop, sizes, log, cfg, rng)
        assert len(log) == 32 * 6
        assert np.all(log.X[:len(log)] >= problem.lower - 1e-12)
        assert np.all(log.X[:len(log)] <= problem.upper + 1e-12)

    def test_survivor_front_zero_matches_brute_force(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=10)
        log, pop, sizes = initial_population(problem, 10, seed=4)
        rng = np.random.default_rng(4)
        nxt, _ = nsga2_step(pop, sizes, log, cfg, rng)
        # the merged pool is every row of the log
        expected = brute_force_front_indices(log.F[:len(log)], brute_force_dominates)
        if len(expected) <= cfg.pop_size:
            assert set(expected) <= set(nxt.tolist())

    def test_constrained_nsga2_keeps_feasible_member_first(self):
        # infeasible members plainly dominate the single feasible one; with
        # feasibility first the feasible member must lead the survivors
        F = [[0.0, 0.1, 0.1], [0.1, 0.1, 0.1], [2.0, 2.0, 2.0], [0.2, 0.1, 0.1]]
        G = [[0.5], [0.6], [-1.0], [0.7]]
        problem = table_problem(F, G)
        cfg = GAConfig(lambda_=4, mutpb=0.0, cxpb=0.0)
        log = logged(problem)
        pop, sizes = front_blocks(log, log.evaluate(0, np.arange(4.0)[:, None]))
        nxt, _ = nsga2_step(pop, sizes, log, cfg, np.random.default_rng(0))
        assert log.cv[nxt[0]] == 0.0

    def test_elitism_no_regression(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=12)
        log, pop, sizes = initial_population(problem, 12, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            before = log.F[pop]
            pop, sizes = nsga2_step(pop, sizes, log, cfg, rng)
            # some survivor is non-dominated by the previous population
            assert any(not any(brute_force_dominates(o, f) for o in before) for f in log.F[pop])

    def test_steps_carry_the_fronts_of_their_population(self):
        # three quarters of the box fail to evaluate, so the first pools
        # hold fewer rows than pop_size; every carried block equals a fresh
        # sort of the population
        problem = TestFailedEvaluations.flaky_problem(0.25)
        cfg = GAConfig(lambda_=8, pop_size=16, budget=10_000)
        dirs = das_dennis(3, 4)
        for step in (nsga2_step, nsga3_step):
            log, pop, sizes = initial_population(problem, 16, seed=7)
            rng = np.random.default_rng(7)
            for generation in range(15):
                if generation == 1:
                    assert len(pop) < 16
                extra = (dirs,) if step is nsga3_step else ()
                pop, sizes = step(pop, sizes, log, cfg, rng, *extra)
                fresh = non_dominated_sort(log.F[pop], log.cv[pop])
                ends = np.cumsum(sizes)
                assert [front.tolist() for front in fresh] == [
                    list(range(end - size, end)) for size, end in zip(sizes, ends)]

    def test_run_hands_its_first_step_the_initial_population_in_front_blocks(self):
        problem = get_problem("ctp1")
        cfg = GAConfig(lambda_=16, budget=48, seed=3)
        first = []

        def step(pop, sizes, log, cfg, rng):
            if not first:
                first.append((pop.copy(), list(sizes), len(log)))
            return nsga2_step(pop, sizes, log, cfg, rng)

        log = _run(problem, cfg, step).log
        pop, sizes, logged_rows = first[0]
        # every row of the initial population, and nothing else, is in a block
        assert logged_rows == cfg.pop_size and sum(sizes) == len(pop)
        assert sorted(pop.tolist()) == list(range(cfg.pop_size))
        assert len(sizes) > 1
        fresh = non_dominated_sort(log.F[pop], log.cv[pop])
        ends = np.cumsum(sizes)
        assert [front.tolist() for front in fresh] == [
            list(range(end - size, end)) for size, end in zip(sizes, ends)]


class TestVariation:
    """``_variation`` builds the per-offspring loop's offspring from the
    same five block draws, bit for bit, and leaves the generator where the
    loop leaves it."""

    # a box with negative, narrow and zero-width dimensions
    BOX = ProblemSpec("box5", 5, 2, lambda x: x[:2],
                      lower=[-2.0, 0.0, 0.0, 1.0, 0.25], upper=[2.0, 1.0, 1e-3, 3.0, 0.25])

    @classmethod
    def parents(cls, kind, rng):
        lo, hi = cls.BOX.lower, cls.BOX.upper
        if kind == "single":
            return rng.uniform(lo, hi, (1, 5))
        if kind == "faces":
            return np.where(rng.random((12, 5)) < 0.5, lo, hi)
        return rng.uniform(lo, hi, (12, 5))

    @pytest.mark.parametrize("kind", ["inside", "faces", "single"])
    @pytest.mark.parametrize("mutpb", [0.0, 0.65, 1.0])
    @pytest.mark.parametrize("cxpb", [0.0, 0.65, 1.0])
    def test_matches_per_offspring_loop(self, cxpb, mutpb, kind):
        cfg = GAConfig(lambda_=40, mu=12, cxpb=cxpb, mutpb=mutpb)
        for seed in range(3):
            parents = self.parents(kind, np.random.default_rng(seed))
            before = parents.copy()
            block, loop = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
            got = _variation(parents, cfg, self.BOX, block)
            want = variation_scalar(parents, cfg, self.BOX, loop)
            assert got.shape == (40, 5) and got.tobytes() == want.tobytes()
            assert np.array_equal(parents, before)
            # the generator ends in the same state
            assert block.bit_generator.state == loop.bit_generator.state
            assert block.random() == loop.random()


@st.composite
def niche_cases(draw):
    """``(F, chosen, last, need, dirs)`` for ``_niche_picks`` with ties in
    niche count and distance made common.

    ``own-niche``: two objectives on the lattice points of ``das_dennis(2,
    p)``, all of them present so the rows normalize to themselves, each
    candidate on its own direction.  ``equal-counts``: the same lattice,
    every direction filled equally by the chosen rows, twin candidates.
    ``one-niche``: a single direction.  ``grid``: rows from a small grid
    with twins.  ``need`` is often ``len(last) - 1``.
    """
    kind = draw(st.sampled_from(["own-niche", "equal-counts", "one-niche", "grid"]))
    if kind in ("own-niche", "equal-counts"):
        p = draw(st.integers(2, 6))
        dirs = das_dennis(2, p)
        if kind == "own-niche":
            ks = draw(st.permutations(range(p + 1)))
            cut = draw(st.integers(0, p - 1))
            chosen_ks, last_ks = ks[:cut], ks[cut:]
            chosen_ks = chosen_ks + draw(st.lists(st.sampled_from(ks), max_size=4))
        else:
            chosen_ks = list(range(p + 1)) * draw(st.integers(0, 2))
            last_ks = draw(st.lists(st.integers(0, p), min_size=2, max_size=12))
            if not chosen_ks:
                last_ks = [0, p] + last_ks
        F = np.array([(k / p, 1.0 - k / p) for k in chosen_ks + last_ks])
        n_chosen = len(chosen_ks)
    else:
        m = draw(st.integers(2, 3))
        n = draw(st.integers(2, 14))
        rows = draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                                      min_size=m, max_size=m), min_size=2, max_size=n))
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # twin rows
        F = np.array(rows)
        dirs = (np.full((1, m), 1.0 / m) if kind == "one-niche"
                else das_dennis(m, draw(st.integers(1, 4))))
        n_chosen = draw(st.integers(0, len(F) - 2))
    order = np.array(draw(st.permutations(range(len(F)))), dtype=np.intp)
    chosen, last = order[:n_chosen], order[n_chosen:]
    F = F[np.argsort(order)]  # row order[i] of F is case row i
    need = draw(st.one_of(st.just(len(last) - 1), st.integers(1, len(last) - 1)))
    return F, chosen, last, need, dirs


class TestNichePicks:
    @settings(max_examples=400, deadline=None)
    @given(case=niche_cases())
    def test_matches_per_pick_argmin_loop(self, case):
        F, chosen, last, need, dirs = case
        before = (F.copy(), chosen.copy(), last.copy())
        picks = _niche_picks(F, chosen, last, need, dirs)
        assert picks.tolist() == niche_picks_scalar(F, chosen, last, need, dirs).tolist()
        assert len(set(picks.tolist())) == need and set(picks.tolist()) <= set(last.tolist())
        for array, copy in zip((F, chosen, last), before):
            assert np.array_equal(array, copy)


class TestNsga3:
    def test_all_feasible_matches_unconstrained(self):
        # a constraint that always holds leaves every violation 0, where the
        # feasibility-first relation is plain dominance
        problem = get_problem("dtlz2")  # no constraints at all
        slack = dataclasses.replace(problem, constraints=lambda x, f: np.array([-1.0]),
                                    n_constraints=1)
        cfg = GAConfig(lambda_=12)
        dirs = das_dennis(3, 4)
        steps = []
        for spec in (problem, slack):
            log, pop, sizes = initial_population(spec, 12, seed=6)
            rows, _ = nsga3_step(pop, sizes, log, cfg, np.random.default_rng(9), dirs)
            steps.append(log.F[rows].tolist())
        assert steps[0] == steps[1]

    def test_single_feasible_survives(self):
        # row 0 is feasible and plainly dominated by the seven infeasible rows
        F = np.array([[2.0, 2.0]] + [[0.1 * i, 0.1] for i in range(7)])
        cv = np.array([0.0] + [(0.5 + 0.1 * i) ** 2 for i in range(7)])
        survivors, _ = _survivors_nsga3(F, cv, 4, das_dennis(2, 4))
        assert len(survivors) == 4 and survivors[0] == 0

    def test_niche_fill_hand_computed(self):
        # the first front (0, 0.8), (0.8, 0) fits whole, one survivor in each
        # axis niche; of the three dominated candidates the two near the axes
        # are closest to their directions, so only the survivors' niche
        # counts make the pick the one owning the empty middle direction
        F = np.array([(0.0, 0.8), (0.8, 0.0), (0.05, 1.0), (1.0, 0.05), (0.9, 0.6)])
        survivors, _ = _survivors_nsga3(F, np.zeros(5), 3, das_dennis(2, 2))
        assert survivors.tolist() == [0, 1, 4]

    def test_niche_fill_associates_minimized_objectives(self):
        # one front of four points, normalized to themselves: (0.1, 0.5) lies
        # near the f2 axis and (0.5, 0.2) near the f1 axis; on the mirrored
        # rows 1 - f both would join the middle direction instead
        F = np.array([(0.0, 1.0), (1.0, 0.0), (0.1, 0.5), (0.5, 0.2)])
        survivors, _ = _survivors_nsga3(F, np.zeros(4), 3, das_dennis(2, 2))
        # both axis niches hold one survivor; the closer candidate wins
        assert survivors.tolist() == [0, 1, 2]


class TestRuns:
    def test_run_respects_budget_and_logs(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=16, budget=200, seed=0)
        result = run_nsga2(problem, cfg)
        assert len(result.log) == 16 + 11 * 16
        assert (result.log.worker == 0).all()
        assert np.isfinite(result.log.F).all() and np.isnan(result.log.reward).all()

    def test_all_time_front_mutually_non_dominated(self):
        problem = get_problem("dtlz2")
        cfg = GAConfig(lambda_=16, budget=400, seed=1)
        result = run_nsga3(problem, cfg)
        front = result.log.F[result.front]
        assert len(front)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not brute_force_dominates(a, b)

    def test_constrained_run_keeps_feasible_members(self):
        problem = get_problem("c2dtlz2")
        cfg = GAConfig(lambda_=16, budget=800, seed=2)
        result = run_nsga3(problem, cfg)
        assert len(result.front)
        assert (result.log.cv[result.front] == 0).all()

    def test_constrained_nsga2_run_reports_feasible_front(self):
        problem = get_problem("c2dtlz2")
        cfg = GAConfig(lambda_=16, budget=800, seed=2)
        result = run_nsga2(problem, cfg)
        assert len(result.front)
        assert (result.log.cv[result.front] == 0).all()

    def test_front_is_built_from_the_best_logged_rows(self):
        problem = get_problem("c2dtlz2")
        cfg = GAConfig(lambda_=16, budget=800, seed=2)
        result = run_nsga2(problem, cfg)
        log = result.log
        feasible = np.flatnonzero(log.cv == 0.0)
        rows = feasible[non_dominated_mask_scalar(log.F[feasible])]
        assert len(rows) > 0
        assert result.front.dtype == np.intp
        assert result.front.tolist() == rows.tolist()

    def test_feasibility_never_lost_once_found(self):
        problem = get_problem("c2dtlz2")
        cfg = GAConfig(lambda_=12, budget=2000, seed=3)
        rng = np.random.default_rng(3)
        log, pop, sizes = initial_population(problem, 12, seed=3)
        dirs = das_dennis(3, 4)
        seen_feasible = bool((log.cv[pop] == 0).any())
        for _ in range(40):
            pop, sizes = nsga3_step(pop, sizes, log, cfg, rng, dirs)
            feasible = bool((log.cv[pop] == 0).any())
            if seen_feasible:
                assert feasible
            seen_feasible = seen_feasible or feasible
        assert seen_feasible

    def test_determinism(self):
        problem = get_problem("ctp1")
        cfg = GAConfig(lambda_=8, budget=100, seed=11)
        a = run_nsga3(problem, cfg)
        b = run_nsga3(problem, cfg)
        assert len(a.log) == len(b.log) == 8 + 11 * 8
        assert np.array_equal(a.log.X, b.log.X) and np.array_equal(a.log.F, b.log.F)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(mutpb=1.5).validate()
        with pytest.raises(ValueError):
            GAConfig(mu=64, lambda_=32).validate()
        with pytest.raises(ValueError, match="budget"):
            GAConfig(lambda_=8, budget=15).validate()

    def test_float_budget_is_rejected(self):
        # a float budget used to pass and then fail inside numpy's sizing
        with pytest.raises(ValueError, match="budget must be a positive integer, not 96.0"):
            run_nsga2(get_problem("dtlz2"), GAConfig(lambda_=8, budget=96.0))

    def test_mu_and_pop_size_default_to_lambda(self):
        cfg = GAConfig(lambda_=64)
        assert cfg.mu == cfg.pop_size == 64


class TestFailedEvaluations:
    @staticmethod
    def flaky_problem(limit):
        def objectives(x):
            if x[0] > limit:
                raise RuntimeError("simulator run failed")
            return dtlz2_objectives(x)

        return ProblemSpec("flaky-dtlz2", 12, 3, objectives, nadir=[3, 3, 3])

    @pytest.mark.parametrize("run", [run_nsga2, run_nsga3])
    def test_failures_logged_as_nan_and_skipped(self, run):
        problem = self.flaky_problem(0.7)
        cfg = GAConfig(lambda_=16, budget=400, seed=1)
        result = run(problem, cfg)
        log = result.log
        assert len(log) == 400
        failed = np.isnan(log.F).all(axis=1)
        assert np.array_equal(failed, log.X[:, 0] > 0.7)
        assert failed.any()
        assert np.array_equal(np.isnan(log.cv), failed)
        assert np.array_equal(np.isnan(log.F).any(axis=1), failed)
        assert len(result.front)
        assert np.isfinite(log.F[result.front]).all() and (log.X[result.front, 0] <= 0.7).all()

    def test_constrained_spec_failing_at_centre_runs(self):
        # the objective fails around the box centre; declaring the constraint
        # count means building the spec evaluates nothing
        def objectives(x):
            if 0.4 <= x[0] <= 0.6:
                raise RuntimeError("simulator run failed")
            return dtlz2_objectives(x)

        problem = ProblemSpec("flaky-c2dtlz2", 7, 3, objectives,
                              constraints=lambda x, f: c2dtlz2_constraint(f),
                              n_constraints=1, nadir=[3, 3, 3])
        cfg = GAConfig(lambda_=16, budget=400, seed=1)
        result = run_nsga2(problem, cfg)
        log = result.log
        assert len(log) == 400
        failed = np.isnan(log.F).all(axis=1)
        assert np.array_equal(failed, (0.4 <= log.X[:, 0]) & (log.X[:, 0] <= 0.6))
        assert failed.any()
        assert log.G.shape == (400, 1)
        assert np.array_equal(np.isnan(log.G).all(axis=1), failed)
        assert len(result.front)

    @staticmethod
    def misdeclared_specs():
        # one spec returns two of its three objectives; the other declares one
        # constraint where ctp1 returns two values
        return [
            (ProblemSpec("short-f", 12, 3, lambda x: dtlz2_objectives(x)[:2]),
             "declares 3 objectives"),
            (ProblemSpec("ctp1-misdeclared", 2, 2, ctp1_objectives,
                         constraints=lambda x, f: ctp1_constraint(f),
                         n_constraints=1, nadir=[3, 3]),
             "declares 1 constraints"),
        ]

    @pytest.mark.parametrize("case", [0, 1])
    def test_misdeclared_spec_stops_nsga_and_training(self, case):
        problem, message = self.misdeclared_specs()[case]
        with pytest.raises(ProblemSpecError, match=message) as raised:
            run_nsga2(problem, GAConfig(lambda_=8, budget=64, seed=0))
        assert problem.name in str(raised.value)
        cfg = TrainerConfig(n_steps=4, ncores=2, budget=8, hidden=8, seed=0)
        with pytest.raises(ProblemSpecError, match=problem.name):
            train(problem, lambda: PearlNds(kappa=8), cfg)

    def test_every_initial_evaluation_failing_is_an_error(self):
        problem = self.flaky_problem(-1.0)
        cfg = GAConfig(lambda_=8, budget=64, seed=0)
        with pytest.raises(ValueError, match="empty population"):
            run_nsga2(problem, cfg)


class TestNonFiniteOutputs:
    """A non-finite objective or a NaN constraint value is a failed
    evaluation, in NSGA as in training: its row is NaN and the run goes on.
    A +inf constraint value is a valid, infinitely violated constraint."""

    @staticmethod
    def problem(objective=None, constraint=None):
        # c2dtlz2 whose first objective or whose constraint value is replaced
        # where x[0] > 0.7
        def objectives(x):
            f = dtlz2_objectives(x)
            if objective is not None and x[0] > 0.7:
                f[0] = objective
            return f

        def constraints(x, f):
            if constraint is not None and x[0] > 0.7:
                return np.array([constraint])
            return c2dtlz2_constraint(dtlz2_objectives(x))

        return ProblemSpec("odd-c2dtlz2", 7, 3, objectives, constraints=constraints,
                           n_constraints=1, nadir=[3, 3, 3])

    @staticmethod
    def run(problem, algorithm):
        if algorithm == "nsga2":
            return run_nsga2(problem, GAConfig(lambda_=16, budget=400, seed=1))
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=160, hidden=8, seed=0)
        return train(problem, lambda: PearlNds(kappa=8), cfg)

    @pytest.mark.parametrize("algorithm", ["nsga2", "train"])
    @pytest.mark.parametrize("objective,constraint", [
        (np.nan, None), (np.inf, None), (-np.inf, None), (None, np.nan)])
    def test_failed_rows_are_nan_and_the_run_finishes(self, algorithm, objective, constraint):
        result = self.run(self.problem(objective, constraint), algorithm)
        log = result.log
        bad = log.X[:, 0] > 0.7
        assert len(log) == len(log.X) and bad.any()
        assert np.isnan(log.F[bad]).all() and np.isnan(log.G[bad]).all()
        assert np.isnan(log.cv[bad]).all()
        assert np.isfinite(log.F[~bad]).all() and np.isfinite(log.cv[~bad]).all()
        assert len(result.front) and not bad[result.front].any()
        if algorithm == "train":
            assert np.isfinite(log.reward).all()

    @pytest.mark.parametrize("algorithm", ["nsga2", "train"])
    def test_infinite_constraint_value_is_an_infeasible_row(self, algorithm):
        result = self.run(self.problem(constraint=np.inf), algorithm)
        log = result.log
        bad = log.X[:, 0] > 0.7
        assert len(log) == len(log.X) and bad.any()
        assert np.isfinite(log.F).all()
        assert (log.G[bad] == np.inf).all() and (log.cv[bad] == np.inf).all()
        assert np.isfinite(log.cv[~bad]).all()
        assert len(result.front) and not bad[result.front].any()
