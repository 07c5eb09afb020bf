import dataclasses
import itertools
import math

import numpy as np
import pytest

from pearlkit.indicators import hypervolume
from pearlkit.pareto import non_dominated_mask
from pearlkit.problems import (
    PROBLEMS,
    _CTP_PARAMS,
    ProblemSpec,
    _reduce_sum,
    ProblemSpecError,
    c2dtlz2_constraint,
    ctp1_constraint,
    ctp1_objectives,
    ctp_constraint,
    dtlz2_objectives,
    evaluate,
    get_problem,
    reference_front,
)
from pearlkit.rewards import constraint_violation

import oracles


class TestEvaluate:
    def test_dtlz2_midpoint(self):
        problem = get_problem("dtlz2")
        f, _ = evaluate(problem, np.full(12, 0.5))
        assert f == pytest.approx([0.5, 0.5, math.sqrt(2) / 2])

    def test_dtlz2_sphere_identity_with_centered_tail(self):
        problem = get_problem("dtlz2")
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = np.concatenate([rng.random(2), np.full(10, 0.5)])
            f, _ = evaluate(problem, x)
            assert float(np.sum(f**2)) == pytest.approx(1.0)

    def test_out_of_box_is_usage_error(self):
        problem = get_problem("dtlz2")
        with pytest.raises(ValueError):
            evaluate(problem, np.full(12, 1.5))
        with pytest.raises(ValueError):
            evaluate(problem, np.full(11, 0.5))
        with pytest.raises(ValueError):
            evaluate(problem, np.full(12, np.nan))

    @pytest.mark.parametrize("f,g", [([np.nan, 1.0], [0.0]), ([np.inf, 1.0], [0.0]),
                                     ([1.0, -np.inf], [0.0]), ([1.0, 1.0], [np.nan])],
                             ids=["nan-objective", "inf-objective", "minus-inf-objective",
                                  "nan-constraint"])
    def test_non_finite_objectives_rejected(self, f, g):
        # a failed evaluation, not a misdeclared problem
        problem = ProblemSpec("odd", 1, 2, lambda x: np.array(f),
                              constraints=lambda x, _: np.array(g), n_constraints=1)
        with pytest.raises(ValueError, match="odd returned a non-finite") as raised:
            evaluate(problem, np.full(1, 0.5))
        assert not isinstance(raised.value, ProblemSpecError)

    def test_infinite_constraint_value_is_valid(self):
        problem = ProblemSpec("odd", 1, 2, lambda x: np.array([1.0, 2.0]),
                              constraints=lambda x, f: np.array([np.inf]), n_constraints=1)
        f, g = evaluate(problem, np.full(1, 0.5))
        assert f.tolist() == [1.0, 2.0] and g.tolist() == [np.inf]

    def test_single_nan_coordinate_is_usage_error(self):
        problem = get_problem("dtlz2")
        for i in (0, 5, 11):
            x = np.full(12, 0.5)
            x[i] = np.nan
            with pytest.raises(ValueError, match="outside the box of dtlz2"):
                evaluate(problem, x)

    def test_box_slack_is_1e_9_on_every_face(self):
        problem = ProblemSpec("shifted", 3, 2, lambda x: x[:2],
                              lower=np.array([-1.0, 2.0, 0.0]), upper=np.array([1.0, 3.0, 0.5]))
        inside = np.array([0.0, 2.5, 0.25])
        for i in range(3):
            for face, step in ((problem.lower[i], -1.0), (problem.upper[i], 1.0)):
                x = inside.copy()
                x[i] = face + step * 2e-9
                with pytest.raises(ValueError, match="outside the box of shifted"):
                    evaluate(problem, x)
                x[i] = face + step * 0.5e-9
                evaluate(problem, x)

    def test_box_is_a_read_only_copy(self):
        # evaluate tests against slack bounds built once, so neither a write
        # to the caller's arrays nor one to the spec's may move the box
        lower, upper = np.array([0.0, -1.0]), np.array([1.0, 1.0])
        problem = ProblemSpec("boxed", 2, 2, lambda x: x.copy(), lower=lower, upper=upper)
        lower[0], upper[1] = 0.5, 0.0
        for box in (problem.lower, problem.upper):
            with pytest.raises(ValueError, match="read-only"):
                box[0] = 2.0
        assert problem.lower.tolist() == [0.0, -1.0] and problem.upper.tolist() == [1.0, 1.0]
        f, _ = evaluate(problem, np.array([0.25, 0.75]))
        assert f.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError, match="outside the box of boxed"):
            evaluate(problem, np.array([1.5, 0.0]))

    def test_matrix_constraint_value_is_misdeclared(self):
        problem = ProblemSpec("matrix-g", 1, 2, lambda x: np.array([1.0, 2.0]),
                              constraints=lambda x, f: np.array([[0.5]]), n_constraints=1)
        with pytest.raises(ProblemSpecError, match="matrix-g declares 1 constraints"):
            evaluate(problem, np.full(1, 0.5))

    def test_scalar_constraint_value_is_accepted(self):
        problem = ProblemSpec("scalar-g", 1, 2, lambda x: np.array([1.0, 2.0]),
                              constraints=lambda x, f: 0.25, n_constraints=1)
        f, g = evaluate(problem, np.full(1, 0.5))
        assert g.shape == (1,) and g.tolist() == [0.25]

    def test_unit_weights_give_the_unweighted_violation_bit_for_bit(self):
        rng = np.random.default_rng(2)
        vectors = [evaluate(get_problem("c3dtlz4"), rng.random(7))[1] for _ in range(50)]
        vectors += [rng.standard_normal(n) for n in range(1, 40)]
        for g in vectors:
            unit = constraint_violation(g)
            weighted = constraint_violation(g, weights=np.ones_like(g))
            assert np.float64(unit).tobytes() == np.float64(weighted).tobytes()

    def test_all_problems_finite_on_random_points(self):
        rng = np.random.default_rng(1)
        for name, problem in PROBLEMS.items():
            for _ in range(25):
                x = rng.random(problem.n_x)
                f, g = evaluate(problem, x)
                assert np.all(np.isfinite(f)), name
                assert np.all(np.isfinite(g)), name
                assert f.shape == (problem.n_obj,)


class TestAgainstIndependentOracles:
    # direct transcriptions of the published formulas live in oracles.py
    ORACLES = {
        "dtlz2": oracles.dtlz2_scalar,
        "dtlz4": oracles.dtlz4_scalar,
        "dtlz5": oracles.dtlz5_scalar,
        "dtlz6": oracles.dtlz6_scalar,
        "dtlz7": oracles.dtlz7_scalar,
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_objectives_match_oracle(self, name):
        problem = get_problem(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x = rng.random(problem.n_x)
            got, _ = evaluate(problem, x)
            want = self.ORACLES[name](x)
            assert got == pytest.approx(want, abs=1e-9)

    def test_c2dtlz2_constraint_matches_oracle(self):
        problem = get_problem("c2-dtlz2")
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.random(7)
            f, g = evaluate(problem, x)
            want = oracles.c2dtlz2_constraint_scalar(f)
            assert g[0] == pytest.approx(want, abs=1e-12)
            assert f == pytest.approx(
                oracles.dtlz2_scalar(x), abs=1e-9)

    def test_c2dtlz2_constraint_equals_the_numpy_form_bit_for_bit(self):
        # random objective rows around the feasible caps, every row of the
        # box-edge levels, and c2dtlz2 evaluated at every point of the
        # levels the golden points use
        rng = np.random.default_rng(11)
        levels = [0.0, 0.5, 1.0]
        rows = list(rng.random((100_000, 3)) * 1.5)
        rows += [np.array(row) for row in itertools.product(levels, repeat=3)]
        rows += [dtlz2_objectives(np.array(x))
                 for x in itertools.product(levels, repeat=7)]
        for f in rows:
            assert (c2dtlz2_constraint(f).tobytes()
                    == oracles.c2dtlz2_constraint_numpy(f).tobytes()), f.tolist()

    def test_c3dtlz4_constraint_matches_oracle(self):
        problem = get_problem("c3-dtlz4")
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.random(7)
            f, g = evaluate(problem, x)
            want = oracles.c3dtlz4_constraint_scalar(f)
            assert g == pytest.approx(want, abs=1e-12)

    def test_ctp_constraints_match_oracle(self):
        rng = np.random.default_rng(9)
        for name, params in _CTP_PARAMS.items():
            problem = get_problem(name)
            for _ in range(100):
                x = rng.random(2)
                f, g = evaluate(problem, x)
                want = oracles.ctp_constraint_scalar(f[0], f[1], *params)
                assert g[0] == pytest.approx(want, abs=1e-12)

    def test_ctp1_published_parameters(self):
        # the two-constraint instance of the iterative construction
        from pearlkit.problems import _CTP1_A, _CTP1_B

        assert _CTP1_A == pytest.approx([0.858, 0.728], abs=5e-4)
        assert _CTP1_B == pytest.approx([0.541, 0.295], abs=5e-4)


class TestFloatFormsEqualNumpy:
    """The objective bodies and ``evaluate``'s box test run on Python floats;
    each must equal the numpy form it replaced bit for bit (the array forms
    live in oracles.py)."""

    NUMPY_FORMS = {
        "dtlz2": oracles.dtlz2_numpy,
        "dtlz4": oracles.dtlz4_numpy,
        "dtlz5": oracles.dtlz5_numpy,
        "dtlz6": oracles.dtlz6_numpy,
        "dtlz7": oracles.dtlz7_numpy,
        "c2dtlz2": oracles.dtlz2_numpy,
        "c3dtlz4": oracles.dtlz4_numpy,
    }

    def test_reduce_sum_equals_np_add_reduce(self):
        # mixed signs and magnitudes from 1e-8 to 1e8 at every length from 0
        # to 300: the left fold, the eight partial sums and the split
        rng = np.random.default_rng(31)
        for n in range(301):
            rows = [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) for _ in range(20)]
            rows += [np.full(n, -0.0), rng.choice([0.0, -0.0], n)]
            for row in rows:
                got = np.float64(_reduce_sum(row.tolist())).tobytes()
                assert got == np.add.reduce(row).tobytes(), (n, row.tolist())

    def test_math_sine_and_cosine_equal_numpy(self):
        # the dtlz angles lie in [0, pi/2] and dtlz7's sine argument in
        # [0, 3 pi]; a build whose np.sin or np.cos differs from libm's
        # fails here before it fails a golden pin
        rng = np.random.default_rng(32)
        angles = np.concatenate([rng.uniform(0.0, 3.0 * np.pi, 1_000_000),
                                 [0.0, -0.0, np.pi / 4, np.pi / 2, np.pi, 3.0 * np.pi]])
        for name in ("sin", "cos"):
            floats = np.array(list(map(getattr(math, name), angles.tolist())))
            assert floats.tobytes() == getattr(np, name)(angles).tobytes(), name

    @pytest.mark.parametrize("name", sorted(NUMPY_FORMS))
    def test_objectives_equal_the_numpy_form_bit_for_bit(self, name):
        # random points, points on the levels {0, 0.5, 1, -0.0}, and points
        # mixing the two
        problem = get_problem(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        n = 100_000 if name.startswith("dtlz") else 20_000
        X = rng.random((n, problem.n_x))
        levels = rng.choice([0.0, 0.5, 1.0, -0.0], (n // 5, problem.n_x))
        X[: n // 5] = levels
        mixed = rng.random((n // 5, problem.n_x)) < 0.5
        X[n // 5: 2 * (n // 5)][mixed] = levels[mixed]
        got = np.array([problem.objectives(x) for x in X])
        want = np.array([self.NUMPY_FORMS[name](x) for x in X])
        assert got.shape == want.shape == (n, problem.n_obj)
        same = (got.view(np.int64) == want.view(np.int64)).all(axis=1)
        assert same.all(), X[~same][:3].tolist()

    def test_box_test_equals_the_numpy_form_at_the_slack(self):
        # each face moved by exactly the 1e-9 slack, one float either side
        # of it, and well inside and outside; NaN and infinities fail
        problem = ProblemSpec("shifted", 3, 2, lambda x: x[:2],
                              lower=np.array([-1.0, 2.0, 0.0]), upper=np.array([1.0, 3.0, 0.5]))
        inside = np.array([0.0, 2.5, 0.25])
        values = [np.nan, np.inf, -np.inf]
        for face in problem.lower.tolist() + problem.upper.tolist():
            for edge in (face - 1e-9, face + 1e-9):
                values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
            values += [face, face - 2e-9, face + 2e-9, face - 0.5e-9, face + 0.5e-9]
        accepted = 0
        for i in range(3):
            for value in values:
                x = inside.copy()
                x[i] = value
                if oracles.in_box_numpy(problem, x):
                    evaluate(problem, x)
                    accepted += 1
                else:
                    with pytest.raises(ValueError, match="outside the box of shifted"):
                        evaluate(problem, x)
        assert 0 < accepted < 3 * len(values)


class TestReferenceFronts:
    def test_dtlz2_front_on_unit_sphere(self):
        front = reference_front(get_problem("dtlz2"), 200)
        assert len(front) == 200
        assert np.allclose(np.sum(front**2, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "10"])
    def test_count_must_be_a_positive_integer(self, n):
        # 2.5 raised TypeError and True was taken as 1
        with pytest.raises(ValueError, match="n_points must be a positive integer"):
            reference_front(get_problem("dtlz2"), n)

    def test_single_point_request(self):
        for name in PROBLEMS:
            front = reference_front(get_problem(name), 1)
            assert front.shape[0] >= 1

    def test_all_fronts_mutually_non_dominated(self):
        for name, problem in PROBLEMS.items():
            front = reference_front(problem, 500)
            assert non_dominated_mask(front).all(), name

    def test_dtlz7_disconnected_regions(self):
        front = reference_front(get_problem("dtlz7"), 800)
        # the front splits into two bands per position objective, giving a
        # 2x2 grid of disconnected patches with a gap around (0.26, 0.63)
        for column in (0, 1):
            values = np.sort(front[:, column])
            gaps = np.diff(values)
            split = np.argmax(gaps)
            assert gaps[split] > 0.3
            assert 0.2 < values[split] < 0.3
            assert 0.6 < values[split + 1] < 0.7
        quadrant = (front[:, 0] > 0.4).astype(int) * 2 + (front[:, 1] > 0.4)
        assert set(quadrant.tolist()) == {0, 1, 2, 3}

    def test_ctp_front_points_feasible(self):
        for name in ("ctp1", "ctp2", "ctp3", "ctp4"):
            front = reference_front(get_problem(name), 400)
            for row in front:
                if name == "ctp1":
                    violation = float(np.max(ctp1_constraint(row)))
                else:
                    violation = float(np.max(ctp_constraint(row, *_CTP_PARAMS[name])))
                assert violation <= 1e-6, name

    def test_c3dtlz4_front_on_binding_constraint(self):
        front = reference_front(get_problem("c3dtlz4"), 100)
        from pearlkit.problems import c3dtlz4_constraint

        for row in front:
            g = c3dtlz4_constraint(row)
            assert float(np.max(g)) <= 1e-9          # feasible
            assert float(np.max(g)) >= -1e-9         # and on the boundary

    def test_c2dtlz2_front_feasible_sphere_points(self):
        front = reference_front(get_problem("c2dtlz2"), 100)
        assert np.allclose(np.sum(front**2, axis=1), 1.0, atol=1e-9)
        for row in front:
            assert float(c2dtlz2_constraint(row)[0]) <= 1e-12


class TestRegistry:
    def test_lookup_aliases(self):
        assert get_problem("c2-dtlz2").name == "c2dtlz2"
        assert get_problem("DTLZ2").name == "dtlz2"

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            get_problem("zdt1")

    def test_paper_dimensions(self):
        assert get_problem("dtlz2").n_x == 12
        assert get_problem("c2dtlz2").n_x == 7
        assert get_problem("ctp1").n_x == 2
        assert get_problem("dtlz7").nadir.tolist() == [3.0, 3.0, 7.0]
        assert get_problem("ctp2").nadir.tolist() == [3.0, 3.0]


class TestConstraintCount:
    def test_constraints_and_count_declared_together(self):
        with pytest.raises(ValueError):
            ProblemSpec("ctp1-uncounted", 2, 2, ctp1_objectives,
                        constraints=lambda x, f: ctp1_constraint(f), nadir=[3, 3])
        with pytest.raises(ValueError):
            ProblemSpec("ctp1-no-constraints", 2, 2, ctp1_objectives,
                        n_constraints=2, nadir=[3, 3])

    def test_fewer_than_two_objectives_rejected(self):
        # before, every evaluation of such a spec was logged as failed and
        # NSGA-II died sorting an empty population
        with pytest.raises(ValueError, match="single: a multi-objective problem needs n_obj >= 2"):
            ProblemSpec("single", 2, 1, lambda x: x[:1])

    def test_wrong_length_constraint_vector_is_error(self):
        # ctp1 returns two constraint values; this spec declares one
        problem = ProblemSpec("ctp1-misdeclared", 2, 2, ctp1_objectives,
                              constraints=lambda x, f: ctp1_constraint(f),
                              n_constraints=1, nadir=[3, 3])
        with pytest.raises(ProblemSpecError, match="ctp1-misdeclared declares 1 constraints"):
            evaluate(problem, np.full(2, 0.5))

    def test_wrong_length_objective_vector_is_error(self):
        problem = ProblemSpec("short-f", 12, 3, lambda x: dtlz2_objectives(x)[:2])
        with pytest.raises(ProblemSpecError, match="short-f declares 3 objectives"):
            evaluate(problem, np.full(12, 0.5))


class TestSpecChecks:
    """A ProblemSpec checks its box and its nadir when it is built."""

    def test_wrong_length_box_rejected(self):
        # before, every evaluation of such a spec failed, each with a warning
        with pytest.raises(ValueError, match=r"short-box: lower and upper need shape \(3,\)"):
            ProblemSpec("short-box", 3, 2, lambda x: x[:2], lower=np.zeros(2))
        with pytest.raises(ValueError, match=r"long-box: lower and upper need shape \(3,\)"):
            ProblemSpec("long-box", 3, 2, lambda x: x[:2], upper=np.ones(4))

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError, match="inverted: the box needs lower <= upper"):
            ProblemSpec("inverted", 2, 2, lambda x: x, lower=np.array([0.0, 1.0]),
                        upper=np.array([1.0, 0.0]))

    def test_non_finite_box_rejected(self):
        for lower, upper in (([0.0, -np.inf], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]),
                             ([np.nan, 0.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match="open: the box must be finite"):
                ProblemSpec("open", 2, 2, lambda x: x, lower=np.array(lower),
                            upper=np.array(upper))

    def test_degenerate_box_accepted(self):
        problem = ProblemSpec("point", 2, 2, lambda x: x, lower=np.ones(2), upper=np.ones(2))
        assert evaluate(problem, np.ones(2))[0].tolist() == [1.0, 1.0]

    def test_box_cannot_be_reassigned(self):
        # before, assigning a new lower skipped every box check and evaluate
        # kept testing points against the old box
        problem = ProblemSpec("boxed", 2, 2, lambda x: x.copy())
        for name in ("lower", "upper", "nadir"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(problem, name, np.full(2, 0.5))
        assert problem.lower.tolist() == [0.0, 0.0] and problem.upper.tolist() == [1.0, 1.0]
        assert evaluate(problem, [0.1, 0.1])[0].tolist() == [0.1, 0.1]
        with pytest.raises(ValueError, match="read-only"):
            problem.nadir[0] = 0.0

    def test_replace_checks_the_new_spec(self):
        problem = ProblemSpec("boxed", 2, 2, lambda x: x.copy())
        with pytest.raises(ValueError, match="boxed: the box needs lower <= upper"):
            dataclasses.replace(problem, lower=np.full(2, 2.0))
        moved = dataclasses.replace(problem, lower=np.full(2, 0.5))
        assert evaluate(moved, [0.6, 0.6])[0].tolist() == [0.6, 0.6]
        with pytest.raises(ValueError, match="outside the box"):
            evaluate(moved, [0.1, 0.1])

    def test_default_nadir_has_one_entry_per_objective(self):
        # before, a two-objective spec got [3, 3, 3] and hypervolume failed at
        # the end of the run with "dimensions differ"
        problem = ProblemSpec("pair", 2, 2, lambda x: x)
        assert problem.nadir.tolist() == [3.0, 3.0]
        assert hypervolume(np.array([[1.0, 2.0]]), problem.nadir) == 2.0

    def test_wrong_length_nadir_rejected(self):
        with pytest.raises(ValueError, match=r"pair: nadir needs shape \(2,\)"):
            ProblemSpec("pair", 2, 2, lambda x: x, nadir=[3, 3, 3])
