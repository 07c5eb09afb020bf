import numpy as np
import pytest

from pearlkit import indicators
from pearlkit.indicators import (
    _DISTANCE_BLOCK,
    MetricReport,
    _nearest_distances,
    additive_epsilon,
    cardinality_metrics,
    entropy_select,
    gd,
    hypervolume,
    igd,
    read_metric_csv,
    write_metric_csv,
)
from pearlkit.pareto import non_dominated_mask

from oracles import (
    additive_epsilon_full,
    monte_carlo_hypervolume,
    nearest_distances_scalar,
    unique_rows,
)


def random_min_front(rng, n_points, n_obj):
    """A mutually non-dominated set in minimization sense."""
    pts = rng.random((n_points * 4, n_obj)) * 2.0
    pts = pts[non_dominated_mask(pts)]
    return pts[:n_points]


class TestHypervolume:
    def test_two_point_example(self):
        assert hypervolume([[1, 2], [2, 1]], [3, 3]) == pytest.approx(3.0)

    def test_full_box(self):
        assert hypervolume([[0, 0, 0]], [3, 3, 3]) == pytest.approx(27.0)

    def test_empty_front(self):
        assert hypervolume(np.empty((0, 2)), [3, 3]) == 0.0

    def test_points_beyond_reference_filtered(self):
        assert hypervolume([[4, 4], [1, 1]], [3, 3]) == pytest.approx(4.0)
        assert hypervolume([[3, 1], [5, 5]], [3, 3]) == pytest.approx(0.0)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hypervolume([[1, 1, 1, 1]], [2, 2, 2, 2])

    def test_monotone_under_dominating_insert(self):
        rng = np.random.default_rng(3)
        for n_obj in (2, 3):
            for _ in range(50):
                front = random_min_front(rng, 8, n_obj)
                ref = np.full(n_obj, 2.5)
                base = hypervolume(front, ref)
                improved = front.copy()
                improved[0] = improved[0] * 0.5  # dominates the old point
                assert hypervolume(np.vstack([front, improved[:1]]), ref) >= base - 1e-12

    def test_duplicate_points_no_double_count(self):
        front = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hypervolume(front, [2, 2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_matches_monte_carlo_small(self, n_obj):
        rng = np.random.default_rng(11 + n_obj)
        for trial in range(10):
            front = random_min_front(rng, 12, n_obj)
            ref = np.full(n_obj, 2.2)
            exact = hypervolume(front, ref)
            estimate, stderr = monte_carlo_hypervolume(
                front, ref, 200_000, seed=trial)
            assert abs(exact - estimate) <= max(4 * stderr, 1e-3)


class TestDistances:
    def test_identity(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert gd(front, front) == 0.0
        assert igd(front, front) == 0.0
        assert additive_epsilon(front, front) == 0.0

    def test_gd_singleton(self):
        assert gd([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0)

    def test_igd_singleton_is_mean_of_distances(self):
        front = [[0.0, 0.0]]
        ref = [[1.0, 0.0], [0.0, 2.0]]
        assert igd(front, ref) == pytest.approx(1.5)

    def test_empty_is_usage_error(self):
        with pytest.raises(ValueError):
            gd(np.empty((0, 2)), [[1.0, 1.0]])

    def test_epsilon_translation(self):
        assert additive_epsilon([[1.0, 1.0]], [[0.0, 0.0]]) == pytest.approx(1.0)

    def test_epsilon_negative_when_dominating(self):
        front = np.array([[0.5, 0.5]])
        ref = np.array([[1.0, 1.0]])
        assert additive_epsilon(front, ref) == pytest.approx(-0.5)

    def test_epsilon_nonpositive_implies_weak_dominance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            front = random_min_front(rng, 6, 2)
            ref = random_min_front(rng, 5, 2)
            eps = additive_epsilon(front, ref)
            if eps <= 0:
                for z in ref:
                    assert any(np.all(a <= z + 1e-12) for a in front)


    def test_epsilon_equals_the_full_matrix_form_bit_for_bit(self):
        # random pairs of 1 to 60 points in 2 to 4 objectives; ties from
        # shared rows and from a quarter grid, so a tie's shift is 0.0
        rng = np.random.default_rng(19)
        for trial in range(3000):
            n_obj = int(rng.integers(2, 5))
            front = rng.random((int(rng.integers(1, 61)), n_obj))
            ref = rng.random((int(rng.integers(1, 61)), n_obj))
            if trial % 3 == 0:
                ref = np.vstack([ref, front[: int(rng.integers(1, len(front) + 1))]])
            elif trial % 3 == 1:
                front = np.vstack([front, ref])
            if trial % 5 == 0:
                front, ref = np.round(front * 4) / 4, np.round(ref * 4) / 4
            want = additive_epsilon_full(front, ref)
            assert (np.float64(additive_epsilon(front, ref)).tobytes()
                    == np.float64(want).tobytes()), trial
        front = rng.random((40, 3))
        assert np.float64(additive_epsilon(front, front)).tobytes() == np.float64(0.0).tobytes()

    def test_epsilon_spans_distance_blocks(self):
        front, ref = distance_cases()[-1]
        assert additive_epsilon(front, ref) == additive_epsilon_full(front, ref)
        assert additive_epsilon(ref, front) == additive_epsilon_full(ref, front)

    def test_epsilon_dimension_mismatch_is_usage_error(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            additive_epsilon(np.zeros((2, 2)), np.zeros((2, 3)))


def distance_cases():
    """(front, reference) pairs: random sets, duplicate rows, exact matches,
    a one-point front, a one-point reference, and one pair whose
    300 x 250 distances span more than one block."""
    rng = np.random.default_rng(23)
    cases = []
    for n_obj in (2, 3):
        cases.append((rng.random((40, n_obj)), rng.random((55, n_obj))))
        ref = rng.random((30, n_obj))
        dup = np.vstack([ref[:10], ref[:10], rng.random((5, n_obj))])
        cases.append((dup, ref))  # duplicates, ten of them exact matches
        cases.append((ref[:1], ref))
        cases.append((rng.random((20, n_obj)), ref[:1]))
    cases.append((rng.random((300, 3)), rng.random((250, 3))))
    return cases


class TestNearestDistances:
    @pytest.mark.parametrize("case", range(9))
    def test_gd_igd_match_scalar_oracle_bitwise(self, case):
        front, ref = distance_cases()[case]
        for points, targets in ((front, ref), (ref, front)):
            for chebyshev in (False, True):
                assert np.array_equal(_nearest_distances(points, targets, chebyshev),
                                      nearest_distances_scalar(points, targets, chebyshev))
        assert gd(front, ref) == float(np.mean(nearest_distances_scalar(front, ref)))
        assert igd(front, ref) == float(np.mean(nearest_distances_scalar(ref, front)))

    def test_block_boundary_is_crossed(self):
        front, ref = distance_cases()[-1]
        assert len(front) * len(ref) > 2 * _DISTANCE_BLOCK

    def test_exact_matches_are_zero(self):
        front, ref = distance_cases()[1]
        assert len(front) == 25
        assert np.all(_nearest_distances(front[:20], ref) == 0.0)
        assert np.all(_nearest_distances(front[20:], ref) > 0.0)

    def test_matches_kd_tree(self):
        from scipy.spatial import cKDTree

        for front, ref in distance_cases():
            for p in (2, np.inf):
                expected, _ = cKDTree(ref).query(front, p=p)
                got = _nearest_distances(front, ref, chebyshev=p == np.inf)
                assert np.array_equal(got, expected)

    def test_dimension_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            gd(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("case", range(9))
    def test_cardinality_matches_scalar_oracle(self, case):
        a, b = distance_cases()[case]
        out = cardinality_metrics({"a": a, "b": b})
        union = np.vstack([a[non_dominated_mask(a)], b[non_dominated_mask(b)]])
        combined = union[non_dominated_mask(union)]
        for name, front in (("a", a), ("b", b)):
            own = front[non_dominated_mask(front)]
            i_c = int(np.sum(nearest_distances_scalar(own, combined, chebyshev=True) <= 1e-9))
            assert out[name] == (i_c, i_c / len(own))


class TestCardinalityMetrics:
    def test_single_algorithm_self_reference(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        out = cardinality_metrics({"only": front})
        assert out["only"] == (3, 1.0)

    def test_fully_dominated_algorithm(self):
        good = np.array([[0.0, 0.0]])
        bad = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = cardinality_metrics({"good": good, "bad": bad})
        assert out["good"] == (1, 1.0)
        assert out["bad"] == (0, 0.0)

    def test_partial_survival(self):
        a = np.array([[0.0, 2.0], [1.0, 1.0]])
        b = np.array([[0.5, 0.5], [2.0, 0.0]])
        out = cardinality_metrics({"a": a, "b": b})
        assert out["a"] == (1, 0.5)  # (1,1) loses to (0.5,0.5)
        assert out["b"] == (2, 1.0)

    def test_duplicates_do_not_inflate(self):
        front = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        out = cardinality_metrics({"dup": front})
        assert out["dup"] == (2, 1.0)


class TestEntropySelect:
    def test_hand_computed_matrix(self):
        # 3x2 payoff, worked by hand:
        # columns sums: 6, 3; p = [[1/6,2/6,3/6], [2/3... ]]
        front = np.array([[1.0, 2.0], [2.0, 0.5], [3.0, 0.5]])
        # p1 = (1/6, 2/6, 3/6); p2 = (2/3, 1/6, 1/6)
        p1 = np.array([1, 2, 3]) / 6.0
        p2 = np.array([2.0, 0.5, 0.5]) / 3.0
        e1 = -np.sum(p1 * np.log(p1)) / np.log(3)
        e2 = -np.sum(p2 * np.log(p2)) / np.log(3)
        w = np.array([1 - e1, 1 - e2])
        w = w / w.sum()
        scores = np.column_stack([p1, p2]) @ w
        expected = np.argsort(scores)[:2]
        got = entropy_select(front, 2)
        assert got.tolist() == expected.tolist()

    def test_identical_rows_fall_back_to_uniform(self):
        front = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        assert entropy_select(front, 1).tolist() == [0]

    def test_constant_column_ignored(self):
        front = np.array([[5.0, 3.0], [5.0, 1.0], [5.0, 2.0]])
        assert entropy_select(front, 1).tolist() == [1]  # decided by column 2

    def test_duplication_invariance(self):
        rng = np.random.default_rng(23)
        front = rng.random((6, 3))
        base = entropy_select(front, 3)
        duplicated = np.vstack([front, front[base[0]]])
        again = entropy_select(duplicated, 3)
        assert np.allclose(front[base], duplicated[again])

    def test_k_bounds(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            entropy_select(front, 0)
        with pytest.raises(ValueError):
            entropy_select(front, 3)

    def test_negative_values_handled(self):
        front = np.array([[-1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        picked = entropy_select(front, 2)
        assert len(picked) == 2

    def test_indices_as_from_np_unique_rows(self, monkeypatch):
        # duplicate rows and signed zeros: the picks equal those made from the
        # distinct rows and first indices of np.unique(axis=0, return_index=True)
        rng = np.random.default_rng(29)
        fronts = [rng.choice([-0.0, 0.0, 0.5, 1.0, -1.0], size=(int(rng.integers(3, 40)), 3))
                  for _ in range(200)]
        fronts = [f for f in fronts if len(unique_rows(f)[1]) >= 3]
        got = [entropy_select(f, 3).tolist() for f in fronts]
        monkeypatch.setattr(indicators, "_first_occurrences", lambda pts: unique_rows(pts)[1])
        assert got == [entropy_select(f, 3).tolist() for f in fronts]


class TestMetricCsv:
    def test_round_trip(self, tmp_path):
        reports = [
            MetricReport("a-p-seed0", "a", "p", 26.5, 0.01, 0.02, 0.1).validate(),
            MetricReport("b-p-seed0", "b", "p", 25.0, 0.02, 0.05, 0.2).validate(),
        ]
        path = tmp_path / "metrics.csv"
        write_metric_csv(reports, path)
        back = read_metric_csv(path)
        assert back == reports
        assert path.read_bytes().splitlines(keepends=True)[:2] == [
            b"run_id,algorithm,problem,hv,gd,igd,eps\r\n",
            b"a-p-seed0,a,p,26.5,0.01,0.02,0.1\r\n"]

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricReport("r", "a", "p", -1.0, 0, 0, 0).validate()
