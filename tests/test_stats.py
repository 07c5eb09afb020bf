import math

import numpy as np
import pytest
from scipy import stats as sps

from pearlkit.stats import critical_difference, friedman, nemenyi, write_significance_csv

from oracles import DEMSAR_Q, DEMSAR_Q_TOL


def gap_design(k, n, m):
    """n blocks ranking k treatments 0 < 1 < ... < k-1, except that from block
    ``m`` on treatments 0 and 1 tie: their mean-rank gap is m / n."""
    values = np.tile(np.arange(k, dtype=float), (n, 1))
    values[m:, 1] = 0.0
    return values


class TestFriedman:
    def test_perfectly_consistent_ranks(self):
        # every block orders the three treatments identically
        values = np.tile([1.0, 2.0, 3.0], (20, 1))
        result = friedman(values)
        # chi2 = 12*20/(3*4) * ((1-2)^2 + 0 + (3-2)^2) = 40
        assert result.statistic == pytest.approx(40.0)
        assert result.p_value < 0.001

    def test_identical_values_give_zero_statistic(self):
        values = np.full((10, 3), 7.5)
        result = friedman(values)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_textbook_example_hand_computed(self):
        # 4 blocks x 3 treatments; ranks per block:
        # (1,2,3), (2,1,3), (1,2,3), (1,3,2) -> mean ranks (1.25, 2.0, 2.75)
        values = np.array([
            [1.0, 2.0, 3.0],
            [5.0, 4.0, 6.0],
            [2.0, 3.0, 9.0],
            [3.0, 8.0, 5.0],
        ])
        result = friedman(values)
        expected = 12 * 4 / (3 * 4) * ((1.25 - 2) ** 2 + 0.0 + (2.75 - 2) ** 2)
        assert result.statistic == pytest.approx(expected)
        assert result.mean_ranks == pytest.approx([1.25, 2.0, 2.75])

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.normal(size=(12, 4))
            mine = friedman(values)
            ref_stat, ref_p = sps.friedmanchisquare(*values.T)
            assert mine.statistic == pytest.approx(ref_stat)
            assert mine.p_value == pytest.approx(ref_p)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        values = rng.random((15, 3)) + 0.5
        base = friedman(values)
        squeezed = friedman(np.log(values))
        stretched = friedman(values**3)
        assert base.statistic == pytest.approx(squeezed.statistic)
        assert base.statistic == pytest.approx(stretched.statistic)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            friedman(np.ones((1, 3)))
        with pytest.raises(ValueError):
            friedman(np.ones((5, 1)))

    def test_average_ranks_on_ties(self):
        values = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
        result = friedman(values)
        assert result.mean_ranks == pytest.approx([1.75, 1.75, 2.5])


class TestNemenyi:
    def test_identical_treatments_nothing_significant(self):
        values = np.full((10, 3), 2.0)
        result = nemenyi(values, alpha=0.1)
        assert not result.significant.any()
        assert np.allclose(np.diag(result.p_values), 1.0)

    def test_perfectly_separated_extreme_pairs(self):
        values = np.tile([1.0, 2.0, 3.0], (20, 1))
        result = nemenyi(values, alpha=0.1)
        # CD = 2.052 * sqrt(3*4/(6*20)) ~ 0.649; extreme mean-rank gap is 2
        assert result.critical_diff == pytest.approx(0.6489, abs=2e-3)
        assert result.significant[0, 2] and result.significant[2, 0]
        assert result.significant[0, 1] and result.significant[1, 2]
        assert result.p_values[0, 2] < 0.001

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(11)
        values = rng.random((8, 4))
        result = nemenyi(values, alpha=0.05)
        assert np.allclose(result.p_values, result.p_values.T)
        assert np.allclose(np.diag(result.p_values), 1.0)

    def test_critical_difference_table_values(self):
        # Demsar's table is the independent reference, to its own precision
        for alpha, row in DEMSAR_Q.items():
            for k, q_table in enumerate(row, start=2):
                for n in (5, 20):
                    q = critical_difference(k, n, alpha) / np.sqrt(k * (k + 1) / (6.0 * n))
                    assert abs(q - q_table) <= DEMSAR_Q_TOL, (alpha, k, n)

    def test_any_k_and_alpha_in_the_open_unit_interval(self):
        assert critical_difference(11, 10, 0.05) > critical_difference(10, 10, 0.05)
        assert critical_difference(3, 10, 0.01) > critical_difference(3, 10, 0.05)
        result = nemenyi(gap_design(11, 6, 0), alpha=0.01)
        assert result.p_values.shape == (11, 11)
        assert np.array_equal(result.significant, result.p_values < 0.01)

    @pytest.mark.parametrize("alpha", [0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf, True,
                                       "0.05", None])
    def test_alpha_outside_the_open_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            critical_difference(3, 10, alpha)
        with pytest.raises(ValueError, match="alpha"):
            nemenyi(gap_design(3, 10, 5), alpha=alpha)

    def test_fewer_than_two_treatments_rejected(self):
        with pytest.raises(ValueError):
            critical_difference(1, 10, 0.05)
        with pytest.raises(ValueError):
            nemenyi(np.ones((10, 1)), alpha=0.05)

    def test_interpolated_alpha_between_tabulated_levels(self):
        mid = critical_difference(3, 20, 0.075)
        assert critical_difference(3, 20, 0.05) > mid > critical_difference(3, 20, 0.10)

    def test_p_values_consistent_with_table_quantiles(self):
        # the mean-rank gaps nearest the table's critical difference, just
        # outside its precision, have p > alpha below it and p < alpha above
        n = 200  # every critical difference of the table is then below 1
        for alpha, row in DEMSAR_Q.items():
            for k, q_table in enumerate(row, start=2):
                scale = np.sqrt(k * (k + 1) / (6.0 * n))
                below = math.floor((q_table - DEMSAR_Q_TOL) * scale * n)
                above = math.ceil((q_table + DEMSAR_Q_TOL) * scale * n)
                p_below, p_above = (nemenyi(gap_design(k, n, m), alpha=alpha).p_values[0, 1]
                                    for m in (below, above))
                assert p_below > alpha > p_above, (alpha, k)

    def test_flags_match_p_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            values = rng.normal(size=(10, 3)) + np.array([0.0, 0.4, 1.0])
            result = nemenyi(values, alpha=0.05)
            assert np.array_equal(result.significant, result.p_values < 0.05)

    def test_gap_just_inside_alpha_is_flagged(self):
        # p = 0.04997; the interpolated table left this pair unflagged
        result = nemenyi(gap_design(5, 43, 40), alpha=0.05)
        assert result.p_values[0, 1] < 0.05
        assert result.significant[0, 1] and result.significant[1, 0]
        assert np.array_equal(result.significant, result.p_values < 0.05)

    def test_gap_just_outside_alpha_is_not_flagged(self):
        # p = 0.05004; the interpolated table flagged this pair
        result = nemenyi(gap_design(3, 118, 36), alpha=0.05)
        assert result.p_values[0, 1] > 0.05
        assert not result.significant[0, 1] and not result.significant[1, 0]
        assert np.array_equal(result.significant, result.p_values < 0.05)


class TestSignificanceCsv:
    def test_round_trip_shape(self, tmp_path):
        values = np.tile([1.0, 2.0, 3.0], (20, 1))
        result = nemenyi(values, alpha=0.1)
        path = tmp_path / "sig.csv"
        write_significance_csv(result, ["a", "b", "c"], path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "treatment,a,b,c"
        assert len(rows) == 4
        assert "*" in rows[1]
