import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pearlkit.density import (
    crowding_rank,
    das_dennis,
    default_divisions,
    niching_rank,
)
from pearlkit.problems import evaluate, get_problem

from oracles import crowding_distances_direct, crowding_rank_loop

_DTLZ2 = get_problem("dtlz2")


@st.composite
def edge_fronts(draw):
    """dtlz2 objectives of points on and near the box edge: a coordinate of
    0 gives an objective of exactly 0, shared by many rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 70))
    x = rng.random((n, _DTLZ2.n_x))
    edge = rng.random(x.shape) < draw(st.sampled_from([0.1, 0.3, 0.6]))
    x[edge] = rng.choice([0.0, 1.0], size=int(edge.sum()))
    return np.array([evaluate(_DTLZ2, row)[0] for row in x])


@st.composite
def repeated_fronts(draw):
    """Rows drawn from a few distinct rows, as in an NSGA front, so that only
    the index decides between equal rows."""
    m = draw(st.integers(2, 4))
    row = st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)
    distinct = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    return np.array([distinct[i] for i in picks], dtype=float)


@st.composite
def non_finite_fronts(draw):
    """Rows with infinite and NaN objectives, whose spans are infinite or NaN
    and whose gaps are NaN."""
    m = draw(st.integers(2, 4))
    value = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 0.0, 1.0]),
                      st.floats(-1e300, 1e300))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=30))
    return np.array(rows, dtype=float)


def assert_matches_loop(f):
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf give NaN
        rank = crowding_rank(f)
        order, dist = crowding_rank_loop(f)
    assert rank.order.dtype == order.dtype and rank.order.tobytes() == order.tobytes()
    assert rank.scores.tobytes() == dist.tobytes()


class TestCrowdingMatchesLoop:
    """``crowding_rank`` gives the order and distance bytes of the loop it
    replaced (``oracles.crowding_rank_loop``)."""

    @settings(max_examples=150, deadline=None)
    @given(f=edge_fronts())
    def test_exact_zero_ties(self, f):
        assert_matches_loop(f)

    @settings(max_examples=150, deadline=None)
    @given(f=repeated_fronts())
    def test_duplicate_rows(self, f):
        assert_matches_loop(f)

    @settings(max_examples=150, deadline=None)
    @given(f=non_finite_fronts())
    def test_non_finite_spans(self, f):
        assert_matches_loop(f)


class TestCrowdingRank:
    def test_three_point_front(self):
        front = np.array([[0, 2], [1, 1], [2, 0]], dtype=float)
        result = crowding_rank(front)
        assert math.isinf(result.scores[0])
        assert math.isinf(result.scores[2])
        assert result.scores[1] == pytest.approx(2.0)
        assert set(result.order[:2]) == {0, 2}
        assert result.order[2] == 1

    def test_single_point(self):
        result = crowding_rank([[1.0, 2.0]])
        assert result.order.tolist() == [0]
        assert math.isinf(result.scores[0])

    def test_two_points_both_infinite_deterministic(self):
        front = np.array([[0, 1], [1, 0]], dtype=float)
        first = crowding_rank(front)
        second = crowding_rank(front)
        assert math.isinf(first.scores[0]) and math.isinf(first.scores[1])
        assert first.order.tolist() == second.order.tolist()

    def test_empty_front_is_usage_error(self):
        with pytest.raises(ValueError):
            crowding_rank(np.empty((0, 2)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            # build a mutually non-dominated set on a descending staircase
            f1 = np.sort(rng.random(n))
            f2 = np.sort(rng.random(n))[::-1]
            front = np.column_stack([f1, f2])
            got = crowding_rank(front).scores
            want = crowding_distances_direct(front)
            for g, w in zip(got, want):
                if math.isinf(w):
                    assert math.isinf(g)
                else:
                    assert g == pytest.approx(w)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        f1 = np.sort(rng.random(8))
        f2 = np.sort(rng.random(8))[::-1]
        front = np.column_stack([f1, f2])
        base = crowding_rank(front)
        perm = rng.permutation(8)
        shuffled = crowding_rank(front[perm])
        # same order as sets: map shuffled order back to original indices
        assert [perm[i] for i in shuffled.order] == base.order.tolist()

    def test_interior_distance_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(23)
        f1 = np.sort(rng.random(7))
        f2 = np.sort(rng.random(7))[::-1]
        front = np.column_stack([f1, f2])
        scaled = front.copy()
        scaled[:, 0] = 5.0 * scaled[:, 0] + 11.0
        base = crowding_rank(front).scores
        resc = crowding_rank(scaled).scores
        for b, r in zip(base, resc):
            if not math.isinf(b):
                assert r == pytest.approx(b)


class TestNichingRank:
    def test_symmetric_two_point_association(self):
        front = np.array([[1, 0], [0, 1]], dtype=float)
        dirs = das_dennis(2, 1)  # {(1,0),(0,1)} up to ordering
        result = niching_rank(front, dirs)
        assert np.allclose(result.scores, 0.0)
        assert sorted(result.order.tolist()) == [0, 1]

    def test_lone_point_ranks_first(self):
        # two points share the f1 direction, one owns the f2 direction
        front = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        dirs = das_dennis(2, 1)
        result = niching_rank(front, dirs)
        assert result.order[0] == 2

    def test_single_point(self):
        dirs = das_dennis(2, 1)
        result = niching_rank([[0.3, 0.7]], dirs)
        assert result.order.tolist() == [0]

    def test_niche_counts_sum_to_front_size(self):
        rng = np.random.default_rng(31)
        dirs = das_dennis(3, 3)
        unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            front = rng.random((n, 3))
            lo, hi = front.min(0), front.max(0)
            span = np.where(hi - lo > 0, hi - lo, 1.0)
            normalized = np.where(hi - lo > 0, (front - lo) / span, 0.0)
            # brute-force association by computing all perpendicular distances
            counts = np.zeros(len(unit), dtype=int)
            for p in normalized:
                dists = [
                    np.linalg.norm(p - np.dot(p, u) * u) for u in unit
                ]
                counts[int(np.argmin(dists))] += 1
            assert counts.sum() == n
            niching_rank(front, dirs)  # must not raise; order is a permutation
            order = niching_rank(front, dirs).order
            assert sorted(order.tolist()) == list(range(n))

    def test_degenerate_objective_range(self):
        front = np.array([[1.0, 0.2], [1.0, 0.8]])  # first objective constant
        result = niching_rank(front, das_dennis(2, 1))
        assert sorted(result.order.tolist()) == [0, 1]


class TestDasDennis:
    def test_simplex_corners(self):
        dirs = das_dennis(3, 1)
        expect = {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
        assert {tuple(d) for d in dirs} == expect

    def test_midpoint_lattice(self):
        dirs = das_dennis(2, 2)
        expect = {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}
        assert {tuple(d) for d in dirs} == expect

    def test_three_objectives_two_divisions(self):
        assert len(das_dennis(3, 2)) == 6

    def test_counts_match_binomial(self):
        for f in range(2, 6):
            for p in range(1, 7):
                assert len(das_dennis(f, p)) == math.comb(f + p - 1, p)

    def test_rows_sum_to_one(self):
        dirs = das_dennis(4, 5)
        assert np.allclose(dirs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(dirs >= 0)

    def test_default_divisions(self):
        for f in (2, 3, 4):
            for target in (4, 16, 64, 100):
                p = default_divisions(f, target)
                assert math.comb(f + p - 1, p) >= target
                if p > 1:
                    assert math.comb(f + p - 2, p - 1) < target
