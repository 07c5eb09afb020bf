"""Every best-first rank order agrees with its scalar tuple-key reference.

Objectives are drawn from a small grid so that ties in the primary key, equal
objective vectors and constant columns turn up often; fronts of one and two
points are included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pearlkit.density import crowding_rank, das_dennis, niching_rank
from pearlkit.nsga import _selection_order, _survivors_nsga2, _survivors_nsga3
from pearlkit.pareto import non_dominated_sort
from pearlkit.rewards import PearlEpsilon

from oracles import (
    crowding_rank_scalar,
    epsilon_rank_scalar,
    niching_rank_scalar,
    nsga3_survivors_scalar,
    selection_order_sorted,
)

_GRID = [0.0, 0.25, 1.0 / 3.0, 1.0, 2.0, -1.5]


@st.composite
def fronts(draw, min_size=1, max_size=12):
    n = draw(st.integers(min_size, max_size))
    m = draw(st.integers(2, 4))
    columns = []
    for _ in range(m):
        if draw(st.integers(0, 4)) == 0:
            columns.append([draw(st.sampled_from(_GRID))] * n)
        else:
            columns.append(draw(st.lists(st.sampled_from(_GRID), min_size=n, max_size=n)))
    return np.array(columns, dtype=float).T


class TestOrdersMatchScalarOracles:
    @settings(max_examples=300, deadline=None)
    @given(f=fronts())
    def test_crowding(self, f):
        rank = crowding_rank(f)
        order, scores = crowding_rank_scalar(f)
        assert np.array_equal(rank.order, order)
        assert np.array_equal(rank.scores, scores)

    @settings(max_examples=300, deadline=None)
    @given(f=fronts(), divisions=st.integers(1, 4))
    def test_niching(self, f, divisions):
        dirs = das_dennis(f.shape[1], divisions)
        rank = niching_rank(f, dirs)
        order, scores = niching_rank_scalar(f, dirs)
        assert np.array_equal(rank.order, order)
        assert np.array_equal(rank.scores, scores)

    @settings(max_examples=300, deadline=None)
    @given(f=fronts(), seen=fronts(max_size=4), nu=st.sampled_from([0.05, 1.0]))
    def test_epsilon(self, f, seen, nu):
        engine = PearlEpsilon(kappa=8, nu=nu)
        # the running bounds cover the members and possibly wider past points
        for row in f:
            engine.bounds.update(row)
        if seen.shape[1] == f.shape[1]:
            for row in seen:
                engine.bounds.update(row)
        rank = engine._ranker(f)
        order, scores = epsilon_rank_scalar(f, engine.bounds.lo, engine.bounds.hi, nu)
        assert np.array_equal(rank.order, order)
        assert np.array_equal(rank.scores, scores)

    @settings(max_examples=300, deadline=None)
    @given(f=fronts(min_size=2, max_size=24),
           cv=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=24, max_size=24),
           n=st.integers(1, 23), divisions=st.integers(1, 4))
    def test_nsga3_survivors(self, f, cv, n, divisions):
        cv = np.array(cv[: len(f)])
        n = min(n, len(f) - 1)
        dirs = das_dennis(f.shape[1], divisions)
        got, _ = _survivors_nsga3(f, cv, n, dirs)
        assert got.tolist() == nsga3_survivors_scalar(f, cv, n, dirs)


class TestCarriedFronts:
    @settings(max_examples=300, deadline=None)
    @given(f=fronts(min_size=1, max_size=20),
           cv=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=24, max_size=24),
           twins=st.integers(0, 4), n=st.integers(1, 27), whole=st.integers(0, 3),
           divisions=st.integers(1, 4))
    def test_survivor_fronts_equal_a_fresh_sort(self, f, cv, twins, n, whole, divisions):
        # the first rows again as twins; n may exceed the rows, as a pool does
        # after failed offspring, or end a front, so that need == 0
        f = np.vstack([f, f[:twins]])
        cv = np.array(cv[: len(f)])
        if whole:
            n = sum(len(front) for front in non_dominated_sort(f, cv)[:whole])
        dirs = das_dennis(f.shape[1], divisions)
        for chosen, sizes in (_survivors_nsga2(f, cv, n), _survivors_nsga3(f, cv, n, dirs)):
            assert len(chosen) == sum(sizes) == min(n, len(f))
            ends = np.cumsum(sizes)
            blocks = [list(range(end - size, end)) for size, end in zip(sizes, ends)]
            fresh = non_dominated_sort(f[chosen], cv[chosen])
            assert [front.tolist() for front in fresh] == blocks
            assert np.array_equal(_selection_order(f[chosen], sizes),
                                  selection_order_sorted(f[chosen], cv[chosen]))
