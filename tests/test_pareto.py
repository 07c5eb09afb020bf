import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pearlkit.density import crowding_rank
from pearlkit.pareto import (
    FEASIBILITY_TOL,
    ParetoArchive,
    _dominance,
    best_front,
    non_dominated_mask,
    non_dominated_sort,
)
from pearlkit.rewards import constraint_violation

from oracles import (
    OracleArchive,
    brute_force_dominates,
    brute_force_front_indices,
    constrained_dominates_scalar,
    crowding_rank_scalar,
    non_dominated_mask_scalar,
)
from rows import table_log


def assert_two_states(archive, oracle):
    """The members are all feasible, or all infeasible at one violation, in
    the archive and in the oracle alike."""
    assert len(set(archive._cv[:len(archive)].tolist())) <= 1
    assert len({m.cv for m in oracle.members}) <= 1


def pt(*f):
    """An objective vector."""
    return np.array(f, dtype=float)


def constrained_dominates(fa, cva, fb, cvb):
    """Whether point a dominates point b with feasibility first, as
    ``non_dominated_sort`` decides it on the two rows."""
    fronts = non_dominated_sort(np.array([fa, fb], dtype=float), np.array([cva, cvb]))
    return as_lists(fronts) == [[0], [1]]


def plain_dominates(a, b):
    """Whether objective vector a dominates b, as ``non_dominated_sort``
    decides it on two feasible rows."""
    fronts = non_dominated_sort(np.array([a, b], dtype=float), np.zeros(2))
    return as_lists(fronts) == [[0], [1]]


class TestDominates:
    def test_strict_improvement(self):
        assert plain_dominates((1, 2), (2, 3))

    def test_equal_vectors_never_dominate(self):
        assert not plain_dominates((1, 2), (1, 2))

    def test_incomparable_pair(self):
        assert not plain_dominates((3, 1), (1, 3))
        assert not plain_dominates((1, 3), (3, 1))

    def test_antisymmetry_and_transitivity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b, c = rng.normal(size=(3, 3))
            assert not (plain_dominates(a, b) and plain_dominates(b, a))
            if plain_dominates(a, b) and plain_dominates(b, c):
                assert plain_dominates(a, c)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.integers(0, 4, size=(2, 3)).astype(float)
            assert plain_dominates(a, b) == brute_force_dominates(a, b)


class TestSolutionInvariants:
    """The violation ``cv`` the sorts and archives read is the one each
    logged row gets from its constraint values ``g``."""

    def test_cv_zero_requires_satisfied_constraints(self):
        log = table_log(np.ones((3, 2)), [[0.5], [2 * FEASIBILITY_TOL], [np.inf]])
        assert (log.cv > 0).all()

    def test_positive_cv_requires_a_violation(self):
        log = table_log(np.ones((3, 2)), [[-1.0], [FEASIBILITY_TOL], [-np.inf]])
        assert log.cv.tolist() == [0.0, 0.0, 0.0]

    def test_negative_cv_rejected(self):
        rng = np.random.default_rng(13)
        G = rng.normal(size=(40, 3))
        G[::7, 0] = -np.inf
        log = table_log(np.ones((40, 2)), G)
        assert (log.cv >= 0).all()
        assert ((log.cv == 0) == (G <= FEASIBILITY_TOL).all(axis=1)).all()
        with pytest.raises(ValueError):
            constraint_violation([0.5], weights=[-1.0])


class TestConstrainedDominates:
    def test_feasible_beats_infeasible(self):
        assert constrained_dominates((5, 5), 0.0, (0, 0), 0.5)

    def test_larger_violation_cannot_dominate(self):
        assert not constrained_dominates((0, 0), 0.2, (9, 9), 0.1)
        assert constrained_dominates((9, 9), 0.1, (0, 0), 0.2)

    def test_feasible_pair_reduces_to_plain_dominance(self):
        assert constrained_dominates((1, 1), 0.0, (2, 2), 0.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3))
            assert constrained_dominates(a, 0.0, b, 0.0) == brute_force_dominates(a, b)


class TestDominanceMatrix:
    """``_dominance`` decides every ordered pair as the scalar
    feasibility-first relation does."""

    OBJECTIVES = np.array([0.0, -0.0, 0.5, 1.0, -2.0, np.inf, -np.inf])
    VIOLATIONS = np.array([0.0, -0.0, 0.25, 1.0, np.inf])

    def test_matches_scalar_relation_on_every_pair(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, m = int(rng.integers(1, 14)), int(rng.integers(1, 5))
            f = rng.choice(self.OBJECTIVES, (n, m))
            twins = rng.integers(0, n, int(rng.integers(0, 4)))
            f = np.vstack([f, f[twins]])
            cv = rng.choice(self.VIOLATIONS, len(f))
            d = _dominance(f, cv)
            assert d.dtype == bool and d.shape == (len(f), len(f))
            want = [[constrained_dominates_scalar(f[i], cv[i], f[j], cv[j])
                     for j in range(len(f))] for i in range(len(f))]
            assert d.tolist() == want

    def test_signed_zeros_tie_and_infinities_order(self):
        f = np.array([[0.0, np.inf], [-0.0, np.inf], [0.0, 1.0], [-np.inf, 1.0]])
        d = _dominance(f, np.zeros(4))
        assert not d[0, 1] and not d[1, 0]  # twins up to the sign of zero
        assert d[2, 0] and d[2, 1] and d[3, 2] and d[3, 0]
        assert not d.diagonal().any()


def as_lists(fronts):
    return [front.tolist() for front in fronts]


class TestNonDominatedSort:
    def test_three_point_example(self):
        f = np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
        assert as_lists(non_dominated_sort(f, np.zeros(3))) == [[1, 2], [0]]

    def test_single_point(self):
        assert as_lists(non_dominated_sort(np.array([[1.0, 2.0]]), np.zeros(1))) == [[0]]

    def test_antichain_is_one_front(self):
        f = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert as_lists(non_dominated_sort(f, np.zeros(4))) == [[0, 1, 2, 3]]

    def test_empty_population_is_usage_error(self):
        with pytest.raises(ValueError, match="empty population"):
            non_dominated_sort(np.empty((0, 2)), np.empty(0))

    def test_every_index_appears_once(self):
        rng = np.random.default_rng(5)
        f = rng.integers(0, 5, (30, 3)).astype(float)
        fronts = non_dominated_sort(f, np.zeros(30))
        assert all(np.all(np.diff(front) > 0) for front in fronts)
        flat = sorted(i for front in fronts for i in front.tolist())
        assert flat == list(range(30))

    def test_front_zero_matches_brute_force_plain_and_constrained(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            objs = rng.integers(0, 5, size=(n, 3)).astype(float)
            expected = brute_force_front_indices(objs, brute_force_dominates)
            assert non_dominated_sort(objs, np.zeros(n))[0].tolist() == expected

            cvs = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))

            def cdom(i, j):
                return constrained_dominates_scalar(objs[i], cvs[i], objs[j], cvs[j])

            expected_c = [
                i for i in range(n)
                if not any(cdom(j, i) for j in range(n) if j != i)
            ]
            assert non_dominated_sort(objs, cvs)[0].tolist() == expected_c

    def test_later_fronts_are_nested_brute_force(self):
        rng = np.random.default_rng(23)
        objs = rng.integers(0, 4, size=(12, 2)).astype(float)
        fronts = non_dominated_sort(objs, np.zeros(12))
        remaining = list(range(12))
        for front in as_lists(fronts):
            expected = [remaining[i] for i in brute_force_front_indices(
                [objs[i] for i in remaining], brute_force_dominates)]
            assert front == expected
            remaining = [i for i in remaining if i not in front]


def first_occurrences(indices, rows):
    """The indices whose row has not appeared at an earlier index."""
    seen, out = set(), []
    for i in indices:
        key = tuple(np.asarray(rows[i]).tolist())
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


# Rows on a small integer grid, with zeros of either sign, so that ties,
# duplicates and 0.0/-0.0 twins turn up often.
_grid_rows = st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]), min_size=m, max_size=m),
    max_size=300).map(lambda rows: np.array(rows, dtype=float).reshape(-1, m)))


class TestNonDominatedMask:
    def test_matches_brute_force_min_sense(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            pts = rng.integers(0, 6, size=(rng.integers(1, 40), 3)).astype(float)
            mask = non_dominated_mask(pts)
            expected = brute_force_front_indices(pts, brute_force_dominates)
            assert np.flatnonzero(mask).tolist() == first_occurrences(expected, pts)

    def test_duplicates_keep_first_occurrence(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        assert non_dominated_mask(pts).tolist() == [True, False, False]

    @settings(max_examples=300, deadline=None)
    @given(pts=_grid_rows)
    def test_matches_scalar_oracle(self, pts):
        assert np.array_equal(non_dominated_mask(pts), non_dominated_mask_scalar(pts))

    def test_sweep_across_blocks(self):
        # 300 mutually non-dominated rows over three blocks, copies of some of
        # them, and a dominated row that sorts first in the second block, so
        # only rows of the first block dominate it
        t = np.arange(300) / 300
        line = np.column_stack([t, 1.0 - t])
        pts = np.vstack([line, line[::7], [[127.5 / 300, 1.0]]])
        assert np.array_equal(non_dominated_mask(pts), non_dominated_mask_scalar(pts))
        assert np.flatnonzero(non_dominated_mask(pts)).tolist() == list(range(300))


class TestParetoArchive:
    def test_dominating_insert_into_singleton(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(2, 2), 0.0, 0, crowding_rank)
        rank = archive.insert(pt(1, 1), 0.0, 1, crowding_rank)
        assert rank == 0
        assert len(archive) == 1
        assert archive.rows().tolist() == [1]
        assert archive.objectives().tolist() == [[1.0, 1.0]]

    def test_dominated_insert_rejected(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(1, 1), 0.0, 0, crowding_rank)
        assert archive.insert(pt(2, 2), 0.0, 1, crowding_rank) is None
        assert archive.rows().tolist() == [0]

    def test_interior_point_evicted_at_capacity(self):
        archive = ParetoArchive(capacity=2)
        archive.insert(pt(0, 2), 0.0, 0, crowding_rank)
        archive.insert(pt(2, 0), 0.0, 1, crowding_rank)
        rank = archive.insert(pt(1, 1), 0.0, 2, crowding_rank)
        assert rank == 2
        assert sorted(archive.rows().tolist()) == [0, 1]
        kept = sorted(map(tuple, archive.objectives().tolist()))
        assert kept == [(0.0, 2.0), (2.0, 0.0)]

    def test_duplicate_objectives_rejected(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(1, 2), 0.0, 0, crowding_rank)
        assert archive.insert(pt(1, 2), 0.0, 1, crowding_rank) is None
        assert archive.rows().tolist() == [0]

    def test_random_insert_sequence_keeps_invariants(self):
        rng = np.random.default_rng(31)
        archive = ParetoArchive(capacity=6)
        for row in range(300):
            archive.insert(rng.random(3) * 4, 0.0, row, crowding_rank)
            assert len(archive) <= 6
            objs = archive.objectives()
            for i, a in enumerate(objs):
                for j, b in enumerate(objs):
                    if i != j:
                        assert not brute_force_dominates(a, b)

    def test_unbounded_add(self):
        archive = ParetoArchive(capacity=None)
        rng = np.random.default_rng(37)
        for row in range(200):
            archive.add(rng.random(2) * 4, 0.0, row)
        objs = archive.objectives()
        assert non_dominated_mask(objs).all()

    def test_empty_archive_has_no_rows(self):
        rows = ParetoArchive(capacity=4).rows()
        assert rows.shape == (0,) and rows.dtype == np.intp

    def test_rows_returns_a_copy(self):
        archive = ParetoArchive(capacity=None)
        archive.add(pt(1, 2), 0.0, 5)
        archive.rows()[0] = 9
        assert archive.rows().tolist() == [5]

    def test_constrained_relation_feasible_displaces_infeasible(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(5, 5), 0.4, 0, crowding_rank)
        archive.insert(pt(6, 6), 0.2, 1, crowding_rank)
        rank = archive.insert(pt(0, 0), 0.0, 2, crowding_rank)
        assert rank == 0
        assert archive.rows().tolist() == [2]

    @pytest.mark.parametrize("capacity", [2.5, True, "3", 0, -1])
    def test_capacity_checked_when_built(self, capacity):
        with pytest.raises(ValueError, match="capacity must be a positive integer"):
            ParetoArchive(capacity=capacity)

    def test_integral_capacity_kept_as_int(self):
        assert ParetoArchive(capacity=np.int64(3)).capacity == 3
        assert type(ParetoArchive(capacity=np.int64(3)).capacity) is int
        assert ParetoArchive(capacity=None).capacity is None

    def test_lower_violation_evicts_every_member(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(0, 2), 0.5, 0, crowding_rank)
        archive.insert(pt(2, 0), 0.5, 1, crowding_rank)
        assert archive.insert(pt(3, 3), 0.7, 2, crowding_rank) is None
        assert archive.insert(pt(3, 3), 0.2, 3, crowding_rank) == 0
        assert archive.rows().tolist() == [3]

    def test_infeasible_twin_of_equal_violation_rejected(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(1, 2), 0.5, 0, crowding_rank)
        assert archive.insert(pt(1, 2), 0.5, 1, crowding_rank) is None
        # not a twin: kept beside the member, which it neither beats nor loses to
        assert archive.insert(pt(0, 0), 0.5, 2, crowding_rank) is not None
        assert sorted(archive.rows().tolist()) == [0, 2]

    def test_feasible_duplicate_replaces_infeasible_twin(self):
        archive = ParetoArchive(capacity=4)
        archive.insert(pt(1, 2), 0.3, 0, crowding_rank)
        rank = archive.insert(pt(1, 2), 0.0, 1, crowding_rank)
        assert rank == 0
        assert archive.rows().tolist() == [1]


# Integer-grid objectives and a few violation levels, so duplicates, ties and
# feasible/infeasible twins turn up often.
_point = st.tuples(
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.sampled_from([0.0, 0.0, 0.5, 1.0]),
)


class TestArchiveMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.one_of(st.none(), st.integers(1, 8)),
           points=st.lists(_point, min_size=1, max_size=40))
    def test_insert_and_add_match_scalar_oracle(self, capacity, points):
        archive = ParetoArchive(capacity=capacity)
        oracle = OracleArchive(capacity=capacity)
        for row, (f, cv) in enumerate(points):
            f = np.array(f, dtype=float)
            if capacity is None:
                assert archive.add(f, cv, row) == oracle.add(f, cv, row)
            else:
                assert (archive.insert(f, cv, row, crowding_rank)
                        == oracle.insert(f, cv, row, crowding_rank_scalar))
            assert archive.rows().tolist() == oracle.rows()
            assert_two_states(archive, oracle)

            members = oracle.members
            if capacity is not None:
                assert len(members) <= capacity
            for a in members:
                for b in members:
                    assert a is b or not oracle.rel(a, b)


# Three objectives on a 0..6 grid and a few violation levels.  A run opens
# with points of the plane a + b + c = 9, whose 37 points form an antichain,
# so the archive's arrays grow past their first allocation; it goes on with
# points from the whole grid, where one point of a higher level evicts many
# members at once.
def _grid_points(objectives):
    return st.tuples(st.sampled_from(objectives), st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]))


_GRID = [[a, b, c] for a in range(7) for b in range(7) for c in range(7)]
_points3 = st.builds(
    lambda head, tail: head + tail,
    st.lists(_grid_points([p for p in _GRID if sum(p) == 9]), min_size=20, max_size=60),
    st.lists(_grid_points(_GRID), min_size=1, max_size=60),
)


class TestArchiveArraysMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.one_of(st.none(), st.integers(1, 40)),
           points=_points3)
    def test_arrays_stay_in_step_with_members(self, capacity, points):
        archive = ParetoArchive(capacity=capacity)
        oracle = OracleArchive(capacity=capacity)
        F = np.array([f for f, _ in points], dtype=float)
        CV = np.array([cv for _, cv in points])
        for row in range(len(points)):
            if capacity is None:
                assert archive.add(F[row], CV[row], row) == oracle.add(F[row], CV[row], row)
            else:
                assert (archive.insert(F[row], CV[row], row, crowding_rank)
                        == oracle.insert(F[row], CV[row], row, crowding_rank_scalar))
            rows = archive.rows()
            assert rows.tolist() == oracle.rows()
            assert_two_states(archive, oracle)

            objs = archive.objectives()
            np.testing.assert_array_equal(objs, F[rows])
            assert archive._cv[:len(archive)].tolist() == CV[rows].tolist()
            objs += 1.0
            np.testing.assert_array_equal(archive.objectives(), F[rows])


class TestBestFront:
    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(_point, min_size=1, max_size=60))
    def test_feasible_case_is_distinct_front_zero(self, points):
        f = np.array([f for f, _ in points] + [[3, 3]], dtype=float)
        cv = np.array([cv for _, cv in points] + [0.0])
        front0 = non_dominated_sort(f, cv)[0].tolist()
        assert best_front(f, cv).tolist() == first_occurrences(front0, f)

    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(_point, min_size=1, max_size=60))
    def test_infeasible_case_is_distinct_front_of_least_violation(self, points):
        f = np.array([f for f, _ in points], dtype=float)
        cv = np.array([cv + 0.25 for _, cv in points])
        group = np.flatnonzero(cv == cv.min()).tolist()
        front = [group[k] for k in brute_force_front_indices(
            [f[i] for i in group], brute_force_dominates)]
        assert best_front(f, cv).tolist() == first_occurrences(front, f)

    def test_empty(self):
        assert best_front(np.empty((0, 2)), np.empty(0)).tolist() == []
