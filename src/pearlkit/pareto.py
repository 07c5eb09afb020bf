"""Dominance relations, non-dominated sorting, and bounded Pareto archives.

Every objective is minimized, and objective vectors are stored exactly as
the problem returns them.

One dominance relation is used everywhere, feasibility first (after Deb et
al., IEEE TEC 2002): a feasible point (violation ``cv == 0``) beats an
infeasible one, the lower violation wins between two infeasible points, and
plain dominance on the objectives decides between two feasible ones.  When
every violation is 0, as on an unconstrained problem, it is plain
dominance.  ``_dominance`` is its array form for the sort: a boolean matrix
over one set, its plain part read off a single "no worse everywhere" matrix
and its transpose.  ``ParetoArchive`` decides most candidates from the one
violation its members share, and compares the rest against all its members
in a single broadcast.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

# Per-constraint feasibility threshold; raw constraint values g <= tol count
# as satisfied so boundary noise does not flip feasibility.
FEASIBILITY_TOL = 1e-12

_BLOCK = 128  # rows per block of the sweep in ``non_dominated_mask``


def _positive_int(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is a positive integer (a
    float or a bool is not, even when it equals one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    return int(value)


# the rules a real setting may be held to, each named as its error states it
_REAL_RULES = {
    "positive and finite": lambda v: 0 < v < math.inf,
    "nonnegative and finite": lambda v: 0 <= v < math.inf,
    "nonnegative": lambda v: v >= 0,
    "finite": math.isfinite,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def _real(name: str, value, rule: str) -> float:
    """``value`` as a float; ValueError unless it is a real number (a bool
    or a string is not) that is ``rule``, a key of ``_REAL_RULES``.  The
    type is checked before the rule, so a string names its key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    if not _REAL_RULES[rule](value):
        raise ValueError(f"{name} must be {rule}, not {value!r}")
    return float(value)


def _dominance(f: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """D[i, j] is True when row i of ``f`` (violation ``cv[i]``) dominates
    row j, feasibility first as set out in the module docstring.

    Plain dominance comes from one boolean matrix: ``le[i, j]`` is True when
    row i is no worse than row j in every objective, reduced over the first
    axis of the transposed rows, and i dominates j when ``le[i, j]`` holds
    and ``le[j, i]`` does not.
    """
    t = np.ascontiguousarray(f.T)
    le = (t[:, :, None] <= t[:, None, :]).all(axis=0)
    plain = le & ~le.T
    feas = cv == 0.0
    lower_cv = cv[:, None] < cv[None, :]
    return np.where(feas[:, None] & feas[None, :], plain,
                    feas[:, None] | (~feas[None, :] & lower_cv))


def non_dominated_sort(f: np.ndarray, cv: np.ndarray) -> list[np.ndarray]:
    """Sort objective rows ``f`` with violations ``cv`` into non-domination
    fronts: arrays of ascending row indices, best front first.

    Front 0 holds the rows dominated by nobody; each later front is
    non-dominated once earlier fronts are removed.  Every row appears in
    exactly one front.
    """
    if len(f) == 0:
        raise ValueError("cannot sort an empty population")
    d = _dominance(f, cv)
    dominated_count = d.sum(axis=0)
    fronts: list[np.ndarray] = []
    remaining = np.ones(len(f), dtype=bool)
    while remaining.any():
        current = np.flatnonzero(remaining & (dominated_count == 0))
        fronts.append(current)
        remaining[current] = False
        dominated_count -= d[current].sum(axis=0)
    return fronts


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct non-dominated row of
    ``points``.

    The distinct rows are swept in lexicographic order, where only an earlier
    row can dominate a later one (Kung, Luccio & Preparata, J. ACM 1975), and
    an earlier distinct row dominates exactly when it is no worse in every
    column after the first.  Each block of ``_BLOCK`` rows is compared with
    the rows kept so far and, through the strict upper triangle, with itself.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    rows, first = np.unique(pts, axis=0, return_index=True)
    # one row per column, so that comparisons reduce over the (fast) first axis
    tail = np.ascontiguousarray(rows[:, 1:].T)
    keep = np.zeros(len(rows), dtype=bool)
    later = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), k=1)
    for start in range(0, len(rows), _BLOCK):
        block = tail[:, start:start + _BLOCK]
        n = block.shape[1]
        kept = tail[:, :start][:, keep[:start]]
        within = (block[:, :, None] <= block[:, None, :]).all(axis=0) & later[:n, :n]
        across = (kept[:, :, None] <= block[:, None, :]).all(axis=0)
        keep[start:start + n] = ~(within.any(axis=0) | across.any(axis=0))
    mask = np.zeros(len(pts), dtype=bool)
    mask[first[keep]] = True
    return mask


def best_front(f: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Indices of the feasibility-first non-dominated rows of a large set.

    The non-dominated subset, by objectives ``f`` alone, of the feasible
    rows when any exist (front 0 of the sort), else of the rows
    of least violation ``cv`` (not front 0, where equal violations tie).
    Each distinct objective row appears once, at its first occurrence; the
    indices ascend.
    """
    if len(f) == 0:
        return np.empty(0, dtype=np.intp)
    pool = np.flatnonzero(cv == cv.min())  # cv >= 0: the feasible ones if any
    return pool[non_dominated_mask(f[pool])]


class ParetoArchive:
    """Bounded buffer of mutually non-dominated solutions.

    The archive is the per-worker memory used by the rank-based reward
    engines, which insert with a ranker and a fixed capacity (a positive
    integer, checked when the archive is built).
    ``capacity=None`` with ``add`` gives an unbounded, unranked archive.
    Dominance is feasibility first, so a feasible point displaces every
    infeasible member and infeasible points are ordered by violation alone.
    The members are therefore in one of two states: all feasible, or all
    infeasible at one shared violation.  A candidate is first compared with
    that violation: a larger one is rejected at the cost of one scalar
    comparison, and a smaller one evicts every member.  Only a candidate of
    the same violation meets the members' objectives, in one broadcast
    comparison and one reduction for a reject (a feasible candidate: is some
    member no worse everywhere; an infeasible one: is some member its twin).

    Members are evaluation-log rows.  Entry ``i < len(archive)`` of ``_row``
    names the row of member ``i``, and row ``i`` of ``_f`` and entry ``i`` of
    ``_cv`` hold its objectives and violation; every change (compaction on
    eviction, append, reorder and truncation on a ranked insert) moves the
    three arrays together.  They start with ``capacity + 1`` entries (room
    for one candidate beyond a full archive) and double when full.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = None if capacity is None else _positive_int("capacity", capacity)
        self._n = 0
        self._f = np.empty((0, 0))
        self._cv = np.empty(0)
        self._row = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return self._n

    def objectives(self) -> np.ndarray:
        return self._f[:self._n].copy()

    def rows(self) -> np.ndarray:
        """The members' evaluation-log rows, in archive order."""
        return self._row[:self._n].copy()

    def _grow(self, n_obj: int):
        n = self._n
        size = max(2 * n, 16 if self.capacity is None else self.capacity + 1)
        f, cv, row = np.empty((size, n_obj)), np.empty(size), np.empty(size, dtype=np.intp)
        if n:
            f[:n], cv[:n], row[:n] = self._f[:n], self._cv[:n], self._row[:n]
        self._f, self._cv, self._row = f, cv, row

    def _admit(self, f: np.ndarray, cv: float, row: int) -> bool:
        """Append the point of objectives ``f`` and violation ``cv`` (not
        NaN), logged at ``row``, after dropping the members it dominates.

        The point is rejected (False, archive untouched) when a member
        dominates it, or when it duplicates the objectives of a member it
        does not itself beat (clone flooding guard).  The members share one
        violation, so the point is compared with that one first; only a
        point of the same violation is compared with the members' objectives.
        """
        n = self._n
        if n == len(self._f):
            self._grow(len(f))
        if n:
            held = self._cv[0]
            if cv > held:  # a member of lower violation dominates the point
                return False
            if cv < held:  # the point dominates every member
                n = 0
            elif cv == 0.0:
                mf = self._f[:n]
                if (mf <= f).all(axis=1).any():  # a member dominates it, or is its twin
                    return False
                evict = (mf >= f).all(axis=1)
                if evict.any():
                    keep = ~evict
                    n = int(keep.sum())
                    self._f[:n], self._cv[:n], self._row[:n] = (
                        mf[keep], self._cv[:self._n][keep], self._row[:self._n][keep])
            elif (self._f[:n] == f).all(axis=1).any():
                # only the violation orders infeasible points: a twin of
                # equal violation is a duplicate, and no other member is
                # dominated by the point or dominates it
                return False
        self._f[n], self._cv[n], self._row[n] = f, cv, row
        self._n = n + 1
        return True

    def add(self, f: np.ndarray, cv: float, row: int) -> bool:
        """Dominance-only insert (no ranking) of the point ``f``, ``cv``
        logged at ``row``.  Returns True if kept."""
        if not self._admit(f, cv, row):
            return False
        if self.capacity is not None and self._n > self.capacity:
            raise RuntimeError("bounded archive overflow: use insert() with a ranker")
        return True

    def insert(self, f: np.ndarray, cv: float, row: int, ranker) -> Optional[int]:
        """Ranked insert of the point ``f``, ``cv`` logged at ``row``.

        Members the point dominates are dropped; if it is itself dominated
        the archive is left untouched and None is returned.  Otherwise the
        new member set is ordered by ``ranker`` (a callable on the stacked
        objective vectors, passed as a view of the archive's own rows that it
        must not modify, returning an object with a best-first ``order``),
        the archive is truncated to its ``capacity`` best-ranked members, and
        the rank of the point is returned.  A returned rank equal to or
        beyond the capacity means the point was evicted right away.
        """
        if not self._admit(f, cv, row):
            return None
        n = self._n
        order = np.asarray(ranker(self._f[:n]).order, dtype=int)
        pos = order.tolist().index(n - 1)
        kept = order[: self.capacity]
        self._n = len(kept)
        self._f[:self._n], self._cv[:self._n], self._row[:self._n] = (
            self._f[kept], self._cv[kept], self._row[kept])
        return pos
