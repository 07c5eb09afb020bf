"""Density-based ranking of non-dominated sets.

Two rankers order the members of a Pareto archive: crowding distance
(neighbor-gap based) and reference-direction niching (association counts
against a simplex lattice of directions).  Both are pure functions of the
stacked objective vectors and break ties deterministically so that runs
reproduce under a fixed seed.  Objectives are minimized, as everywhere in
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class DensityRank:
    """Result of a density ranking.

    ``order`` lists member indices best-first; ``scores`` holds the raw
    per-member diagnostic (crowding distance, or perpendicular distance to
    the associated direction for niching), aligned with the input order.
    """

    order: np.ndarray
    scores: np.ndarray


def row_keys(f: np.ndarray) -> tuple:
    """The columns of ``f`` as ``np.lexsort`` keys, last column first, so
    that they order the rows lexicographically: the final tie-break of
    ``best_first``."""
    return tuple(f.T[::-1])


def best_first(f: np.ndarray, *keys: np.ndarray, rows: tuple | None = None) -> np.ndarray:
    """Indices of the rows of ``f`` in best-first order: the one tie-break
    rule of every rank.

    Rows sort ascending by ``keys[0]``, ties by ``keys[1]`` and so on, then
    lexicographically on the rows of ``f``, then by index (the sort is
    stable).  Negate a key to prefer larger values.  A caller that sorts one
    ``f`` many times passes ``rows=row_keys(f)`` built once.
    """
    return np.lexsort((row_keys(f) if rows is None else rows) + keys[::-1])


def minmax_normalize(f: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map ``f`` componentwise from ``[lo, hi]`` to ``[0, 1]``; a degenerate
    range (``hi <= lo``) maps to 0."""
    span = hi - lo
    return np.where(span > 0, (f - lo) / np.where(span > 0, span, 1.0), 0.0)


def crowding_rank(front) -> DensityRank:
    """Rank a mutually non-dominated set by crowding distance, best first.

    Boundary points of every objective get infinite distance; an interior
    point accumulates, per objective, the gap between its two neighbors
    normalized by that objective's range.  Larger distance ranks better.
    Ties break on smaller objective sum, then lexicographically on the
    objective vector, so the order is a pure function of the set.
    """
    f = np.atleast_2d(np.asarray(front, dtype=float))
    if len(f) == 0:
        raise ValueError("crowding_rank needs a non-empty front")
    rows = row_keys(f)
    dist = np.zeros(len(f))
    for col in f.T:
        idx = best_first(f, col, rows=rows)
        s = col[idx]
        dist[idx[0]] = dist[idx[-1]] = math.inf
        span = s[-1] - s[0]
        if span > 0:  # boundary points stay infinite: inf + finite is inf
            dist[idx[1:-1]] += (s[2:] - s[:-2]) / span
    return DensityRank(order=best_first(f, -dist, f.sum(axis=1), rows=rows), scores=dist)


def associate(normalized: np.ndarray, dirs: np.ndarray):
    """Associate normalized points to their closest reference direction
    (``dirs`` holds one direction per row).

    Returns ``(niche_index, perpendicular_distance)`` per point.  Distance is
    measured from the point to the ray through the origin along each
    direction; ties in the argmin resolve to the lowest direction index.
    """
    p = np.atleast_2d(np.asarray(normalized, dtype=float))
    d = np.asarray(dirs, dtype=float)
    unit = d / np.linalg.norm(d, axis=1, keepdims=True)
    proj = p @ unit.T
    sq = np.sum(p * p, axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.clip(sq, 0.0, None))
    niche = np.argmin(dist, axis=1)
    return niche, dist[np.arange(len(p)), niche]


def niching_rank(front, dirs: np.ndarray) -> DensityRank:
    """Rank a mutually non-dominated set by niche occupancy, best first.

    Objectives are normalized to [0, 1] by the front's own componentwise
    min/max (a degenerate objective range collapses to coordinate 0).  Each
    point joins the direction of minimum perpendicular distance; points in
    less populated niches rank better, ties break on smaller perpendicular
    distance and then lexicographically on the objective vector.
    """
    f = np.atleast_2d(np.asarray(front, dtype=float))
    if len(f) == 0:
        raise ValueError("niching_rank needs a non-empty front")
    niche, dist = associate(minmax_normalize(f, f.min(axis=0), f.max(axis=0)), dirs)
    counts = np.bincount(niche, minlength=len(dirs))
    return DensityRank(order=best_first(f, counts[niche], dist), scores=dist)


def das_dennis(n_obj: int, divisions: int) -> np.ndarray:
    """Systematic simplex-lattice directions: coordinates k_i / p, sum k_i = p.

    Returns one row per direction: binomial(F + p - 1, p) rows, each
    nonnegative and summing to 1."""
    if n_obj < 2:
        raise ValueError("need at least 2 objectives")
    if divisions < 1:
        raise ValueError("divisions must be >= 1")
    # the counts k_1..k_{m-1} in lexicographic order, one column at a time:
    # each row left with r units spawns the rows k = 0..r in turn
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([divisions])
    for _ in range(n_obj - 1):
        spawn = left + 1
        k = np.arange(spawn.sum()) - np.repeat(np.cumsum(spawn) - spawn, spawn)
        counts = np.column_stack([np.repeat(counts, spawn, axis=0), k])
        left = np.repeat(left, spawn) - k
    return np.column_stack([counts, left]) / divisions


def default_divisions(n_obj: int, min_count: int) -> int:
    """Smallest lattice resolution giving at least ``min_count`` directions."""
    p = 1
    while math.comb(n_obj + p - 1, p) < min_count:
        p += 1
    return p
