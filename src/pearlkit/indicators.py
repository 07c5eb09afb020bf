"""Multi-objective quality indicators and best-solution selection.

All metrics minimize, on objective values exactly as the problems return
them, the same sense as every other module.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .density import best_first
from .pareto import non_dominated_mask


def hypervolume(front, ref) -> float:
    """Exact dominated hypervolume against a reference point (minimization).

    The value is the Lebesgue measure of the union of boxes spanned between
    each front point and the reference.  Points that do not strictly
    dominate the reference contribute nothing and are filtered out.  Exact
    algorithms are provided for two objectives (dimension sweep) and three
    (sweep over slices); more are out of range.
    """
    f = np.asarray(front, dtype=float)
    r = np.asarray(ref, dtype=float)
    if f.size == 0:
        return 0.0
    f = np.atleast_2d(f)
    if f.shape[1] != r.size:
        raise ValueError("front and reference point dimensions differ")
    if f.shape[1] == 2:
        return _hv2d(f[np.all(f < r, axis=1)], r)
    if f.shape[1] == 3:
        return _hv3d(f[np.all(f < r, axis=1)], r)
    raise ValueError("hypervolume supports 2 or 3 objectives only")


def _hv2d(f: np.ndarray, ref: np.ndarray) -> float:
    if len(f) == 0:
        return 0.0
    order = np.lexsort((f[:, 1], f[:, 0]))
    total = 0.0
    ceiling = ref[1]
    for i in order:
        x, y = f[i]
        if y < ceiling:
            total += (ref[0] - x) * (ceiling - y)
            ceiling = y
    return float(total)


def _hv3d(f: np.ndarray, ref: np.ndarray) -> float:
    # Sweep slices of increasing f3; maintain the 2-D staircase of the points
    # seen so far together with its dominated area, updated incrementally.
    if len(f) == 0:
        return 0.0
    order = np.lexsort((f[:, 0], f[:, 1], f[:, 2]))
    zs = f[order, 2]
    xs: list[float] = []  # staircase x, strictly increasing
    ys: list[float] = []  # staircase y, strictly decreasing
    area = 0.0
    total = 0.0
    r0, r1, r2 = (float(v) for v in ref)
    for pos, i in enumerate(order):
        a, b = float(f[i, 0]), float(f[i, 1])
        area = _staircase_insert(xs, ys, a, b, r0, r1, area)
        depth_end = zs[pos + 1] if pos + 1 < len(order) else r2
        total += area * (depth_end - zs[pos])
    return float(total)


def _staircase_insert(xs, ys, a, b, r0, r1, area):
    i = bisect.bisect_left(xs, a)
    if i > 0 and ys[i - 1] <= b:
        return area  # dominated in the 2-D slice
    if i < len(xs) and xs[i] == a and ys[i] <= b:
        return area
    ceiling = ys[i - 1] if i > 0 else r1
    # remove the staircase points the new one dominates, fixing up the area
    j = i
    prev = ceiling
    while j < len(xs) and ys[j] >= b:
        area -= (r0 - xs[j]) * (prev - ys[j])
        prev = ys[j]
        j += 1
    if j < len(xs):
        area += (r0 - xs[j]) * (b - prev)  # survivor's ceiling drops to b
    area += (r0 - a) * (ceiling - b)
    del xs[i:j]
    del ys[i:j]
    xs.insert(i, a)
    ys.insert(i, b)
    return area


_DISTANCE_BLOCK = 32_768  # pair distances per block; bounds the temporaries


def _nearest_distances(points: np.ndarray, targets: np.ndarray,
                       chebyshev: bool = False, signed: bool = False) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``targets``:
    Euclidean, or the largest coordinate difference when ``chebyshev``.
    When ``signed``, the distance from ``p`` to ``t`` is the shift
    ``max_k (t_k - p_k)``, the smallest that lets ``t`` weakly dominate
    ``p``; it is negative when ``t`` dominates ``p`` with a margin.

    Rows are taken a block at a time and objectives one at a time, so the
    temporaries hold about ``_DISTANCE_BLOCK`` pair distances.  Squares are
    summed objective by objective and the root taken after the minimum, the
    order a scalar loop (and a k-d tree query) uses for up to three
    objectives.
    """
    if points.shape[1] != targets.shape[1]:
        raise ValueError("point and target dimensions differ")
    if signed:
        # (-p) - (-t) is t - p bit for bit; -(p - t) would make a tie -0.0
        points, targets = -points, -targets
        term, fold = np.positive, np.maximum
    else:
        term, fold = (np.abs, np.maximum) if chebyshev else (np.square, np.add)
    rows = max(1, _DISTANCE_BLOCK // len(targets))
    acc = np.empty((min(rows, len(points)), len(targets)))
    diff = np.empty_like(acc)
    nearest = np.empty(len(points))
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        a, d = acc[:len(block)], diff[:len(block)]
        term(np.subtract.outer(block[:, 0], targets[:, 0], out=a), out=a)
        for k in range(1, points.shape[1]):
            term(np.subtract.outer(block[:, k], targets[:, k], out=d), out=d)
            fold(a, d, out=a)
        a.min(axis=1, out=nearest[start:start + len(block)])
    return nearest if chebyshev or signed else np.sqrt(nearest, out=nearest)


def gd(front, reference) -> float:
    """Mean distance from each front point to its nearest reference point."""
    f = np.atleast_2d(np.asarray(front, dtype=float))
    r = np.atleast_2d(np.asarray(reference, dtype=float))
    if f.size == 0 or r.size == 0:
        raise ValueError("gd needs non-empty sets")
    return float(np.mean(_nearest_distances(f, r)))


def igd(front, reference) -> float:
    """Mean distance from each reference point to its nearest front point."""
    return gd(reference, front)


def additive_epsilon(front, reference) -> float:
    """Smallest uniform shift making the front weakly dominate the reference.

    ``max_z min_a max_i (a_i - z_i)`` in minimization sense; negative values
    mean the front already dominates the reference with margin.
    """
    f = np.atleast_2d(np.asarray(front, dtype=float))
    z = np.atleast_2d(np.asarray(reference, dtype=float))
    if f.size == 0 or z.size == 0:
        raise ValueError("additive_epsilon needs non-empty sets")
    return float(np.max(_nearest_distances(z, f, signed=True)))


def cardinality_metrics(fronts_by_algorithm: Mapping[str, np.ndarray]):
    """Survival of each algorithm's points in the combined reference front.

    The combined front Z is the non-dominated subset of the union of every
    algorithm's (distinct) points.  For each algorithm, ``i_c`` counts its
    distinct non-dominated points that appear in Z (1e-9 tolerance) and
    ``c_metric`` is that count divided by the size of its own non-dominated
    set, NaN for an empty front (as gd, igd and eps are in ``compare``).
    Returns ``{name: (i_c, c_metric)}``.
    """
    if not fronts_by_algorithm:
        raise ValueError("need at least one algorithm")
    own = {}
    for name, front in fronts_by_algorithm.items():
        f = np.atleast_2d(np.asarray(front, dtype=float))
        own[name] = f[non_dominated_mask(f)]
    union = np.vstack(list(own.values()))
    combined = union[non_dominated_mask(union)]
    out = {}
    for name, f in own.items():
        if len(f) == 0:
            out[name] = (0, float("nan"))
            continue
        i_c = int(np.sum(_nearest_distances(f, combined, chebyshev=True) <= 1e-9))
        out[name] = (i_c, i_c / len(f))
    return out


def entropy_select(front, k: int) -> np.ndarray:
    """Indices of the ``k`` preferred solutions under entropy weighting.

    Column-normalizes the (distinct-row) payoff matrix, weights objectives by
    their entropy-based diversification degree ``1 - E_j``, scores each
    solution by its weighted normalized objectives, and returns the indices
    of the ``k`` lowest scores (minimization sense).  Duplicated rows do not
    affect the outcome; a constant column carries zero weight; when every
    weight degenerates the fall-back is uniform weighting with
    lexicographic tie-breaks.
    """
    f = np.atleast_2d(np.asarray(front, dtype=float))
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct, first_index = np.unique(f, axis=0, return_index=True)
    m, n_obj = distinct.shape
    if m < k:
        raise ValueError(f"need at least {k} distinct solutions, have {m}")
    shifted = distinct - np.minimum(distinct.min(axis=0), 0.0)
    sums = shifted.sum(axis=0)
    p = np.divide(shifted, sums, out=np.zeros_like(shifted), where=sums > 0)
    if m == 1:
        return np.asarray([int(first_index[0])])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=0) / math.log(m)
    entropy = np.where(sums > 0, entropy, 1.0)
    diversification = 1.0 - entropy
    total = diversification.sum()
    if total > 1e-12:
        weights = diversification / total
    else:
        weights = np.full(n_obj, 1.0 / n_obj)
    scores = p @ weights
    return first_index[best_first(distinct, scores)[:k]]


@dataclass
class MetricReport:
    """One run's metric row, as serialized to the shared CSV schema."""

    run_id: str
    algorithm: str
    problem: str
    hv: float
    gd: float
    igd: float
    eps: float

    def validate(self):
        if self.hv < 0:
            raise ValueError("hypervolume must be nonnegative")
        return self


METRIC_FIELDS = ["run_id", "algorithm", "problem", "hv", "gd", "igd", "eps"]
_TEXT_FIELDS, _VALUE_FIELDS = METRIC_FIELDS[:3], METRIC_FIELDS[3:]


def write_metric_csv(reports, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRIC_FIELDS)
        for report in reports:
            writer.writerow([getattr(report, name) for name in _TEXT_FIELDS]
                            + [repr(float(getattr(report, name))) for name in _VALUE_FIELDS])


def read_metric_csv(path) -> list[MetricReport]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [MetricReport(**{name: row[name] for name in _TEXT_FIELDS},
                         **{name: float(row[name]) for name in _VALUE_FIELDS})
            for row in rows]
