"""Benchmark problem definitions with analytic objectives and constraints.

All problems minimize on the unit hypercube.  Constraint functions return
violation-positive values (g <= 0 feasible).  Reference Pareto fronts come
from analytic generators where the front has a simple closed form
(sphere/curve families) and from versioned CSV files otherwise (the
disconnected fronts); see scripts/make_reference_fronts.py for how the
files are produced.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .pareto import _positive_int, non_dominated_mask


class ProblemSpecError(ValueError):
    """An evaluation returned more or fewer values than its ProblemSpec
    declares.  The spec is wrong, so this stops a run instead of counting
    as a failed evaluation."""


@dataclass(frozen=True)
class ProblemSpec:
    """Registry entry: dimensions, box, evaluators, front source, nadir.

    The spec is frozen and its arrays are read-only, so the box and nadir
    checked at construction are the ones every evaluation uses;
    ``dataclasses.replace`` builds a new spec and checks it again.
    """

    name: str
    n_x: int
    n_obj: int
    objectives: Callable[[np.ndarray], np.ndarray]
    # constraints(x, f) -> violation-positive raw values; None when unconstrained
    constraints: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    front: Optional[Callable[[int], np.ndarray]] = None
    front_file: Optional[str] = None
    # hypervolume reference point; 3.0 per objective when not given
    nadir: Optional[np.ndarray] = None
    # the box; the unit hypercube when not given
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    # length of the constraint vector; positive exactly when constraints is set
    n_constraints: int = 0

    def __post_init__(self):
        if self.n_obj < 2:
            raise ValueError(f"{self.name}: a multi-objective problem needs n_obj >= 2, "
                             f"not {self.n_obj}")
        if (self.constraints is not None) != (self.n_constraints > 0):
            raise ValueError(f"{self.name}: constraints need a positive n_constraints "
                             "and a positive n_constraints needs constraints")
        for name, default in (("lower", np.zeros(self.n_x)), ("upper", np.ones(self.n_x)),
                              ("nadir", np.full(self.n_obj, 3.0))):
            value = getattr(self, name)
            object.__setattr__(self, name, _read_only(default if value is None else value))
        if self.lower.shape != (self.n_x,) or self.upper.shape != (self.n_x,):
            raise ValueError(f"{self.name}: lower and upper need shape ({self.n_x},), "
                             f"not {self.lower.shape} and {self.upper.shape}")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError(f"{self.name}: the box must be finite")
        if not (self.lower <= self.upper).all():
            raise ValueError(f"{self.name}: the box needs lower <= upper")
        if self.nadir.shape != (self.n_obj,):
            raise ValueError(f"{self.name}: nadir needs shape ({self.n_obj},), "
                             f"not {self.nadir.shape}")
        # the box with evaluate's slack, built once as floats: the box is frozen
        object.__setattr__(self, "_slack_lower", (self.lower - 1e-9).tolist())
        object.__setattr__(self, "_slack_upper", (self.upper + 1e-9).tolist())


def _read_only(values) -> np.ndarray:
    """A read-only float copy of ``values``, which no write to ``values``
    can reach."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def evaluate(problem: ProblemSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a problem at a point of its box: the objectives ``f`` (to be
    minimized) and the violation-positive constraint values ``g``.

    The function is pure.  Points outside the box (beyond a 1e-9 slack) and
    points with a NaN coordinate are a usage error: optimizers clamp before
    calling.  An ``f`` or ``g`` of another length than the spec declares
    raises ``ProblemSpecError``.  A non-finite objective or a NaN constraint
    value raises ``ValueError``: the evaluation failed.  A ``+inf``
    constraint value is a valid, infinitely violated constraint.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n_x,):
        raise ValueError(f"{problem.name} expects {problem.n_x} decision variables")
    # a NaN coordinate fails the box test: every comparison with NaN is false
    values = x.tolist()
    if not (all(map(operator.le, problem._slack_lower, values))
            and all(map(operator.le, values, problem._slack_upper))):
        raise ValueError(f"point outside the box of {problem.name}")
    f = np.asarray(problem.objectives(x), dtype=float)
    if f.shape != (problem.n_obj,):
        raise ProblemSpecError(f"{problem.name} declares {problem.n_obj} objectives, "
                               f"got shape {f.shape}")
    if problem.constraints is None:
        g = np.empty(0)
    else:
        g = np.asarray(problem.constraints(x, f), dtype=float)
        if g.ndim == 0:  # one constraint, returned as a scalar
            g = g.reshape(1)
        if g.shape != (problem.n_constraints,):
            raise ProblemSpecError(f"{problem.name} declares {problem.n_constraints} "
                                   f"constraints, got {g.size}")
    if not all(map(math.isfinite, f.tolist())) or any(map(math.isnan, g.tolist())):
        raise ValueError(f"{problem.name} returned a non-finite objective or a NaN "
                         "constraint value")
    return f, g


def reference_front(problem: ProblemSpec, n_points: int) -> np.ndarray:
    """Return ``n_points`` mutually non-dominated points of the true front."""
    n_points = _positive_int("n_points", n_points)
    if problem.front is not None:
        return problem.front(n_points)
    if problem.front_file is not None:
        stored = _load_front_file(problem.front_file)
        return _subsample(stored, n_points)
    raise FileNotFoundError(f"no reference front registered for {problem.name}")


def _load_front_file(filename: str) -> np.ndarray:
    ref = resources.files(__package__) / "data" / filename
    if not ref.is_file():
        raise FileNotFoundError(
            f"reference front file {filename!r} is missing from the package data"
        )
    with ref.open("r") as handle:
        rows = list(csv.reader(handle))
    return np.asarray(rows[1:], dtype=float)  # skip the f1,...,fF header


def _subsample(points: np.ndarray, n: int) -> np.ndarray:
    if n >= len(points):
        return points.copy()
    idx = np.unique(np.round(np.linspace(0, len(points) - 1, n)).astype(int))
    return points[idx]


# ---------------------------------------------------------------------------
# dtlz family (scalable sphere/curve/disconnected fronts), 3 objectives here.
# ---------------------------------------------------------------------------

def _reduce_sum(values: list) -> float:
    """The sum ``np.add.reduce`` takes of a contiguous float64 row, bit for
    bit, on Python floats.

    numpy adds a row of fewer than 8 entries left to right.  Up to 128
    entries it keeps eight interleaved partial sums, ``r[j]`` over entries
    ``j, j + 8, j + 16, ...``, combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    entries past the last multiple of 8 left to right.  A longer row is
    split at half its length, rounded down to a multiple of 8, and each half
    summed the same way.  Every sum starts from the identity ``0.0``, which
    only turns an all ``-0.0`` row into ``0.0``, as numpy's does.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reduce_sum(values[:half]) + _reduce_sum(values[half:])
    total, stop = 0.0, 0
    if n >= 8:
        r = values[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r = list(map(operator.add, r, values[i:i + 8]))
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[stop:]:
        total += v
    return total


def _hypersphere(angles: list, scale: float) -> np.ndarray:
    """``f[i] = scale * prod(cos(angles[:k])) * sin(angles[k])`` with
    ``k = n_obj - 1 - i`` (no sine factor for ``i = 0``).

    The arithmetic runs on Python floats and equals the array form bit for
    bit where ``math.cos``/``math.sin`` equal ``np.cos``/``np.sin`` (the
    CI log prints whether they do): the cosine prefix is multiplied up left
    to right, the order of ``np.prod``, and each objective multiplies
    ``scale`` by its prefix before its sine.
    """
    f, prefix = [], 1.0
    for angle in angles:
        f.append(scale * prefix * math.sin(angle))
        prefix *= math.cos(angle)
    f.append(scale * prefix)
    return np.array(f[::-1])


def _distance_g(tail: list) -> float:
    """The DTLZ2 distance ``sum((t - 0.5) ** 2)`` over the tail of ``x``;
    ``(t - 0.5) * (t - 0.5)`` is the square numpy takes for ``** 2``."""
    return _reduce_sum([(t - 0.5) * (t - 0.5) for t in tail])


def dtlz2_objectives(x, n_obj=3):
    values = np.asarray(x, dtype=float).tolist()
    g = _distance_g(values[n_obj - 1:])
    return _hypersphere([t * math.pi / 2 for t in values[: n_obj - 1]], 1.0 + g)


def dtlz4_objectives(x, n_obj=3, alpha=100.0):
    # ``**`` stays in numpy: Python's power differs from np.power on a few
    # percent of values at this exponent
    x = np.asarray(x, dtype=float)
    g = _distance_g(x[n_obj - 1:].tolist())
    return _hypersphere([t * math.pi / 2 for t in (x[: n_obj - 1] ** alpha).tolist()], 1.0 + g)


def _dtlz5_angles(xp: list, g: float) -> list:
    scale, slope = math.pi / (4.0 * (1.0 + g)), 2.0 * g
    return [xp[0] * math.pi / 2] + [scale * (1.0 + slope * t) for t in xp[1:]]


def dtlz5_objectives(x, n_obj=3):
    values = np.asarray(x, dtype=float).tolist()
    g = _distance_g(values[n_obj - 1:])
    return _hypersphere(_dtlz5_angles(values[: n_obj - 1], g), 1.0 + g)


def dtlz6_objectives(x, n_obj=3):
    # ``** 0.1`` stays in numpy, as in dtlz4
    x = np.asarray(x, dtype=float)
    g = _reduce_sum((x[n_obj - 1:] ** 0.1).tolist())
    return _hypersphere(_dtlz5_angles(x[: n_obj - 1].tolist(), g), 1.0 + g)


def dtlz7_objectives(x, n_obj=3):
    values = np.asarray(x, dtype=float).tolist()
    xp, xm = values[: n_obj - 1], values[n_obj - 1:]
    g = 1.0 + 9.0 * (_reduce_sum(xm) / len(xm))
    h = n_obj - _reduce_sum([t / (1.0 + g) * (1.0 + math.sin(3.0 * math.pi * t)) for t in xp])
    return np.array(xp + [(1.0 + g) * h])


def c2dtlz2_constraint(f: np.ndarray, radius: float = 0.5) -> np.ndarray:
    """Feasible inside any of the spheres around the front corners or center.

    The arithmetic runs on Python floats, at about a quarter of the cost of
    the same expressions on arrays, and equals them bit for bit at a finite
    ``f``: ``np.add.reduce`` folds a row of fewer than 8 entries left to
    right, as the loop here does; ``v * v`` is the square numpy takes for
    ``** 2``; and a minimum does not depend on its order.  (``evaluate``
    rejects a non-finite ``f`` whatever its constraint value.)
    """
    values = np.asarray(f, dtype=float).tolist()
    r2 = radius**2
    total = sum_f = 0.0
    for v in values:
        total += v * v
        sum_f += v
    corner = min((v - 1.0) * (v - 1.0) + (total - v * v) - r2 for v in values)
    center = total - 2.0 * sum_f / math.sqrt(len(values)) + 1.0 - r2
    return np.array([min(corner, center)])


def c3dtlz4_constraint(f: np.ndarray) -> np.ndarray:
    """Feasible outside the union of per-objective ellipsoids."""
    f = np.asarray(f, dtype=float)
    total = np.sum(f**2)
    return 1.0 - f**2 / 4.0 - (total - f**2)


# ---------------------------------------------------------------------------
# ctp family: two objectives, two decision variables, sinusoidal or
# exponential constraint boundaries cutting into the unconstrained front.
# ---------------------------------------------------------------------------

def _ctp1_parameters(n_constraints: int = 2):
    a = [1.0]
    b = [1.0]
    delta = 1.0 / (n_constraints + 1)
    alpha = delta
    for j in range(n_constraints):
        beta = a[j] * math.exp(-b[j] * alpha)
        a.append((a[j] + beta) / 2.0)
        b.append(-math.log(beta / a[-1]) / alpha)
        alpha += delta
    return np.array(a[1:]), np.array(b[1:])


_CTP1_A, _CTP1_B = _ctp1_parameters()


def ctp1_objectives(x):
    x = np.asarray(x, dtype=float)
    f1 = x[0]
    g = 1.0 + float(np.sum(x[1:]))
    return np.array([f1, g * math.exp(-f1 / g)])


def ctp1_constraint(f: np.ndarray) -> np.ndarray:
    f1, f2 = float(f[0]), float(f[1])
    return _CTP1_A * np.exp(-_CTP1_B * f1) - f2


def _ctp_objectives(x):
    x = np.asarray(x, dtype=float)
    f1 = x[0]
    g = 1.0 + float(np.sum(x[1:]))
    return np.array([f1, g - f1])


# theta, a, b, c, d, e constants of the published constraint family
_CTP_PARAMS = {
    "ctp2": (-0.2 * np.pi, 0.2, 10.0, 1.0, 6.0, 1.0),
    "ctp3": (-0.2 * np.pi, 0.1, 10.0, 1.0, 0.5, 1.0),
    "ctp4": (-0.2 * np.pi, 0.75, 10.0, 1.0, 0.5, 1.0),
}


def ctp_constraint(f: np.ndarray, theta, a, b, c, d, e) -> np.ndarray:
    f1, f2 = float(f[0]), float(f[1])
    lhs = math.cos(theta) * (f2 - e) - math.sin(theta) * f1
    inner = math.sin(theta) * (f2 - e) + math.cos(theta) * f1
    rhs = a * abs(math.sin(b * np.pi * math.copysign(abs(inner) ** c, inner))) ** d
    return np.array([rhs - lhs])


# ---------------------------------------------------------------------------
# Analytic reference-front generators.
# ---------------------------------------------------------------------------

def sphere_front(n_points: int, n_obj: int = 3) -> np.ndarray:
    """Well-spread points on the positive unit-sphere octant."""
    from .density import das_dennis, default_divisions

    p = default_divisions(n_obj, n_points)
    dirs = das_dennis(n_obj, p)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return _subsample(dirs / norms, n_points)


def dtlz5_front(n_points: int) -> np.ndarray:
    t = np.linspace(0.0, np.pi / 2, n_points)
    c = np.cos(t) / math.sqrt(2.0)
    return np.column_stack([c, c, np.sin(t)])


def c2dtlz2_front(n_points: int) -> np.ndarray:
    count = max(4 * n_points, 64)
    for _ in range(8):
        candidates = sphere_front(count)
        feasible = candidates[
            [float(c2dtlz2_constraint(f)[0]) <= 0.0 for f in candidates]
        ]
        if len(feasible) >= n_points:
            return _subsample(feasible, n_points)
        count *= 2
    return feasible


def c3dtlz4_front(n_points: int) -> np.ndarray:
    # Scale unit-sphere directions out to the binding ellipsoid constraint.
    y = sphere_front(max(n_points, 8))
    v = y**2 / 4.0 + (np.sum(y**2, axis=1, keepdims=True) - y**2)
    f = y / np.sqrt(np.min(v, axis=1))[:, None]
    f = f[non_dominated_mask(f)]
    return _subsample(f, n_points)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _registry() -> dict[str, ProblemSpec]:
    problems = {}

    def add(spec: ProblemSpec):
        problems[spec.name] = spec

    add(ProblemSpec("dtlz2", 12, 3, dtlz2_objectives,
                    front=lambda n: sphere_front(n), nadir=[3, 3, 3]))
    add(ProblemSpec("dtlz4", 12, 3, dtlz4_objectives,
                    front=lambda n: sphere_front(n), nadir=[3, 3, 3]))
    add(ProblemSpec("dtlz5", 12, 3, dtlz5_objectives,
                    front=dtlz5_front, nadir=[3, 3, 3]))
    add(ProblemSpec("dtlz6", 12, 3, dtlz6_objectives,
                    front_file="dtlz6_front.csv", nadir=[3, 3, 3]))
    add(ProblemSpec("dtlz7", 12, 3, dtlz7_objectives,
                    front_file="dtlz7_front.csv", nadir=[3, 3, 7]))
    add(ProblemSpec("c2dtlz2", 7, 3, dtlz2_objectives,
                    constraints=lambda x, f: c2dtlz2_constraint(f), n_constraints=1,
                    front=c2dtlz2_front, nadir=[3, 3, 3]))
    add(ProblemSpec("c3dtlz4", 7, 3, dtlz4_objectives,
                    constraints=lambda x, f: c3dtlz4_constraint(f), n_constraints=3,
                    front=c3dtlz4_front, nadir=[3, 3, 3]))
    add(ProblemSpec("ctp1", 2, 2, ctp1_objectives,
                    constraints=lambda x, f: ctp1_constraint(f), n_constraints=2,
                    front_file="ctp1_front.csv", nadir=[3, 3]))
    for name, params in _CTP_PARAMS.items():
        add(ProblemSpec(name, 2, 2, _ctp_objectives,
                        constraints=(lambda p: (lambda x, f: ctp_constraint(f, *p)))(params),
                        n_constraints=1,
                        front_file=f"{name}_front.csv", nadir=[3, 3]))
    return problems


PROBLEMS = _registry()


def get_problem(name: str) -> ProblemSpec:
    """Look a problem up by name; dashes are ignored (c2-dtlz2 == c2dtlz2)."""
    key = name.lower().replace("-", "").replace("_", "")
    for candidate, spec in PROBLEMS.items():
        if candidate.replace("-", "") == key:
            return spec
    raise KeyError(f"unknown problem: {name!r} (known: {sorted(PROBLEMS)})")
