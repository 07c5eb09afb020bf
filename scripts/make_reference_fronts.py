"""Regenerate the packaged reference-front CSV files.

The disconnected fronts (ctp1-4, dtlz6, dtlz7) have no convenient closed-form
uniform sampling, so they are generated once from the published formulas and
shipped as versioned data files:

* dtlz6: the degenerate curve evaluated at zero distance variables.
* dtlz7: non-dominated filter of a fine objective-space grid at g = 1.
* ctp1-4: for each f1 column, the smallest feasible f2 located by scan plus
  bisection against the constraint boundary, then a non-dominated filter.

Usage: python scripts/make_reference_fronts.py [output_dir]
"""

import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pearlkit.pareto import non_dominated_mask
from pearlkit.problems import (
    _CTP_PARAMS,
    _subsample,
    ctp1_constraint,
    ctp_constraint,
    dtlz6_objectives,
    dtlz7_objectives,
)

N_STORE = 1000


def write_front(path: Path, front: np.ndarray):
    front = np.asarray(front, dtype=float)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i + 1}" for i in range(front.shape[1])])
        for row in front:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {path} ({len(front)} points)")


def dtlz6_front() -> np.ndarray:
    rows = []
    for t in np.linspace(0.0, 1.0, N_STORE):
        x = np.zeros(12)
        x[0] = t  # second position variable is irrelevant on the curve
        rows.append(dtlz6_objectives(x))
    front = np.asarray(rows)
    return front[non_dominated_mask(front)]


def dtlz7_front() -> np.ndarray:
    # objective-space grid at g = 1 (zero distance variables): f1, f2 free,
    # f3 = (1+g) * h(f1, f2)
    grid = np.linspace(0.0, 1.0, 401)
    f1, f2 = (a.ravel() for a in np.meshgrid(grid, grid))
    g = 1.0
    term = lambda f: f / (1.0 + g) * (1.0 + np.sin(3.0 * np.pi * f))  # noqa: E731
    f3 = (1.0 + g) * (3.0 - term(f1) - term(f2))
    front = np.column_stack([f1, f2, f3])
    # cheap prefilter: only points near the per-column f3 minimum can survive
    spot = np.zeros(12)
    spot[0], spot[1] = 0.2, 0.2
    assert np.allclose(dtlz7_objectives(spot), front[np.argmin(
        np.abs(front[:, 0] - 0.2) + np.abs(front[:, 1] - 0.2))], atol=1e-6)
    front = front[non_dominated_mask(front)]
    order = np.lexsort(front.T[::-1])
    return _subsample(front[order], N_STORE)


def ctp_front(constraint, f2_bounds, n_columns=2000) -> np.ndarray:
    """Scan each f1 column for the smallest feasible f2 on its attainable range."""

    def feasible(f1, f2):
        return float(np.max(constraint(np.array([f1, f2])))) <= 0.0

    rows = []
    for f1 in np.linspace(0.0, 1.0, n_columns):
        lower, upper = f2_bounds(f1)
        if feasible(f1, lower):
            rows.append((f1, lower))
            continue
        # coarse scan for the first feasible point, then bisect to the boundary
        grid = np.linspace(lower, upper, 400)
        hit = None
        for lo, hi in zip(grid[:-1], grid[1:]):
            if feasible(f1, hi):
                hit = (lo, hi)
                break
        if hit is None:
            continue
        lo, hi = hit
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(f1, mid):
                hi = mid
            else:
                lo = mid
        rows.append((f1, hi))
    front = np.asarray(rows)
    front = front[non_dominated_mask(front)]
    order = np.argsort(front[:, 0])
    return _subsample(front[order], N_STORE)


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "pearlkit" / "data"
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    write_front(out_dir / "dtlz6_front.csv", dtlz6_front())
    write_front(out_dir / "dtlz7_front.csv", dtlz7_front())

    # attainable f2 range per f1 column: the distance function g spans [1, 2]
    write_front(out_dir / "ctp1_front.csv", ctp_front(
        ctp1_constraint,
        lambda f1: (np.exp(-f1), 2.0 * np.exp(-f1 / 2.0)),
    ))
    for name, params in _CTP_PARAMS.items():
        write_front(out_dir / f"{name}_front.csv", ctp_front(
            lambda f, p=params: ctp_constraint(f, *p),
            lambda f1: (1.0 - f1, 2.0 - f1),
        ))


if __name__ == "__main__":
    main()
