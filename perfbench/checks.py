"""Output checks on one finished cell, independent of ``pearlkit``'s own code.

Each check returns a list of failure messages; an empty list means the cell
passed.  The dominance and feasibility tests are written out here rather
than borrowed from ``pearlkit.pareto``/``pearlkit.problems``, so a defect in
those modules cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Radius of the C2-DTLZ2 feasible spheres as registered by pearlkit, and the
# slack for comparing two algebraically equal forms of the constraint.
C2DTLZ2_RADIUS = 0.5
FEASIBILITY_SLACK = 1e-9


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_rows(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    values = np.asarray(body, dtype=float) if body else np.empty((0, len(header)))
    return header, values


def dominated_rows(front: np.ndarray) -> int:
    """Rows of a minimization front that another row dominates (pairwise)."""
    le = np.all(front[:, None, :] <= front[None, :, :], axis=2)
    lt = np.any(front[:, None, :] < front[None, :, :], axis=2)
    return int(np.any(le & lt, axis=0).sum())


def c2dtlz2_violation(front: np.ndarray) -> np.ndarray:
    """C2-DTLZ2 constraint per row (feasible when <= 0): inside a sphere of
    radius r around one of the front's corners or around its centre ray."""
    r2 = C2DTLZ2_RADIUS**2
    m = front.shape[1]
    total = np.sum(front**2, axis=1)
    corners = np.min((front - 1.0) ** 2 + total[:, None] - front**2, axis=1) - r2
    centre = np.sum((front - 1.0 / math.sqrt(m)) ** 2, axis=1) - r2
    return np.minimum(corners, centre)


def check_cell(workload, cell_dir: Path) -> tuple[dict, list[str]]:
    """Read a finished cell's outputs, check them, and return its facts."""
    failures = []
    if (cell_dir / "FAILED").exists():
        return {}, ["FAILED marker: " + (cell_dir / "FAILED").read_text().strip()[-300:]]
    summary = json.loads((cell_dir / "summary.json").read_text())
    evaluations, front_path = cell_dir / "evaluations.csv", cell_dir / "front.csv"
    header, rows = read_rows(evaluations)
    _, front = read_rows(front_path)
    with open(cell_dir.parents[2] / "metrics.csv", newline="") as handle:
        hv = float(next(csv.DictReader(handle))["hv"])

    expected = workload.expected_evaluations()
    if len(rows) != expected:
        failures.append(f"evaluations.csv has {len(rows)} rows, config implies {expected}")
    if summary["n_evaluations"] != expected:
        failures.append(f"summary n_evaluations {summary['n_evaluations']} != {expected}")
    dominated = dominated_rows(front)
    if len(front) == 0:
        failures.append("front.csv is empty")
    elif dominated:
        failures.append(f"front.csv: {dominated} rows are dominated")
    if workload.problem == "c2dtlz2" and len(front):
        infeasible = int(np.sum(c2dtlz2_violation(front) > FEASIBILITY_SLACK))
        if infeasible:
            failures.append(f"front.csv: {infeasible} infeasible rows on c2dtlz2")
    if not (math.isfinite(hv) and hv > 0):
        failures.append(f"hv {hv!r} is not finite and positive")

    f_cols = [i for i, name in enumerate(header) if name.startswith("f")]
    facts = {
        "hv": hv,
        "wall_time": summary["wall_time"],
        "n_evaluations": summary["n_evaluations"],
        "failed_evaluations": int(np.isnan(rows[:, f_cols]).any(axis=1).sum()),
        "front_size": len(front),
        "evaluations_bytes": evaluations.stat().st_size,
        "digests": {"evaluations.csv": sha256(evaluations), "front.csv": sha256(front_path)},
    }
    return facts, failures
