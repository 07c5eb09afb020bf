"""pearlkit benchmark: fixed experiment cells, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload nds-dtlz2 --seed 0 --seconds 44 --trace 0

Each cell runs in a fresh interpreter (``perfbench/cell.py``) against the
package under ``src/``.  Run seed ``s`` gives the cell seeds ``1000s``,
``1000s+1``, ...; the run starts cells until ``--seconds`` is spent and
reports medians.  Cell times are scaled to a reference processor speed by
the probe in ``speed.py``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced cell per seed and reports the
per-layer metrics of the traced ones.  Every cell's outputs are checked,
and the two cells of one seed must write byte-identical
``evaluations.csv`` and ``front.csv``.  The last stdout line is the result
object; the line before it holds machine facts, samples and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# BLAS runs single-threaded on both sides of every comparison; children
# inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import check_cell  # noqa: E402
from layers import layer_metrics  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Cells at different seeds do different amounts of work (a third apart, and more),
# so every cell of a run has its own seed and the median spans them all.
SEED_STRIDE = 1000      # run seed s owns the cell seeds from s*1000 on; a run ends
                        # at RUN_LIMIT_S, long before its thousandth cell
MIN_SEEDS = 3           # seeds every run covers, however long its cells take
RUN_LIMIT_S = 170.0     # a run must end within 180 s, hung cells included


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def spawn(workload: str, seed: int, out: Path, deadline: float,
          *extra: str) -> tuple[dict, float]:
    """Run cell.py; returns its result object and the wall time of the process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cell.py exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - t0
    return result, wall


def run_cell(name: str, seed: int, out: Path, deadline: float, traced: bool) -> dict:
    """One cell: run, check outputs and (traced) span accounting.

    ``cell_s`` and ``us_per_eval`` are scaled to the probe's reference speed;
    the raw wall times stay in ``wall_cell_s`` and ``wall_time``.
    """
    cell = {"seed": seed, "traced": traced, "failures": []}
    try:
        child, cell["wall_s"] = spawn(name, seed, out, deadline,
                                      *(["--trace"] if traced else []))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        cell["failures"].append(f"cell did not finish: {err}")
        return cell
    wall_cell = child["cell_end"] - child["cell_start"]
    # the probe's share of the cell, and how much faster than now the reference runs
    probe_share = child["probe_s"] / wall_cell
    scale = REFERENCE_S / child["probe_mean_s"]
    cell.update(setup_s=child["setup_s"], wall_cell_s=wall_cell,
                cell_s=wall_cell * (1.0 - probe_share) * scale,
                probe_ms=child["probe_mean_s"] * 1e3, probe_share=probe_share,
                peak_rss_mb=child["peak_rss_mb"], blas_threads=child["blas_threads"])
    cell_dirs = sorted(out.glob("*/*/seed*"))
    if len(cell_dirs) != 1:
        cell["failures"].append(f"expected one cell directory, found {len(cell_dirs)}")
        return cell
    try:
        facts, failures = check_cell(WORKLOADS[name], cell_dirs[0])
        if facts:
            # the probe fires uniformly in wall time, so it takes the same
            # share of the search loop as of the whole cell
            facts["us_per_eval"] = (facts["wall_time"] * (1.0 - probe_share) * scale
                                    / facts["n_evaluations"] * 1e6)
        if facts and traced:
            facts["layers"], span_failures = layer_metrics(out / "spans.json", facts)
            failures += span_failures
    except (OSError, ValueError, KeyError, StopIteration) as err:
        facts, failures = {}, [f"unreadable outputs: {err!r}"]
    cell.update(facts)
    cell["failures"] += failures
    return cell


def run(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Start cells, each on the next cell seed, until the time is spent.

    Untraced runs take one cell per seed.  Traced runs take an untraced and
    a traced cell per seed, so that each traced cell has an untraced twin to
    compare outputs and time with.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    per_seed = 2 if trace else 1
    min_cells = per_seed * (1 if trace else MIN_SEEDS)
    cells = []
    while True:
        n = len(cells)
        out = scratch / f"cell{n}"
        cells.append(run_cell(name, seed * SEED_STRIDE + n // per_seed, out, deadline,
                              traced=n % per_seed == 1))
        shutil.rmtree(out, ignore_errors=True)
        if len(cells) < min_cells or len(cells) % per_seed:
            continue
        longest = max(c.get("wall_s", 0.0) for c in cells)
        now = time.monotonic()
        if now - start + 1.1 * per_seed * longest > seconds or now > deadline:
            break
    reference = {}
    for c in cells:
        if "digests" in c:
            expected = reference.setdefault(c["seed"], c["digests"])
            if c["digests"] != expected:
                c["failures"].append(f"outputs differ from the untraced cell of seed {c['seed']}")
    return {"setups": [c["setup_s"] for c in cells if "setup_s" in c], "cells": cells}


def median_of(cells, key):
    values = [c[key] for c in cells if key in c]
    return statistics.median(values) if values else 0.0


def summarize(runs: dict, trace: bool, declared: dict) -> dict:
    cells = runs["cells"]
    ok = [c for c in cells if not c["failures"]]
    plain = [c for c in ok if not c["traced"]]
    values = {}  # stays empty, and every metric reads 0, when no cell passed
    if trace:
        traced = [c for c in ok if c["traced"]]
        if traced and plain:
            values = {key: statistics.median(c["layers"][key] for c in traced)
                      for key in traced[0]["layers"]}
            values["trace.overhead_ratio"] = (median_of(traced, "cell_s")
                                              / median_of(plain, "cell_s"))
    elif plain:
        values = {key: median_of(plain, key)
                  for key in ("cell_s", "us_per_eval", "peak_rss_mb")}
        # the first seeds only, so the cell count cannot shift a deterministic median
        values["hv"] = median_of(plain[:MIN_SEEDS], "hv")
        values["setup_s"] = statistics.median(runs["setups"])
    metrics = {spec["name"]: {"value": values[spec["name"]] if values else 0.0,
                              "unit": spec["unit"]}
               for spec in declared}
    failed = len(cells) - len(ok)
    return {"correct": failed == 0, "attempted": len(cells), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pearlkit" / "experiment.py").is_file():
        sys.exit(f"no pearlkit sources under {ROOT / 'src'}: run from a repository checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    scratch = HERE / "_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        runs = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = summarize(runs, bool(args.trace), declared)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts(), "setup_samples": runs["setups"],
            "cells": [{k: v for k, v in c.items() if k != "layers"} for c in runs["cells"]],
            "cells_failed": result["failed"]}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
