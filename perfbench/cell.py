"""Run one benchmark cell in this fresh interpreter.

    python3 perfbench/cell.py --workload nds-dtlz2 --seed 0 --out DIR [--trace]

Set-up (``import pearlkit``, ``load_config``, ``get_problem``) ends at the
``setup_end`` timestamp; the cell itself runs through
``pearlkit.experiment.run_experiment``, the code behind ``pearlkit run``,
with the speed probe of ``speed.py`` sampling alongside it.
The last stdout line is a JSON object of CLOCK_MONOTONIC timestamps, so
that the parent can measure set-up from before it started this process.
With ``--trace`` the layer spans go to ``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

from speed import SpeedProbe
from workloads import WORKLOADS


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import pearlkit  # noqa: F401 - the import is part of set-up
    from pearlkit.experiment import load_config, run_experiment
    from pearlkit.problems import get_problem

    config = WORKLOADS[args.workload].config(args.seed, os.path.abspath(args.out))
    get_problem(load_config(config).problems[0])
    result = {"setup_end": time.monotonic()}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    probe = SpeedProbe().start()
    result["cell_start"] = time.monotonic()
    run_experiment(config)
    result["cell_end"] = time.monotonic()
    result["probe_s"], result["probe_mean_s"] = probe.stop()
    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
