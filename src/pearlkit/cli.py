"""Command-line front end for running and comparing experiments."""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .pareto import _positive_int
from .problems import get_problem, reference_front


def _positive_count(text: str) -> int:
    """An option value that must be a positive integer; argparse exits 2
    with a message naming the option when it is not one."""
    try:
        return _positive_int("value", int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pearlkit",
        description="Multi-objective optimization experiments: PEARL variants "
                    "and NSGA baselines on benchmark suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute every cell of an experiment config")
    run.add_argument("config", help="path to the experiment JSON file")
    run.add_argument("--force", action="store_true",
                     help="overwrite an existing output directory")
    run.add_argument("--parallel-cells", type=_positive_count, default=1, metavar="N",
                     help="run up to N independent cells concurrently")

    cmp_ = sub.add_parser("compare", help="statistical comparison across run outputs")
    cmp_.add_argument("dirs", nargs="+", help="experiment output directories")
    cmp_.add_argument("--alpha", type=float, default=0.05,
                      help="significance level for the pairwise tests")
    cmp_.add_argument("-o", "--out", default="comparison",
                      help="directory for the comparison tables")

    front = sub.add_parser("front", help="print the front of a run cell")
    front.add_argument("run_dir", help="cell directory holding front.csv")

    ref = sub.add_parser("ref-front", help="print a problem's reference front")
    ref.add_argument("problem")
    ref.add_argument("-n", "--count", type=_positive_count, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = experiment.run_experiment(args.config, force=args.force,
                                            parallel_cells=args.parallel_cells)
            print(f"experiment complete: {out}")
            return 0
        if args.command == "compare":
            results = experiment.compare(args.dirs, alpha=args.alpha)
            out = experiment.write_comparison(results, args.out)
            for res in results:
                for warning in res.warnings:
                    print(f"warning [{res.problem}]: {warning}", file=sys.stderr)
                if res.friedman is not None:
                    print(f"{res.problem}: Friedman chi2 = {res.friedman.statistic:.4g}, "
                          f"p = {res.friedman.p_value:.4g}")
            print(f"comparison tables written to {out}")
            return 0
        if args.command == "front":
            from pathlib import Path

            path = Path(args.run_dir) / "front.csv"
            if not path.exists():
                print(f"error: {path} not found", file=sys.stderr)
                return 2
            sys.stdout.write(path.read_text())
            return 0
        if args.command == "ref-front":
            problem = get_problem(args.problem)
            front = reference_front(problem, args.count)
            print(",".join(f"f{i + 1}" for i in range(front.shape[1])))
            for row in front:
                print(",".join(repr(float(v)) for v in row))
            return 0
    except (experiment.ConfigError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileExistsError, FileNotFoundError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
