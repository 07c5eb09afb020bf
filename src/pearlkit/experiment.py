"""Configuration-driven experiment execution and cross-run comparison.

An experiment file (JSON, ``version`` key required) names one or more
problems, one or more algorithm variants, a shared evaluation budget, and a
seed list.  ``run_experiment`` executes every (algorithm x problem x seed)
cell, writing per-cell evaluation logs, fronts, and JSON summaries
plus one metrics CSV for the whole experiment.  ``compare`` consumes the
outputs of several runs, rebuilds combined per-seed reference fronts,
recomputes the binary indicators against them, and applies the Friedman and
Nemenyi tests to the hypervolumes.
"""

from __future__ import annotations

import csv
import json
import os
import time
import traceback
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import nsga, stats
from .indicators import (
    MetricReport,
    additive_epsilon,
    cardinality_metrics,
    gd,
    hypervolume,
    igd,
    read_metric_csv,
    write_metric_csv,
)
from .pareto import _positive_int, _real, non_dominated_mask
from .problems import ProblemSpec, get_problem, reference_front
from .rewards import CurriculumConstrained, PearlEnvelope, PearlEpsilon, PearlNds
from .trainer import RunResult, TrainerConfig, train

OUTPUT_ROOT_ENV = "PEARLKIT_OUTPUT_ROOT"
CONFIG_VERSION = 1
_CONFIG_KEYS = {"version", "problems", "algorithms", "budget", "seeds", "output_dir",
                "n_steps", "ncores"}
# set once at the top level for every cell (a cell's seed comes from 'seeds')
_TOP_LEVEL_ONLY = {"budget", "seed", "n_steps", "ncores"}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


@dataclass
class AlgorithmSpec:
    name: str
    params: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if not self.label:
            suffix = self.params.get("ranker") or self.params.get("mode") or ""
            self.label = f"{self.name}-{suffix}" if suffix else self.name


@dataclass
class ExperimentConfig:
    version: int
    problems: list[str]
    algorithms: list[AlgorithmSpec]
    budget: int
    seeds: list[int]
    output_dir: str
    n_steps: int
    ncores: int
    raw: dict = field(default_factory=dict)


def _as_list(value):
    return value if isinstance(value, list) else [value]


def load_config(source) -> ExperimentConfig:
    """Parse and validate an experiment config (path or dict).

    Each algorithm entry is built once per problem, so a key that nothing
    reads or a value its constructor rejects fails here, not in every cell.
    """
    if isinstance(source, (str, Path)):
        with open(source) as handle:
            raw = json.load(handle)
    else:
        raw = dict(source)
    version = raw.get("version")
    # true and 1.0 equal 1, but neither is an integer version
    if isinstance(version, bool) or not isinstance(version, int) or version != CONFIG_VERSION:
        raise ConfigError(f"key 'version' must be the integer {CONFIG_VERSION}, not {version!r}")
    problems = _as_list(raw.get("problems") or [])
    if not problems:
        raise ConfigError("key 'problems' is required")
    for name in problems:
        if not isinstance(name, str):
            raise ConfigError(f"key 'problems': a problem name is a string, not {name!r}")
    try:
        # cells, FAILED names and metrics.csv all use the registered name
        problems = [get_problem(name).name for name in problems]
    except KeyError as err:
        raise ConfigError(f"key 'problems': {err.args[0]}") from None
    if len(set(problems)) != len(problems):
        raise ConfigError(f"key 'problems' names a problem twice: {problems}")
    algo_raw = _as_list(raw.get("algorithms") or [])
    if not algo_raw:
        raise ConfigError("key 'algorithms' is required")
    algorithms = []
    for entry in algo_raw:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"key 'algorithms': an entry is a name or an object, not {entry!r}")
        name = entry.get("name")
        if name not in ALGORITHMS:
            raise ConfigError(
                f"key 'algorithms': unknown variant {name!r} (known: {sorted(ALGORITHMS)})")
        params = {k: v for k, v in entry.items() if k not in ("name", "label")}
        shared = sorted(params.keys() & _TOP_LEVEL_ONLY)
        if shared:
            raise ConfigError(f"key {shared[0]!r} is not a {name} entry key: budget, seeds, "
                              "n_steps and ncores are set at the top level")
        label = entry.get("label", "")
        if not isinstance(label, str) or label in (".", "..") or any(c in label for c in "/\\\0"):
            raise ConfigError(f"key 'label' must be one path component, not {label!r}")
        algorithms.append(AlgorithmSpec(name=name, params=params, label=label))
    labels = [a.label for a in algorithms]
    if len(set(labels)) != len(labels):
        raise ConfigError("key 'algorithms': labels must be unique "
                          "(set 'label' explicitly)")
    try:
        budget = _positive_int("budget", raw.get("budget"))
    except ValueError as err:
        raise ConfigError(f"key 'budget': {err}") from None
    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("key 'seeds' must be a non-empty list")
    if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds):
        raise ConfigError(f"key 'seeds' must hold nonnegative integers, not {seeds}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"key 'seeds' repeats a seed: {seeds}")
    output_dir = raw.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        raise ConfigError(f"key 'output_dir' must be a non-empty string, not {output_dir!r}")
    unknown = sorted(raw.keys() - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"key {unknown[0]!r} is not a config key "
                          f"(known: {sorted(_CONFIG_KEYS)})")
    # checked here as well as by TrainerConfig, which NSGA-only configs never build
    batch = {}
    for key in ("n_steps", "ncores"):
        try:
            batch[key] = _positive_int(key, raw.get(key, getattr(TrainerConfig, key)))
        except ValueError as err:
            raise ConfigError(f"key {key!r}: {err}") from None
    config = ExperimentConfig(
        version=CONFIG_VERSION, problems=problems,
        algorithms=algorithms, budget=budget,
        seeds=seeds, output_dir=output_dir,
        raw=raw, **batch,
    )
    for spec in algorithms:
        for problem in config.problems:
            try:
                _cell_run(config, spec, get_problem(problem), config.seeds[0])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{spec.name} entry {spec.label!r} on {problem}: {err}") from None
    return config


# ---------------------------------------------------------------------------
# Algorithm variants: each key of an entry is a parameter of the constructor
# it names, which holds the default and the validity check.
# ---------------------------------------------------------------------------

_TRAINER_KEYS = {f.name for f in fields(TrainerConfig)} - _TOP_LEVEL_ONLY


def _pearl_e_engine(problem: ProblemSpec, params: dict):
    if "lambda_" in params:
        raise ConfigError("key 'lambda_': pearl-e spells it 'lambda'")
    params = {("lambda_" if k == "lambda" else k): v for k, v in params.items()}
    return PearlEnvelope(n_obj=problem.n_obj, **params)


def _pearl_eps_engine(problem: ProblemSpec, params: dict):
    return PearlEpsilon(**params)


def _pearl_nds_engine(problem: ProblemSpec, params: dict):
    return PearlNds(n_obj=problem.n_obj, **params)


def _c_pearl_engine(problem: ProblemSpec, params: dict):
    params = dict(params)
    mode = params.pop("mode", "distance-cl")
    if mode in ("crowding2", "niching2"):
        return PearlNds(ranker=mode.removesuffix("2"), n_obj=problem.n_obj, **params)
    if mode != "distance-cl":
        raise ConfigError(f"key 'mode': unknown c-pearl mode {mode!r} "
                          "(known: ['distance-cl', 'crowding2', 'niching2'])")
    inner = params.pop("inner", "pearl-nds")
    known = [name for name in _ENGINES if name != "c-pearl"]
    if inner not in known:
        raise ConfigError(f"key 'inner': unknown c-pearl inner {inner!r} (known: {known})")
    wrapper = {key: params.pop(key) for key in ("M", "gammas") if key in params}
    if wrapper.get("gammas") is not None and np.size(wrapper["gammas"]) != problem.n_constraints:
        raise ConfigError(f"key 'gammas': needs one weight per constraint of {problem.name} "
                          f"({problem.n_constraints}), got {np.size(wrapper['gammas'])}")
    return CurriculumConstrained(_ENGINES[inner](problem, params), **wrapper)


_ENGINES = {
    "pearl-e": _pearl_e_engine,
    "pearl-eps": _pearl_eps_engine,
    "pearl-nds": _pearl_nds_engine,
    "c-pearl": _c_pearl_engine,
}
_NSGA_RUNS = {"nsga2": nsga.run_nsga2, "nsga3": nsga.run_nsga3}
ALGORITHMS = (*_ENGINES, *_NSGA_RUNS)


def _cell_run(config: ExperimentConfig, spec: AlgorithmSpec, problem: ProblemSpec,
              seed: int):
    """Check every setting of one cell's config entry, building one engine to
    do so, and return the call that runs the cell.  Draws no RNG and writes
    nothing."""
    params = dict(spec.params)
    if spec.name in _NSGA_RUNS:
        ga = nsga.GAConfig(budget=config.budget, seed=seed, **params).validate()
        return partial(_NSGA_RUNS[spec.name], problem, ga)
    trainer = {key: params.pop(key) for key in _TRAINER_KEYS & params.keys()}
    cfg = TrainerConfig(n_steps=config.n_steps, ncores=config.ncores, budget=config.budget,
                        seed=seed, **trainer).validate()
    make_engine = partial(_ENGINES[spec.name], problem, params)
    make_engine()
    if spec.name == "pearl-e" and problem.n_constraints:
        raise ValueError("pearl-e ignores constraints; on a constrained problem "
                         "use c-pearl with inner: pearl-e")
    return partial(train, problem, make_engine, cfg)


# ---------------------------------------------------------------------------
# Cell outputs
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


_CSV_CHUNK_ROWS = 1024  # bounds the Python floats alive while writing


def write_evaluations_csv(result: RunResult, path: Path):
    """One line per log row, each value as ``repr(float)``, written a chunk
    of rows at a time; the bytes are those ``csv.writer`` would write."""
    log, problem = result.log, result.log.problem
    header = (["step", "worker"]
              + [f"x{i + 1}" for i in range(problem.n_x)]
              + [f"f{i + 1}" for i in range(problem.n_obj)]
              + [f"g{i + 1}" for i in range(problem.n_constraints)]
              + ["cv", "reward"])
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(log), _CSV_CHUNK_ROWS):
            rows = slice(start, min(start + _CSV_CHUNK_ROWS, len(log)))
            values = np.hstack([log.X[rows], log.F[rows], log.G[rows],
                                log.cv[rows, None], log.reward[rows, None]]).tolist()
            handle.writelines(
                f"{step},{worker}," + ",".join(map(repr, row)) + "\r\n"
                for step, worker, row in zip(range(rows.start, rows.stop),
                                             log.worker[rows].tolist(), values))


def write_front_csv(result: RunResult, path: Path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i + 1}" for i in range(result.log.problem.n_obj)])
        for f in result.log.F[result.front].tolist():
            writer.writerow([_fmt(v) for v in f])


def load_front_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) <= 1:
        return np.empty((0, max(len(rows[0]), 1) if rows else 1))
    return np.asarray(rows[1:], dtype=float)


def _load_feasible_front(front_path: Path) -> np.ndarray:
    """A cell's ``front.csv``, emptied when its ``summary.json`` counts no feasible member."""
    summary_path = front_path.with_name("summary.json")
    summary = json.loads(summary_path.read_text())
    if "feasible_front_size" not in summary:
        raise ValueError(f"{summary_path} has no 'feasible_front_size'")
    front = load_front_csv(front_path)
    return front if summary["feasible_front_size"] else front[:0]


def _cell_metrics(run_id: str, label: str, result: RunResult) -> MetricReport:
    # an infeasible set is no front: it scores hv 0 and no distances
    log, problem = result.log, result.log.problem
    front = log.F[result.front[log.cv[result.front] == 0]]
    hv = hypervolume(front, problem.nadir) if len(front) else 0.0
    gd_v = igd_v = eps_v = float("nan")
    try:
        ref = reference_front(problem, 1000)
    except FileNotFoundError:  # no reference front is registered
        ref = None
    if ref is not None and len(front):
        gd_v, igd_v, eps_v = gd(front, ref), igd(front, ref), additive_epsilon(front, ref)
    return MetricReport(
        run_id=run_id, algorithm=label, problem=problem.name,
        hv=hv, gd=gd_v, igd=igd_v, eps=eps_v,
    ).validate()


def _run_cell(config: ExperimentConfig, spec: AlgorithmSpec, problem_name: str,
              seed: int, cell_dir: Path) -> MetricReport:
    result = _cell_run(config, spec, get_problem(problem_name), seed)()
    problem = result.log.problem
    cell_dir.mkdir(parents=True, exist_ok=True)
    write_evaluations_csv(result, cell_dir / "evaluations.csv")
    write_front_csv(result, cell_dir / "front.csv")
    run_id = f"{spec.label}-{problem.name}-seed{seed}"
    report = _cell_metrics(run_id, spec.label, result)
    summary = {
        "run_id": run_id,
        "algorithm": spec.label,
        "problem": problem.name,
        "seed": seed,
        "config": config.raw,
        "wall_time": result.wall_time,
        "n_evaluations": len(result.log),
        "front_size": len(result.front),
        "feasible_front_size": int(np.sum(result.log.cv[result.front] == 0)),
        "metrics": {"hv": report.hv, "gd": report.gd, "igd": report.igd,
                    "eps": report.eps},
    }
    with open(cell_dir / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def resolve_output_dir(output_dir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def run_experiment(source, force: bool = False, parallel_cells: int = 1) -> Path:
    """Execute every cell of an experiment config; returns the output dir.

    Refuses to overwrite an existing completed experiment unless ``force``.
    A failing cell leaves a FAILED marker with the traceback and does not
    stop the remaining cells; the experiment then raises at the end.
    ``parallel_cells`` must be a positive integer; it is checked before
    anything is written.
    """
    parallel_cells = _positive_int("parallel_cells", parallel_cells)
    config = load_config(source)
    out = resolve_output_dir(config.output_dir)
    if (out / "metrics.csv").exists() and not force:
        raise FileExistsError(
            f"output directory {out} already holds results (use force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as handle:
        json.dump(config.raw, handle, indent=2, sort_keys=True)
        handle.write("\n")

    cells = [(spec, problem, seed)
             for spec in config.algorithms
             for problem in config.problems
             for seed in config.seeds]

    task = partial(_cell_task, config, out)
    reports, failures = [], []
    if parallel_cells > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel_cells) as pool:
            outcomes = list(pool.map(task, cells))
    else:
        outcomes = map(task, cells)
    for report, failure in outcomes:
        (reports if report else failures).append(report or failure)

    write_metric_csv(reports, out / "metrics.csv")
    if failures:
        names = ", ".join(f"{s.label}/{p}/seed{seed}" for (s, p, seed), _ in failures)
        raise RuntimeError(f"{len(failures)} cell(s) failed: {names}")
    return out


def _cell_task(config: ExperimentConfig, out: Path, cell):
    """Run one cell, or leave a FAILED marker with the traceback.  Bound by
    ``partial`` it pickles, so --parallel-cells can ship it to workers."""
    spec, problem, seed = cell
    cell_dir = out / spec.label / problem / f"seed{seed}"
    try:
        return _run_cell(config, spec, problem, seed, cell_dir), None
    except Exception as err:  # noqa: BLE001
        cell_dir.mkdir(parents=True, exist_ok=True)
        (cell_dir / "FAILED").write_text(traceback.format_exc())
        return None, (cell, err)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonResult:
    problem: str
    algorithms: list[str]
    seeds: list[int]
    table: dict            # algorithm -> metric -> (mean, std)
    hv_matrix: np.ndarray  # seeds x algorithms
    friedman: Optional[stats.FriedmanResult]
    nemenyi: Optional[stats.NemenyiResult]
    warnings: list[str]


def _seed_of(run_id: str) -> int:
    tail = run_id.rsplit("seed", 1)[-1]
    return int(tail)


def compare(run_dirs, alpha: float = 0.05) -> list[ComparisonResult]:
    """Cross-algorithm comparison over shared (problem, seed) cells.

    Hypervolumes come straight from the metric CSVs; the binary indicators
    are recomputed against the combined per-seed reference front built from
    the stored front files (no problem re-evaluation), where a front
    with no feasible member counts as empty.  Statistics run on the
    hypervolume matrix when at least two seeds are shared.  A (problem,
    label, seed) cell found twice across ``run_dirs`` is an error.
    """
    _real("alpha", alpha, "in (0, 1)")  # checked before any file is read
    cells: dict = {}  # (problem, label, seed) -> (hv, front.csv path)
    for run_dir in map(Path, run_dirs):
        metrics = run_dir / "metrics.csv"
        if not metrics.exists():
            raise FileNotFoundError(f"{run_dir} has no metrics.csv")
        for r in read_metric_csv(metrics):
            seed = _seed_of(r.run_id)
            key = (r.problem, r.algorithm, seed)
            path = run_dir / r.algorithm / r.problem / f"seed{seed}" / "front.csv"
            if key in cells:
                raise ValueError(f"cell {r.run_id} is found twice: {cells[key][1]} and {path}")
            cells[key] = (r.hv, path)

    results = []
    for problem_name in sorted({problem for problem, _, _ in cells}):
        keys = [(a, s) for problem, a, s in cells if problem == problem_name]
        algorithms = sorted({a for a, _ in keys})
        shared = sorted({s for _, s in keys})
        if len(algorithms) < 2:
            raise ValueError(
                f"problem {problem_name}: need at least 2 algorithms to compare")
        missing = [f"{a}:seed{s}" for a in algorithms for s in shared
                   if (problem_name, a, s) not in cells]
        if missing:
            raise ValueError(
                f"problem {problem_name}: mismatched seed sets; missing cells: "
                + ", ".join(missing))

        per_algo_metrics: dict = {a: {m: [] for m in ("hv", "gd", "igd", "eps", "i_c", "c_metric")}
                                  for a in algorithms}
        for seed in shared:
            fronts = {a: _load_feasible_front(cells[(problem_name, a, seed)][1])
                      for a in algorithms}
            pool = np.vstack(list(fronts.values()))
            combined = pool[non_dominated_mask(pool)]
            cardinality = cardinality_metrics(fronts)
            for a in algorithms:
                front = fronts[a]
                per_algo_metrics[a]["hv"].append(cells[(problem_name, a, seed)][0])
                for metric, indicator in (("gd", gd), ("igd", igd), ("eps", additive_epsilon)):
                    per_algo_metrics[a][metric].append(
                        indicator(front, combined) if len(front) else np.nan)
                i_c, c_m = cardinality[a]
                per_algo_metrics[a]["i_c"].append(i_c)
                per_algo_metrics[a]["c_metric"].append(c_m)

        table = {
            a: {m: (float(np.mean(v)), float(np.std(v)))
                for m, v in per_algo_metrics[a].items()}
            for a in algorithms
        }
        hv_matrix = np.array([per_algo_metrics[a]["hv"] for a in algorithms]).T
        warnings = []
        fr = nem = None
        if len(shared) >= 2:
            fr = stats.friedman(hv_matrix)
            nem = stats.nemenyi(hv_matrix, alpha=alpha)
        else:
            warnings.append("single shared seed: statistics skipped")
        results.append(ComparisonResult(
            problem=problem_name, algorithms=algorithms, seeds=shared,
            table=table, hv_matrix=hv_matrix, friedman=fr, nemenyi=nem,
            warnings=warnings))
    return results


def write_comparison(results: list[ComparisonResult], out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        with open(out / f"comparison_{res.problem}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["algorithm", "metric", "mean", "std"])
            for a in res.algorithms:
                for metric, (mean, std) in res.table[a].items():
                    writer.writerow([a, metric, _fmt(mean), _fmt(std)])
        if res.nemenyi is not None:
            stats.write_significance_csv(
                res.nemenyi, res.algorithms, out / f"significance_{res.problem}.csv")
            with open(out / f"friedman_{res.problem}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["statistic", "p_value"])
                writer.writerow([_fmt(res.friedman.statistic), _fmt(res.friedman.p_value)])
    return out
