"""Per-layer metrics and the span accounting self-check of a traced cell.

``<layer>.s`` is the inclusive time of the layer's outermost calls, summed;
``self_s`` subtracts the time covered by direct child spans.  Percentiles
are over single calls.  A layer the workload never enters reports 0.
"""

from __future__ import annotations

import json

import numpy as np

from tracing import FAILED


def high_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it (0 if n <= 10)."""
    return 100.0 * (n - 10) / n if n > 10 else 0.0


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans_path, cell: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced cell, and accounting failures."""
    with open(spans_path) as handle:
        data = json.load(handle)
    layers = data["layers"]
    spans = np.asarray(data["spans"], dtype=np.int64).reshape(-1, 5)
    layer, start, end, parent, note = spans.T
    dur = (end - start) / 1e9

    failures = []
    has_parent = parent >= 0
    p = parent[has_parent]
    if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
        failures.append("a child span lies outside its parent")
    child_time = np.bincount(p, weights=dur[has_parent], minlength=len(spans))
    self_time = dur - child_time
    if np.any(self_time < -1e-9):
        failures.append("child spans cover more time than their parent")

    def sel(name):
        return layer == layers.index(name) if name in layers else np.zeros(len(spans), bool)

    def total(name, times=dur):
        return float(times[sel(name)].sum())

    evaluate, score = sel("problems.evaluate"), sel("rewards.score")
    rollout, update = sel("trainer.rollout"), sel("trainer.update")
    generation = sel("nsga.generation")
    # a round runs from a rollout's start to the end of the update after it
    if update.sum() == rollout.sum():
        rounds_ms = (end[update] - start[rollout]) / 1e6
    else:
        rounds_ms = np.empty(0)
        failures.append("every rollout must be followed by one update")
    gens_ms = dur[generation] * 1e3
    n_score = int(score.sum())
    sizes = data["archive_sizes"]
    hv_notes = note[sel("indicators.hypervolume")]

    metrics = {
        "problems.evaluate.calls": int(evaluate.sum()),
        "problems.evaluate.s": total("problems.evaluate"),
        "problems.evaluate.us_p50": _pct(dur[evaluate] * 1e6, 50),
        "problems.evaluate.us_p99": _pct(dur[evaluate] * 1e6, 99),
        "problems.evaluate.failed": int(np.sum(note[evaluate] == FAILED)),
        "rewards.score.calls": n_score,
        "rewards.score.s": total("rewards.score"),
        "rewards.score.us_p50": _pct(dur[score] * 1e6, 50),
        "rewards.score.us_p99": _pct(dur[score] * 1e6, 99),
        "rewards.score.archived_ratio": float(note[score].sum() / n_score) if n_score else 0.0,
        "pareto.archive.insert.s": total("pareto.archive.insert"),
        "pareto.archive.add.s": total("pareto.archive.add"),
        "pareto.archive.size_final": float(np.mean(sizes)) if sizes else 0.0,
        "pareto.non_dominated_sort.s": total("pareto.non_dominated_sort"),
        "pareto.best_front.s": total("pareto.best_front"),
        "density.crowding_rank.calls": int(sel("density.crowding_rank").sum()),
        "density.crowding_rank.s": total("density.crowding_rank"),
        "density.associate.s": total("density.associate"),
        "trainer.rollout.self_s": total("trainer.rollout", self_time),
        "trainer.update.s": total("trainer.update"),
        "trainer.round.ms_p50": _pct(rounds_ms, 50),
        "trainer.round.ms_hi": _pct(rounds_ms, high_percentile(len(rounds_ms))),
        "nsga.generation.ms_p50": _pct(gens_ms, 50),
        "nsga.generation.ms_hi": _pct(gens_ms, high_percentile(len(gens_ms))),
        "nsga.variation.s": total("nsga.variation"),
        "nsga.survivors.s": total("nsga.survivors"),
        "indicators.hypervolume.s": total("indicators.hypervolume"),
        "indicators.distance.s": total("indicators.distance"),
        "indicators.front_size": int(hv_notes[-1]) if len(hv_notes) else 0,
        "experiment.write.s": total("experiment.write"),
        "experiment.evaluations_csv.bytes": cell["evaluations_bytes"],
        "experiment.cell_metrics.s": total("experiment.cell_metrics"),
    }

    if metrics["problems.evaluate.calls"] != cell["n_evaluations"]:
        failures.append(f"problems.evaluate.calls {metrics['problems.evaluate.calls']} "
                        f"!= n_evaluations {cell['n_evaluations']}")
    expected_scores = (cell["n_evaluations"] - cell["failed_evaluations"]
                       if rollout.any() else 0)
    if n_score != expected_scores:
        failures.append(f"rewards.score.calls {n_score} != {expected_scores} "
                        "(trainer evaluations minus failed ones)")
    return metrics, failures
