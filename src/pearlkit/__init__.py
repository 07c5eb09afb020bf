"""pearlkit: single-policy multi-objective RL with evolutionary baselines.

The package trains one stochastic policy whose per-sample reward comes from
ranking each new solution against a per-worker archive of non-dominated
solutions (or from preference-ray scalarization), alongside NSGA-II/III
baselines, the dtlz/ctp benchmark suites, exact quality indicators, and
rank-based significance tests.
"""

from .pareto import (
    FEASIBILITY_TOL,
    ParetoArchive,
    best_front,
    non_dominated_mask,
    non_dominated_sort,
)
from .density import (
    DensityRank,
    crowding_rank,
    das_dennis,
    default_divisions,
    niching_rank,
)
from .rewards import (
    CurriculumConstrained,
    PearlEnvelope,
    PearlEpsilon,
    PearlNds,
    RewardOutcome,
    constraint_violation,
    pearl_e_reward,
    sample_preferences,
)
from .problems import (
    PROBLEMS,
    ProblemSpec,
    evaluate,
    get_problem,
    reference_front,
)
from .trainer import EvaluationLog, RunResult, TrainerConfig, train
from .nsga import GAConfig, run_nsga2, run_nsga3
from .indicators import (
    MetricReport,
    additive_epsilon,
    cardinality_metrics,
    entropy_select,
    gd,
    hypervolume,
    igd,
)
from .stats import critical_difference, friedman, nemenyi

__version__ = "0.1.0"

__all__ = [
    "FEASIBILITY_TOL", "ParetoArchive", "best_front",
    "non_dominated_mask", "non_dominated_sort",
    "DensityRank", "crowding_rank", "das_dennis",
    "default_divisions", "niching_rank",
    "CurriculumConstrained", "PearlEnvelope", "PearlEpsilon", "PearlNds",
    "RewardOutcome", "constraint_violation", "pearl_e_reward",
    "sample_preferences",
    "PROBLEMS", "ProblemSpec", "evaluate", "get_problem",
    "reference_front",
    "EvaluationLog", "RunResult", "TrainerConfig", "train",
    "GAConfig", "run_nsga2", "run_nsga3",
    "MetricReport", "additive_epsilon", "cardinality_metrics",
    "entropy_select", "gd", "hypervolume", "igd",
    "critical_difference", "friedman", "nemenyi",
    "__version__",
]
