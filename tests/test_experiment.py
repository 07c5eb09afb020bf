import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pearlkit.cli import main as cli_main
from pearlkit.experiment import (
    _ENGINES,
    ConfigError,
    _cell_run,
    compare,
    load_config,
    load_front_csv,
    run_experiment,
    write_comparison,
    write_evaluations_csv,
)
from pearlkit.indicators import hypervolume, read_metric_csv
from pearlkit.nsga import GAConfig, run_nsga2
from pearlkit.problems import get_problem
from pearlkit.trainer import TrainerConfig, train

from oracles import write_evaluations_csv_scalar


def small_config(tmp_path, **overrides):
    config = {
        "version": 1,
        "problems": "ctp1",
        "algorithms": [
            {"name": "pearl-nds", "ranker": "crowding", "kappa": 8},
        ],
        "budget": 64,
        "n_steps": 8,
        "ncores": 2,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


# Odd JSON values for the config probe, and every key they are put at: the
# top-level keys and each variant's parameters as README's "Algorithm
# variants" documents them, with a problem that variant runs on.
_ODD_VALUES = [None, True, False, 0, -1, 2.5, math.nan, math.inf, -math.inf, "", [], {}, [[1]]]
_TOP_LEVEL_KEYS = ["version", "problems", "algorithms", "budget", "seeds", "output_dir",
                   "n_steps", "ncores"]
_TRAINER_PARAMS = ["learning_rate", "clip_ratio", "entropy_coef", "value_coef", "epochs",
                   "minibatches", "hidden", "init_log_std"]
_GA_PARAMS = ["lambda_", "mu", "pop_size", "mutpb", "cxpb"]
_VARIANT_PARAMS = {
    "pearl-e": ("dtlz2", ["alpha", "lambda", "uniformity", "normalized_obj", "n_rays",
                          *_TRAINER_PARAMS]),
    "pearl-eps": ("dtlz2", ["kappa", "nu", *_TRAINER_PARAMS]),
    "pearl-nds": ("dtlz2", ["kappa", "ranker", *_TRAINER_PARAMS]),
    "c-pearl": ("c2dtlz2", ["mode", "M", "gammas", "inner", "kappa", "ranker",
                            *_TRAINER_PARAMS]),
    "nsga2": ("c2dtlz2", _GA_PARAMS),
    "nsga3": ("dtlz2", _GA_PARAMS),
}
# The odd values that load, by (key, repr(value)), each with the setting it
# documents; every other odd value must raise a ConfigError naming its key.
_ODD_VALUES_THAT_LOAD = {
    ("alpha", "2.5"): [2.5, 2.5, 2.5],  # one concentration for each objective
    ("lambda", "0"): 0.0, ("lambda", "-1"): -1.0, ("lambda", "2.5"): 2.5,
    ("normalized_obj", "True"): True, ("normalized_obj", "False"): False,
    ("nu", "2.5"): 2.5,
    ("M", "None"): 64.0,  # the inner engine's kappa
    ("M", "0"): 0.0, ("M", "2.5"): 2.5,
    ("gammas", "None"): None,  # unit weights
    ("gammas", "2.5"): [2.5],  # the weight of c2dtlz2's one constraint
    ("learning_rate", "2.5"): 2.5,
    ("clip_ratio", "0"): 0.0, ("clip_ratio", "2.5"): 2.5, ("clip_ratio", "inf"): math.inf,
    ("entropy_coef", "0"): 0.0, ("entropy_coef", "2.5"): 2.5,
    ("value_coef", "0"): 0.0, ("value_coef", "2.5"): 2.5,
    ("init_log_std", "None"): None,  # the engine's default width
    ("init_log_std", "0"): 0.0, ("init_log_std", "-1"): -1.0, ("init_log_std", "2.5"): 2.5,
    ("mu", "None"): 32, ("pop_size", "None"): 32,  # lambda_
    ("mutpb", "0"): 0.0, ("cxpb", "0"): 0.0,
}
_RAISES = object()


def _loaded_setting(config, key):
    """The value a loaded one-entry config's cell reads for the entry's
    ``key``: from its GAConfig, its TrainerConfig or its engine."""
    spec = config.algorithms[0]
    run = _cell_run(config, spec, get_problem(config.problems[0]), config.seeds[0])
    if spec.name in ("nsga2", "nsga3"):
        return getattr(run.args[1], key)
    if key in _TRAINER_PARAMS:
        return getattr(run.args[2], key)
    return getattr(run.args[1](), "lambda_" if key == "lambda" else key)


class TestConfig:
    def test_unknown_problem_names_the_key(self, tmp_path):
        path, _ = small_config(tmp_path, problems="zdt1")
        with pytest.raises(ConfigError, match="problems"):
            load_config(path)

    def test_unknown_algorithm_names_the_key(self, tmp_path):
        path, _ = small_config(tmp_path, algorithms=[{"name": "madeup"}])
        with pytest.raises(ConfigError, match="algorithms"):
            load_config(path)

    def test_version_required(self, tmp_path):
        path, _ = small_config(tmp_path, version=99)
        with pytest.raises(ConfigError, match="version"):
            load_config(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        # true and 1.0 equal 1, and loaded as version 1 before
        path, _ = small_config(tmp_path, version=version)
        with pytest.raises(ConfigError, match="key 'version'"):
            load_config(path)

    def test_budget_and_seeds_validated(self, tmp_path):
        path, _ = small_config(tmp_path, budget=-1)
        with pytest.raises(ConfigError, match="budget"):
            load_config(path)
        path, _ = small_config(tmp_path, seeds=[])
        with pytest.raises(ConfigError, match="seeds"):
            load_config(path)

    def test_budget_true_is_rejected_under_its_key(self, tmp_path):
        # a bool is an int, so true passed the top-level check before and
        # failed later under an entry's name
        path, _ = small_config(tmp_path, budget=True)
        with pytest.raises(ConfigError, match="key 'budget'"):
            load_config(path)

    def test_repeated_problem_rejected(self, tmp_path):
        # two spellings of one registered problem would write the same cells
        path, _ = small_config(tmp_path, problems=["ctp1", "CTP1"])
        with pytest.raises(ConfigError, match="key 'problems' names a problem twice"):
            load_config(path)

    @pytest.mark.parametrize("algorithms", [[5], [None], [["nsga2"]], ["nsga2", 2.5], 5])
    def test_non_object_algorithm_entry_rejected_under_its_key(self, tmp_path, algorithms):
        # entry.get() raised AttributeError on anything but a string or an object
        path, _ = small_config(tmp_path, algorithms=algorithms)
        with pytest.raises(ConfigError, match="key 'algorithms': an entry is a name or an object"):
            load_config(path)

    @pytest.mark.parametrize("label", [5, None, ["a"], "..", ".", "a/b", "/abs", "a\\b", "a\0b"])
    def test_label_outside_one_path_component_rejected(self, tmp_path, label):
        # 5 and "a\0b" failed in run_experiment after config.json was
        # written, and ".." put the cells outside the output directory
        path, _ = small_config(tmp_path, algorithms=[{"name": "nsga2", "label": label}])
        with pytest.raises(ConfigError, match="key 'label'"):
            load_config(path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir", [["a"], 5, {"a": 1}, True])
    def test_non_string_output_dir_rejected(self, tmp_path, output_dir):
        # ["a"] made a directory named "['a']"
        path, _ = small_config(tmp_path, output_dir=output_dir)
        with pytest.raises(ConfigError, match="key 'output_dir'"):
            load_config(path)

    @pytest.mark.parametrize("problems", [[5], [None], [{"a": 1}], ["dtlz2", 2.5], 5])
    def test_non_string_problem_rejected_under_its_key(self, tmp_path, problems):
        # get_problem calls name.lower(), so a non-string is caught before it
        path, _ = small_config(tmp_path, problems=problems)
        with pytest.raises(ConfigError, match="key 'problems': a problem name is a string"):
            load_config(path)

    @pytest.mark.parametrize("key", ["problems", "algorithms"])
    def test_only_the_plural_keys_are_read(self, tmp_path, key):
        path, config = small_config(tmp_path)
        config[key.removesuffix("s")] = config.pop(key)
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=f"key '{key}' is required"):
            load_config(path)

    @pytest.mark.parametrize("typo,key", [("n_step", "n_steps"), ("seed", "seeds")])
    def test_misspelt_top_level_key_is_named(self, tmp_path, typo, key):
        # the misspelling stands beside the default or the real key, which
        # would otherwise run silently in its place
        path, config = small_config(tmp_path)
        config[typo] = config.pop(key) if key == "n_steps" else [7]
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=f"key '{typo}' is not a config key"):
            load_config(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        path, _ = small_config(tmp_path, algorithms=[
            {"name": "pearl-nds", "kappa": 8}, {"name": "pearl-nds", "kappa": 16}])
        with pytest.raises(ConfigError, match="label"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [("inner", "nsga2"), ("inner", "c-pearl"),
                                           ("mode", "penalty")])
    def test_c_pearl_inner_and_mode_validated(self, tmp_path, key, value):
        path, _ = small_config(tmp_path, algorithms=[{"name": "c-pearl", key: value}])
        with pytest.raises(ConfigError, match=f"key '{key}'.*{value}"):
            load_config(path)

    @pytest.mark.parametrize("entry,key", [
        ({"name": "pearl-nds", "kapa": 8}, "'kapa'"),
        ({"name": "nsga3", "lamda_": 8}, "'lamda_'"),
        ({"name": "pearl-e", "lr": 1e-3}, "'lr'"),
        ({"name": "nsga2", "learning_rate": 1e-3}, "'learning_rate'"),
        ({"name": "c-pearl", "mode": "crowding2", "inner": "pearl-eps"}, "'inner'"),
        ({"name": "c-pearl", "mode": "crowding2", "gammas": [1.0, 1.0]}, "'gammas'"),
        ({"name": "c-pearl", "mode": "crowding2", "M": 64}, "'M'"),
        ({"name": "c-pearl", "inner": "pearl-e"}, "M must be given"),
        ({"name": "pearl-nds", "ranker": "crowdin"}, "ranker: 'crowdin'"),
        ({"name": "nsga2", "mutpb": 2.0}, "mutpb"),
        ({"name": "pearl-e", "lambda": 2.0, "lambda_": 3.0}, "'lambda_'"),
        ({"name": "pearl-nds", "constrained": True}, "'constrained'"),
        ({"name": "c-pearl", "constrained": True}, "'constrained'"),
        ({"name": "c-pearl", "mode": "crowding2", "constrained": True}, "'constrained'"),
        ({"name": "nsga2", "blend_alpha": 0.3}, "'blend_alpha'"),
        ({"name": "pearl-e", "uniformity": "cosine"}, "'cosine'"),
        # NSGA ranks feasibility first on every problem
        ({"name": "nsga2", "constrained": False}, "'constrained'"),
    ])
    def test_keys_nothing_reads_are_rejected_at_load(self, tmp_path, entry, key):
        path, _ = small_config(tmp_path, algorithms=[entry])
        with pytest.raises(ConfigError, match=f"{entry['name']}.*{re.escape(key)}"):
            load_config(path)

    @pytest.mark.parametrize("entry,key", [
        ({"name": "pearl-e", "n_rays": 0}, "n_rays"),
        ({"name": "pearl-e", "n_rays": -1}, "n_rays"),
        ({"name": "pearl-e", "n_rays": 1.5}, "n_rays"),
        ({"name": "pearl-nds", "kappa": 1.5}, "kappa"),
        ({"name": "pearl-nds", "kappa": True}, "kappa"),
        ({"name": "pearl-eps", "kappa": 1.5}, "kappa"),
        ({"name": "c-pearl", "mode": "crowding2", "kappa": 2.5}, "kappa"),
    ])
    def test_engine_sizes_must_be_positive_integers(self, tmp_path, entry, key):
        # at run time 0 and -1 rays failed every cell, and 1.5 ran as 1
        path, _ = small_config(tmp_path, algorithms=[entry])
        with pytest.raises(ConfigError, match=f"{key} must be a positive integer"):
            load_config(path)

    @pytest.mark.parametrize("entry,key", [
        # before, mu -1 loaded and ran without the best-ordered population's
        # last parent, mu 0 failed inside numpy, lambda_ -2 ran no
        # generation, lambda_ 0 divided by zero and pop_size 4.0 raised a
        # numpy TypeError
        ({"name": "nsga2", "mu": -1}, "mu"),
        ({"name": "nsga3", "mu": 0}, "mu"),
        ({"name": "nsga2", "lambda_": -2, "pop_size": 4}, "lambda_"),
        ({"name": "nsga3", "lambda_": 0, "pop_size": 4}, "lambda_"),
        ({"name": "nsga2", "pop_size": 4.0}, "pop_size"),
        ({"name": "nsga3", "lambda_": 8.0}, "lambda_"),
        ({"name": "nsga2", "lambda_": 8, "mu": True}, "mu"),
    ])
    def test_nsga_sizes_must_be_positive_integers(self, tmp_path, entry, key):
        path, _ = small_config(tmp_path, algorithms=[entry])
        with pytest.raises(ConfigError, match=f"{entry['name']}.*{key} must be a positive integer"):
            load_config(path)

    @pytest.mark.parametrize("entry", [{"name": "pearl-nds", "kappa": 8},
                                       {"name": "nsga2", "lambda_": 8}])
    def test_budget_below_one_round_rejected_at_load(self, tmp_path, entry):
        # one trainer batch is n_steps x ncores = 16; NSGA needs 8 + 8
        path, _ = small_config(tmp_path, algorithms=[entry], budget=15)
        with pytest.raises(ConfigError, match="budget"):
            load_config(path)

    @pytest.mark.parametrize("overrides,key", [
        ({"algorithms": [{"name": "pearl-nds", "squash": "tanh"}]}, "squash"),
        ({"n_steps": 0}, "n_steps"),
        ({"ncores": 0}, "ncores"),
        # before, these loaded and ran: no training, a clamp to one
        # minibatch, an empty network
        ({"algorithms": [{"name": "pearl-nds", "epochs": 0}]}, "epochs"),
        ({"algorithms": [{"name": "pearl-nds", "minibatches": 0}]}, "minibatches"),
        ({"algorithms": [{"name": "pearl-nds", "minibatches": -3}]}, "minibatches"),
        ({"algorithms": [{"name": "pearl-nds", "hidden": 0}]}, "hidden"),
        ({"algorithms": [{"name": "pearl-e", "learning_rate": -1}]}, "learning_rate"),
        ({"algorithms": [{"name": "c-pearl", "clip_ratio": -0.5}]}, "clip_ratio"),
        # before, these loaded: the first three then failed every cell, and
        # n_steps 8.7 ran as 8 and ncores true as 1
        ({"algorithms": [{"name": "pearl-nds", "hidden": 8.5}]}, "hidden"),
        ({"algorithms": [{"name": "pearl-nds", "epochs": 2.5}]}, "epochs"),
        ({"algorithms": [{"name": "pearl-nds", "hidden": True}]}, "hidden"),
        ({"n_steps": 8.7}, "n_steps"),
        ({"ncores": True}, "ncores"),
        # before, these loaded: the first two skipped every minibatch and
        # halved the learning rate to nothing, and a NaN init_log_std
        # stopped the run with FloatingPointError
        ({"algorithms": [{"name": "pearl-nds", "value_coef": float("nan")}]}, "value_coef"),
        ({"algorithms": [{"name": "pearl-nds", "entropy_coef": float("inf")}]}, "entropy_coef"),
        ({"algorithms": [{"name": "pearl-e", "learning_rate": float("inf")}]}, "learning_rate"),
        ({"algorithms": [{"name": "pearl-nds", "init_log_std": float("nan")}]}, "init_log_std"),
        ({"algorithms": [{"name": "pearl-nds", "init_log_std": float("-inf")}]}, "init_log_std"),
        ({"algorithms": [{"name": "pearl-nds", "entropy_coef": -0.01}]}, "entropy_coef"),
        ({"algorithms": [{"name": "c-pearl", "value_coef": -0.5}]}, "value_coef"),
    ])
    def test_trainer_settings_validated_at_load(self, tmp_path, overrides, key):
        path, _ = small_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("problem,entry,key", [
        # before, these loaded: a bad alpha then failed every cell with
        # "Dirichlet concentration entries must be positive", a NaN lambda
        # trained on NaN rewards, a NaN nu ranked on NaN fitness, a NaN M
        # paid every infeasible sample as a failure, and mutpb true ran as 1
        ("dtlz2", {"name": "pearl-e", "alpha": -1}, "alpha"),
        ("dtlz2", {"name": "pearl-e", "alpha": 0}, "alpha"),
        ("dtlz2", {"name": "pearl-e", "alpha": float("nan")}, "alpha"),
        ("dtlz2", {"name": "pearl-e", "alpha": [1.0, 0.0, 1.0]}, "alpha"),
        ("dtlz2", {"name": "pearl-e", "lambda": float("nan")}, "lambda"),
        ("ctp1", {"name": "pearl-eps", "nu": float("nan")}, "nu"),
        ("ctp1", {"name": "c-pearl", "M": float("nan")}, "M"),
        ("ctp1", {"name": "nsga2", "mutpb": True}, "mutpb"),
        # before, these failed with "'<' not supported ...", naming no key
        ("ctp1", {"name": "pearl-eps", "nu": "0.1"}, "nu"),
        ("ctp1", {"name": "c-pearl", "M": "3"}, "M"),
        ("ctp1", {"name": "nsga2", "mutpb": "0.3"}, "mutpb"),
    ])
    def test_engine_and_ga_reals_validated_at_load(self, tmp_path, problem, entry, key):
        path, _ = small_config(tmp_path, problems=problem, algorithms=[entry])
        with pytest.raises(ConfigError, match=rf"{entry['name']}.*: {key} must be"):
            load_config(path)

    @pytest.mark.parametrize("name", ["nsga2", "nsga3", "pearl-nds"])
    @pytest.mark.parametrize("key", ["seed", "budget"])
    def test_top_level_keys_rejected_in_an_entry(self, tmp_path, name, key):
        # before, an NSGA entry failed with "GAConfig() got multiple values
        # for keyword argument 'seed'"
        path, _ = small_config(tmp_path, algorithms=[{"name": name, key: 1}])
        with pytest.raises(ConfigError, match=f"key '{key}' is not a {name} entry key"):
            load_config(path)

    @pytest.mark.parametrize("key", ["learning_rate", "clip_ratio", "entropy_coef",
                                     "value_coef", "init_log_std"])
    def test_trainer_float_setting_given_as_string_names_its_key(self, tmp_path, key):
        # before, the comparison raised first: "'<' not supported between
        # instances of 'int' and 'str'"
        path, _ = small_config(tmp_path, algorithms=[{"name": "pearl-nds", key: "0.1"}])
        with pytest.raises(ConfigError, match=f"{key} must be a real number, not '0.1'"):
            load_config(path)

    def test_pearl_e_on_a_constrained_problem_points_to_c_pearl(self, tmp_path):
        # PearlEnvelope scores objectives only, so it would train blind to ctp1's constraints
        path, _ = small_config(tmp_path, algorithms=[{"name": "pearl-e"}])
        with pytest.raises(ConfigError, match="pearl-e.*on ctp1.*c-pearl with inner: pearl-e"):
            load_config(path)
        path, _ = small_config(tmp_path, problems=["dtlz2", "c2dtlz2"],
                               algorithms=[{"name": "pearl-e"}])
        with pytest.raises(ConfigError, match="on c2dtlz2"):
            load_config(path)
        path, _ = small_config(tmp_path, problems=["dtlz2", "c2dtlz2"],
                               algorithms=[{"name": "c-pearl", "inner": "pearl-e", "M": 1.0}])
        load_config(path)
        path, _ = small_config(tmp_path, problems="dtlz2", algorithms=[{"name": "pearl-e"}])
        load_config(path)

    @pytest.mark.parametrize("overrides,key", [
        ({"n_steps": 8.7}, "n_steps"),
        ({"ncores": True}, "ncores"),
        ({"n_steps": 0}, "n_steps"),
        ({"ncores": "2"}, "ncores"),
    ])
    def test_batch_sizes_checked_without_a_trainer_entry(self, tmp_path, overrides, key):
        # before, an NSGA-only config loaded these unchanged
        path, _ = small_config(tmp_path, algorithms=[{"name": "nsga2", "lambda_": 8}],
                               **overrides)
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("seeds", [[0, 0.9, True], [0.9], [True], [-1], ["0"], [0, 1, 0]])
    def test_seeds_must_be_distinct_integers(self, tmp_path, seeds):
        # before, [0, 0.9, True] loaded as [0, 0, 1]: seed 0 ran twice into
        # one cell directory and metrics.csv held its row twice
        path, _ = small_config(tmp_path, seeds=seeds)
        with pytest.raises(ConfigError, match="key 'seeds'"):
            load_config(path)

    @pytest.mark.parametrize("gammas", [[1.0, 2.0], [], [-1.0], [0.0], [float("inf")],
                                        [float("nan")], [True], True, ["2.0"]])
    def test_c_pearl_gammas_checked_at_load(self, tmp_path, gammas):
        # c2dtlz2 has one constraint; before, each of these loaded and then
        # failed every cell, and [true], true and ["2.0"] loaded as weights
        path, _ = small_config(tmp_path, problems="c2dtlz2", algorithms=[
            {"name": "c-pearl", "gammas": gammas}])
        with pytest.raises(ConfigError, match="c-pearl.*gammas"):
            load_config(path)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_pearl_e_normalized_obj_must_be_a_bool(self, tmp_path, value):
        # before, it was read by truthiness: "false" switched normalization on
        path, _ = small_config(tmp_path, problems="dtlz2", algorithms=[
            {"name": "pearl-e", "normalized_obj": value}])
        with pytest.raises(ConfigError, match="pearl-e.*normalized_obj"):
            load_config(path)

    def test_zero_clip_ratio_and_one_weight_per_constraint_load(self, tmp_path):
        path, _ = small_config(tmp_path, problems="c2dtlz2", algorithms=[
            {"name": "c-pearl", "gammas": [2.0], "clip_ratio": 0.0}])
        load_config(path)

    @pytest.mark.parametrize("name,key", [(None, key) for key in _TOP_LEVEL_KEYS] + [
        (name, key) for name, (_, keys) in _VARIANT_PARAMS.items() for key in keys])
    def test_odd_json_values_load_as_documented_or_name_their_key(self, name, key):
        # name None puts the value at a top-level key, else at a parameter
        # of that variant's entry
        wrong = []
        for value in _ODD_VALUES:
            problem = _VARIANT_PARAMS[name][0] if name else "dtlz2"
            config = {"version": 1, "problems": [problem], "algorithms": [{"name": name or "nsga2"}],
                      "budget": 64, "n_steps": 8, "ncores": 2, "seeds": [0], "output_dir": "out"}
            (config["algorithms"][0] if name else config)[key] = value
            expected = _ODD_VALUES_THAT_LOAD.get((key, repr(value)), _RAISES) if name else _RAISES
            try:
                got = _loaded_setting(load_config(config), key)
            except ConfigError as err:
                if expected is not _RAISES or not re.search(rf"(?<!\w){re.escape(key)}(?!\w)",
                                                            str(err)):
                    wrong.append(f"{value!r}: {err}")
                continue
            if expected is _RAISES or not (got is None if expected is None
                                           else np.array_equal(got, expected)):
                wrong.append(f"{value!r} loaded as {got!r}")
        assert not wrong, wrong

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        config = load_config(json.loads(example))
        assert [spec.label for spec in config.algorithms] == ["pearl-nds-crowding", "nsga3"]


class TestRun:
    def test_outputs_per_cell(self, tmp_path):
        path, config = small_config(tmp_path)
        out = run_experiment(path)
        reports = read_metric_csv(out / "metrics.csv")
        assert len(reports) == 2  # 1 problem x 1 algorithm x 2 seeds
        for seed in (0, 1):
            cell = out / "pearl-nds-crowding" / "ctp1" / f"seed{seed}"
            assert (cell / "evaluations.csv").exists()
            assert (cell / "front.csv").exists()
            summary = json.loads((cell / "summary.json").read_text())
            assert summary["config"] == config  # exact echo round-trip
            assert summary["n_evaluations"] == 64

    def test_pearl_nds_is_rank_based_c_pearl_on_a_constrained_problem(self, tmp_path):
        # one dominance relation: pearl-nds ranks feasibility first, so on
        # c2dtlz2 it is c-pearl crowding2, evaluation for evaluation
        path, _ = small_config(tmp_path, problems="c2dtlz2", seeds=[0], algorithms=[
            {"name": "pearl-nds", "kappa": 8}, {"name": "c-pearl", "mode": "crowding2",
                                                "kappa": 8}])
        out = run_experiment(path)
        nds = out / "pearl-nds" / "c2dtlz2" / "seed0" / "evaluations.csv"
        rank2 = out / "c-pearl-crowding2" / "c2dtlz2" / "seed0" / "evaluations.csv"
        assert nds.read_bytes() == rank2.read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path):
        path, _ = small_config(tmp_path)
        run_experiment(path)
        with pytest.raises(FileExistsError):
            run_experiment(path)
        run_experiment(path, force=True)  # allowed

    def test_rerun_is_byte_identical(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = run_experiment(path)
        cell = out / "pearl-nds-crowding" / "ctp1" / "seed0"
        first = (cell / "evaluations.csv").read_bytes()
        first_front = (cell / "front.csv").read_bytes()
        run_experiment(path, force=True)
        assert (cell / "evaluations.csv").read_bytes() == first
        assert (cell / "front.csv").read_bytes() == first_front

    # only values that start no process: a valid large count would start that many
    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_parallel_cells_checked_before_anything_is_written(self, tmp_path, count):
        path, _ = small_config(tmp_path)
        with pytest.raises(ValueError, match="parallel_cells must be a positive integer"):
            run_experiment(path, parallel_cells=count)
        assert not (tmp_path / "out").exists()

    def test_parallel_cells_match_sequential_bytes(self, tmp_path):
        path, config = small_config(tmp_path, algorithms=[
            {"name": "pearl-nds", "ranker": "crowding", "kappa": 8},
            {"name": "nsga2", "lambda_": 8}])
        sequential = run_experiment(path)
        config["output_dir"] = str(tmp_path / "parallel")
        path.write_text(json.dumps(config))
        parallel = run_experiment(path, parallel_cells=2)
        files = sorted(p.relative_to(sequential) for p in sequential.rglob("*.csv"))
        assert len(files) == 1 + 2 * 2 * 2  # metrics + (evaluations, front) per cell
        for rel in files:
            assert (parallel / rel).read_bytes() == (sequential / rel).read_bytes(), rel
        for summary in sequential.rglob("summary.json"):
            a = json.loads(summary.read_text())
            b = json.loads((parallel / summary.relative_to(sequential)).read_text())
            a.pop("wall_time"), b.pop("wall_time")
            a.pop("config"), b.pop("config")
            assert a == b

    def test_failure_marker_preserves_other_cells(self, tmp_path, monkeypatch):
        path, _ = small_config(tmp_path, seeds=[0, 1, 2])
        import pearlkit.experiment as exp

        original = exp._cell_metrics

        def flaky(run_id, label, result):
            if run_id.endswith("seed1"):
                raise RuntimeError("synthetic cell failure")
            return original(run_id, label, result)

        monkeypatch.setattr(exp, "_cell_metrics", flaky)
        with pytest.raises(RuntimeError, match="seed1"):
            run_experiment(path)
        out = tmp_path / "out"
        assert (out / "pearl-nds-crowding" / "ctp1" / "seed1" / "FAILED").exists()
        assert len(read_metric_csv(out / "metrics.csv")) == 2

    def test_engine_error_fails_the_cell(self, tmp_path, monkeypatch):
        # an engine that raises while scoring is a program or configuration
        # error, not a failed evaluation to flag and skip
        from pearlkit.rewards import PearlNds

        def broken_score(self, log, row):
            raise ValueError("synthetic engine error")

        monkeypatch.setattr(PearlNds, "score", broken_score)
        path, _ = small_config(tmp_path, problems="c2dtlz2", seeds=[0], algorithms=[
            {"name": "c-pearl", "mode": "distance-cl"}])
        with pytest.raises(RuntimeError, match="1 cell"):
            run_experiment(path)
        failed = tmp_path / "out" / "c-pearl-distance-cl" / "c2dtlz2" / "seed0" / "FAILED"
        assert "ValueError: synthetic engine error" in failed.read_text()

    def test_infeasible_front_scores_no_hypervolume(self, tmp_path, monkeypatch):
        import pearlkit.experiment as exp

        never_feasible = dataclasses.replace(
            get_problem("c2dtlz2"), name="never-feasible",
            constraints=lambda x, f: np.array([1.0]))
        monkeypatch.setattr(exp, "get_problem", lambda name: never_feasible)
        # the NSGA front comes from the log, the c-pearl one from the archives
        path, _ = small_config(tmp_path, problems="never-feasible", seeds=[0],
                               algorithms=[{"name": "nsga2", "lambda_": 8},
                                           {"name": "c-pearl", "mode": "crowding2",
                                            "kappa": 8}])
        out = run_experiment(path)
        reports = read_metric_csv(out / "metrics.csv")
        assert [report.algorithm for report in reports] == ["nsga2", "c-pearl-crowding2"]
        for report in reports:
            assert report.hv == 0.0
            assert np.isnan([report.gd, report.igd, report.eps]).all()
            summary = json.loads((out / report.algorithm / "never-feasible" / "seed0" /
                                  "summary.json").read_text())
            assert summary["metrics"]["hv"] == 0.0
            assert summary["front_size"] > 0
            assert summary["feasible_front_size"] == 0

    def test_no_registered_reference_front_scores_no_distances(self, tmp_path, monkeypatch):
        import pearlkit.experiment as exp

        no_front = dataclasses.replace(get_problem("dtlz2"), name="no-front", front=None)
        monkeypatch.setattr(exp, "get_problem", lambda name: no_front)
        path, _ = small_config(tmp_path, problems="no-front", seeds=[0],
                               algorithms=[{"name": "nsga2", "lambda_": 8}])
        (report,) = read_metric_csv(run_experiment(path) / "metrics.csv")
        assert report.hv > 0.0
        assert np.isnan([report.gd, report.igd, report.eps]).all()

    def test_reference_front_of_wrong_width_fails_the_cell(self, tmp_path, monkeypatch):
        # a spec error, not a missing reference front to score NaN
        import pearlkit.experiment as exp

        bad_front = dataclasses.replace(get_problem("dtlz2"), name="bad-front",
                                        front=lambda n: np.zeros((n, 2)))
        monkeypatch.setattr(exp, "get_problem", lambda name: bad_front)
        path, _ = small_config(tmp_path, problems="bad-front", seeds=[0],
                               algorithms=[{"name": "nsga2", "lambda_": 8}])
        with pytest.raises(RuntimeError, match="1 cell"):
            run_experiment(path)
        failed = tmp_path / "out" / "nsga2" / "bad-front" / "seed0" / "FAILED"
        assert "dimensions differ" in failed.read_text()
        assert not (tmp_path / "out" / "nsga2" / "bad-front" / "seed0" / "summary.json").exists()

    def test_cell_metrics_carry_no_cardinality_columns(self, tmp_path):
        path, _ = small_config(tmp_path, seeds=[0])
        out = run_experiment(path)
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "run_id,algorithm,problem,hv,gd,igd,eps"
        (summary,) = out.rglob("summary.json")
        assert sorted(json.loads(summary.read_text())["metrics"]) == ["eps", "gd", "hv", "igd"]

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEARLKIT_OUTPUT_ROOT", str(tmp_path / "root"))
        path, _ = small_config(tmp_path, output_dir="relative-run")
        out = run_experiment(path)
        assert out == tmp_path / "root" / "relative-run"
        assert (out / "metrics.csv").exists()


class TestEvaluationsCsv:
    @staticmethod
    def flaky_c2dtlz2():
        problem = get_problem("c2dtlz2")

        def objectives(x):
            if x[0] > 0.7:
                raise RuntimeError("simulator run failed")
            return problem.objectives(x)

        return dataclasses.replace(problem, name="flaky-c2dtlz2", objectives=objectives)

    @staticmethod
    def assert_matches_oracle(result, tmp_path):
        write_evaluations_csv(result, tmp_path / "bulk.csv")
        write_evaluations_csv_scalar(result.log, tmp_path / "oracle.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_trainer_log_with_failures_matches_scalar_writer(self, tmp_path):
        problem = self.flaky_c2dtlz2()
        cfg = TrainerConfig(n_steps=8, ncores=2, budget=128, hidden=8, seed=2)
        result = train(problem, lambda: _ENGINES["c-pearl"](problem, {"kappa": 8}), cfg)
        failed = np.isnan(result.log.cv)
        assert failed.any() and not failed.all()
        # some failure was paid below -kappa by the batch fix-up
        assert (result.log.reward[failed] < -8.0).any()
        self.assert_matches_oracle(result, tmp_path)

    def test_nsga_log_with_failures_matches_scalar_writer(self, tmp_path):
        problem = self.flaky_c2dtlz2()
        # 16 + 67 * 16 = 1088 rows span more than one written chunk
        result = run_nsga2(problem, GAConfig(lambda_=16, budget=1100, seed=1))
        assert len(result.log) == 1088
        assert np.isnan(result.log.F).all(axis=1).any()
        self.assert_matches_oracle(result, tmp_path)


class TestCompare:
    def run_two_algorithms(self, tmp_path, seeds=(0, 1, 2)):
        path, _ = small_config(
            tmp_path,
            algorithms=[
                {"name": "pearl-nds", "ranker": "crowding", "kappa": 8},
                {"name": "nsga2", "lambda_": 8, "pop_size": 8},
            ],
            seeds=list(seeds),
            budget=64,
        )
        return run_experiment(path)

    def test_metrics_and_statistics(self, tmp_path):
        out = self.run_two_algorithms(tmp_path)
        results = compare([out], alpha=0.05)
        assert len(results) == 1
        res = results[0]
        assert res.problem == "ctp1"
        assert res.algorithms == ["nsga2", "pearl-nds-crowding"]
        assert res.hv_matrix.shape == (3, 2)
        assert res.friedman is not None
        for a in res.algorithms:
            assert 0.0 <= res.table[a]["c_metric"][0] <= 1.0
        cmp_dir = write_comparison(results, tmp_path / "cmp")
        assert (cmp_dir / "comparison_ctp1.csv").exists()
        assert (cmp_dir / "significance_ctp1.csv").exists()

    def test_table_agrees_with_metrics_recomputed_from_fronts(self, tmp_path):
        out = self.run_two_algorithms(tmp_path)
        res = compare([out])[0]
        nadir = get_problem("ctp1").nadir
        recomputed = {a: {"hv": [], "gd": [], "igd": [], "eps": []} for a in res.algorithms}
        for seed in res.seeds:
            fronts = {a: load_front_csv(out / a / "ctp1" / f"seed{seed}" / "front.csv")
                      for a in res.algorithms}
            pool = np.vstack(list(fronts.values()))
            dominated = [any(np.all(q <= p) and np.any(q < p) for q in pool) for p in pool]
            union = np.unique(pool[~np.array(dominated)], axis=0)
            for a, front in fronts.items():
                dist = np.linalg.norm(front[:, None, :] - union[None, :, :], axis=2)
                shifts = np.max(front[:, None, :] - union[None, :, :], axis=2)
                recomputed[a]["hv"].append(hypervolume(front, nadir))
                recomputed[a]["gd"].append(dist.min(axis=1).mean())
                recomputed[a]["igd"].append(dist.min(axis=0).mean())
                recomputed[a]["eps"].append(shifts.min(axis=0).max())
        for a in res.algorithms:
            for metric, values in recomputed[a].items():
                assert res.table[a][metric][0] == pytest.approx(np.mean(values), rel=1e-12,
                                                                abs=1e-15), (a, metric)

    def test_identical_algorithms_not_significant(self, tmp_path):
        # the same variant under two labels: identical seeds, identical runs
        path, _ = small_config(
            tmp_path,
            algorithms=[
                {"name": "pearl-nds", "kappa": 8, "label": "a"},
                {"name": "pearl-nds", "kappa": 8, "label": "b"},
            ],
            seeds=[0, 1, 2],
        )
        out = run_experiment(path)
        res = compare([out], alpha=0.1)[0]
        assert res.friedman.statistic == 0.0
        assert res.friedman.p_value == 1.0
        assert not res.nemenyi.significant.any()

    def test_any_alpha_and_eleven_algorithms(self, tmp_path):
        # before, alpha 0.01 and an 11th algorithm were outside the table
        path, _ = small_config(tmp_path, problems="dtlz2", algorithms=[
            {"name": "nsga2", "lambda_": 8, "mutpb": i / 10, "label": f"m{i}"}
            for i in range(11)])
        res = compare([run_experiment(path)], alpha=0.01)[0]
        assert res.nemenyi.p_values.shape == (11, 11)
        assert res.nemenyi.alpha == 0.01
        assert np.array_equal(res.nemenyi.significant, res.nemenyi.p_values < 0.01)

    def test_single_seed_skips_statistics_with_warning(self, tmp_path):
        out = self.run_two_algorithms(tmp_path, seeds=(0,))
        res = compare([out])[0]
        assert res.friedman is None
        assert res.warnings

    def test_infeasible_front_is_skipped(self, tmp_path, monkeypatch):
        import pearlkit.experiment as exp

        c2dtlz2 = get_problem("c2dtlz2")
        never_feasible = dataclasses.replace(c2dtlz2, constraints=lambda x, f: np.array([1.0]))
        runs = []
        for label, problem in (("feasible", c2dtlz2), ("infeasible", never_feasible)):
            monkeypatch.setattr(exp, "get_problem", lambda name, p=problem: p)
            (tmp_path / label).mkdir()
            path, _ = small_config(tmp_path / label, problems="c2dtlz2", seeds=[0, 1],
                                   algorithms=[{"name": "nsga2", "lambda_": 8, "label": label}])
            runs.append(run_experiment(path))
        for seed in (0, 1):
            summary = json.loads((runs[0] / "feasible" / "c2dtlz2" / f"seed{seed}" /
                                  "summary.json").read_text())
            assert summary["feasible_front_size"] == summary["front_size"] > 0
        res = compare(runs)[0]
        assert res.algorithms == ["feasible", "infeasible"]
        # the feasible fronts alone make the combined front
        assert {m: res.table["feasible"][m][0] for m in ("gd", "igd", "eps", "c_metric")} \
            == {"gd": 0.0, "igd": 0.0, "eps": 0.0, "c_metric": 1.0}
        assert np.isnan([res.table["infeasible"][m][0] for m in ("gd", "igd", "eps")]).all()
        assert res.table["infeasible"]["i_c"][0] == 0

    def test_seed_without_feasible_front_scores_nan_c_metric(self, tmp_path):
        # one seed whose front counts no feasible member makes every binary
        # indicator of that algorithm NaN, c_metric as well as gd, igd and eps
        out = self.run_two_algorithms(tmp_path)
        summary_path = out / "nsga2" / "ctp1" / "seed1" / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["feasible_front_size"] = 0
        summary_path.write_text(json.dumps(summary))
        res = compare([out])[0]
        assert np.isnan([res.table["nsga2"][m][0]
                         for m in ("gd", "igd", "eps", "c_metric")]).all()
        assert np.isfinite([res.table["pearl-nds-crowding"][m][0]
                            for m in ("gd", "igd", "eps", "i_c", "c_metric")]).all()

    def test_summary_without_feasible_count_is_named(self, tmp_path):
        out = self.run_two_algorithms(tmp_path, seeds=(0,))
        summary_path = out / "nsga2" / "ctp1" / "seed0" / "summary.json"
        summary = json.loads(summary_path.read_text())
        del summary["feasible_front_size"]
        summary_path.write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=re.escape(str(summary_path))):
            compare([out])

    def test_problem_alias_compares_under_the_registered_name(self, tmp_path):
        path, _ = small_config(tmp_path, problems="CTP-1", seeds=[0, 1], algorithms=[
            {"name": "pearl-nds", "kappa": 8}, {"name": "nsga2", "lambda_": 8}])
        out = run_experiment(path)
        assert sorted(p.name for p in out.glob("*/*")) == ["ctp1", "ctp1"]
        assert json.loads((out / "config.json").read_text())["problems"] == "CTP-1"
        res = compare([out])[0]
        assert (res.problem, res.seeds) == ("ctp1", [0, 1])

    def test_label_in_two_runs_is_rejected(self, tmp_path):
        # before, the second run's nsga2 hypervolumes silently replaced the first's
        runs = []
        for lambda_ in (8, 16):
            (tmp_path / str(lambda_)).mkdir()
            path, _ = small_config(tmp_path / str(lambda_), seeds=[0], algorithms=[
                {"name": "pearl-nds", "kappa": 8, "label": f"pearl-{lambda_}"},
                {"name": "nsga2", "lambda_": lambda_}])
            runs.append(run_experiment(path))
        with pytest.raises(ValueError, match="cell nsga2-ctp1-seed0 is found twice"):
            compare(runs)

    def test_same_run_twice_is_rejected(self, tmp_path):
        out = self.run_two_algorithms(tmp_path, seeds=(0,))
        with pytest.raises(ValueError, match="cell pearl-nds-crowding-ctp1-seed0 is found twice"):
            compare([out, out])

    def test_mismatched_seeds_error_lists_missing_cells(self, tmp_path):
        out_a = self.run_two_algorithms(tmp_path, seeds=(0, 1))
        # drop one cell's metrics by rewriting the CSV without it
        reports = read_metric_csv(out_a / "metrics.csv")
        from pearlkit.indicators import write_metric_csv

        write_metric_csv([r for r in reports if not r.run_id.endswith("nsga2-ctp1-seed1")
                          or r.algorithm != "nsga2"],
                         out_a / "metrics.csv")
        reports2 = [r for r in reports if not (r.algorithm == "nsga2"
                                               and r.run_id.endswith("seed1"))]
        write_metric_csv(reports2, out_a / "metrics.csv")
        with pytest.raises(ValueError, match="missing cells"):
            compare([out_a])


class TestCli:
    def test_run_and_front(self, tmp_path, capsys):
        path, _ = small_config(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        cell = tmp_path / "out" / "pearl-nds-crowding" / "ctp1" / "seed0"
        assert cli_main(["front", str(cell)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[-len(load_front_csv(cell / 'front.csv')) - 1].startswith("f1")

    def test_rerun_without_force_fails(self, tmp_path):
        path, _ = small_config(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        assert cli_main(["run", str(path)]) == 1

    def test_unknown_problem_exit_code(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, problems="nope")
        assert cli_main(["run", str(path)]) == 2
        assert "problems" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1", "2.5", "True"])
    def test_bad_parallel_cells_exit_code(self, tmp_path, capsys, count):
        path, _ = small_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", str(path), "--parallel-cells", count])
        assert exit_.value.code == 2
        assert "--parallel-cells" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_bad_ref_front_count_exit_code(self, capsys, count):
        # -n 0 exited 1 from reference_front's ValueError
        with pytest.raises(SystemExit) as exit_:
            cli_main(["ref-front", "dtlz2", "-n", count])
        assert exit_.value.code == 2
        assert "--count" in capsys.readouterr().err

    def test_ref_front(self, capsys):
        assert cli_main(["ref-front", "dtlz2", "-n", "10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "f1,f2,f3"
        assert len(out) == 11
        point = np.array([float(v) for v in out[1].split(",")])
        assert np.sum(point**2) == pytest.approx(1.0, abs=1e-9)

    def test_compare_cli(self, tmp_path, capsys):
        path, _ = small_config(
            tmp_path,
            algorithms=[
                {"name": "pearl-nds", "kappa": 8, "label": "a"},
                {"name": "pearl-eps", "kappa": 8, "label": "b"},
            ],
            seeds=[0, 1],
        )
        assert cli_main(["run", str(path)]) == 0
        assert cli_main([
            "compare", str(tmp_path / "out"), "--alpha", "0.1",
            "-o", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "comparison_ctp1.csv").exists()


    def test_compare_alpha_outside_the_open_unit_interval_exits_1(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, algorithms=["nsga2", "nsga3"])
        assert cli_main(["run", str(path)]) == 0
        capsys.readouterr()
        for alpha in ("0", "1.5", "nan"):
            assert cli_main(["compare", str(tmp_path / "out"), "--alpha", alpha,
                             "-o", str(tmp_path / "cmp")]) == 1
            assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


NO_SCIPY_SCRIPT = """
import json, sys
import pearlkit, pearlkit.experiment

out = pearlkit.experiment.run_experiment({
    "version": 1, "problems": ["dtlz2"], "algorithms": [{"name": "nsga2", "lambda_": 8}],
    "budget": 64, "seeds": [0], "output_dir": sys.argv[1]})
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
gd = pearlkit.experiment.read_metric_csv(out / "metrics.csv")[0].gd
result = pearlkit.stats.friedman([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [2.0, 1.0, 3.0]])
print(json.dumps({"loaded": loaded, "gd": gd, "statistic": result.statistic,
                  "p_value": result.p_value}))
"""


def test_import_and_one_cell_load_no_scipy(tmp_path):
    # dtlz2 has a reference front, so the cell computes gd and igd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert np.isfinite(report["gd"])
    # mean ranks 4/3, 2, 8/3 over 3 blocks: 12*3/(3*4) * 8/9 = 8/3
    assert report["statistic"] == pytest.approx(8 / 3)
    assert report["p_value"] == pytest.approx(np.exp(-4 / 3))  # chi-square sf on 2 df
