"""The benchmark's tracer still finds every package name it hooks.

``perfbench/tracing.py`` wraps module functions and class methods of
``pearlkit`` by name; a refactor that renames or removes one of them, or
that calls a hooked function through a reference bound at import, would
otherwise only show up under ``perfbench/run.py --trace 1``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
from tracing import Tracer
from pearlkit.nsga import GAConfig, run_nsga2, run_nsga3
from pearlkit.problems import get_problem

tracer = Tracer().install()
cfg = GAConfig(lambda_=8, budget=8 + 3 * 8)
run_nsga2(get_problem("ctp1"), cfg)
run_nsga3(get_problem("c2dtlz2"), cfg)
generation = tracer.layers.index("nsga.generation")
spans = sum(1 for span in tracer.spans if span[0] == generation)
assert spans == 6, spans
"""

TRAIN_SCRIPT = """
from tracing import Tracer
from pearlkit.problems import get_problem
from pearlkit.rewards import PearlNds
from pearlkit.trainer import TrainerConfig, train

tracer = Tracer().install()
cfg = TrainerConfig(n_steps=8, ncores=2, budget=64, hidden=8)
result = train(get_problem("dtlz2"), lambda: PearlNds(kappa=8), cfg)
def spans(layer):
    return [span for span in tracer.spans if span[0] == tracer.layers.index(layer)]
scores = spans("rewards.score")
assert len(scores) == len(result.log) == 64, len(scores)
assert spans("pareto.archive.insert")
assert {span[4] for span in scores} <= {0, 1}, {span[4] for span in scores}
"""


def _run_traced(script):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ untouched
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_tracer_installs_and_records_generations():
    _run_traced(SCRIPT)


def test_tracer_records_every_trainer_score():
    _run_traced(TRAIN_SCRIPT)
