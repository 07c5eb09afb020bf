"""Layer spans recorded from outside the package.

``Tracer.install`` replaces module and class attributes of ``pearlkit`` with
timing wrappers, so the package itself is left unchanged.  A wrapper reads
the clock and appends to in-memory lists; it draws from no RNG and passes
arguments and results through untouched.  Spans are written out once, when
the cell ends.

A span is ``[layer, start_ns, end_ns, parent, note]``.  ``parent`` is the
index of the enclosing span (-1 at the root).  ``note`` is a per-layer
integer: 1 for a failed call, or the layer's own count (archived flag,
front size).  A call that re-enters the layer it is already inside (an
engine delegating ``score`` to its parent class or inner engine, ``igd``
calling ``gd``) records no second span, so ``calls`` counts outermost calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

FAILED = 1


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._archives: dict = {}

    def _wrap(self, fn, layer: str, note=None):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer_id:
                return fn(*args, **kwargs)
            span = [layer_id, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            done = False
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                span[2] = clock()
                stack.pop()
                if not done:
                    span[4] = FAILED
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def wrap_function(self, module, attr: str, layer: str, note=None):
        """Wrap a module function everywhere ``pearlkit`` holds a reference."""
        original = getattr(module, attr)
        traced = self._wrap(original, layer, note)
        for name, mod in list(sys.modules.items()):
            if name == "pearlkit" or name.startswith("pearlkit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, layer: str, note=None):
        setattr(cls, attr, self._wrap(cls.__dict__[attr], layer, note))

    def _archive_note(self, args, result):
        archive = args[0]
        self._archives[id(archive)] = archive
        return 0

    def install(self):
        from pearlkit import density, experiment, indicators, nsga, pareto, problems, rewards, trainer

        self.wrap_function(problems, "evaluate", "problems.evaluate")
        archived = lambda args, outcome: int(outcome.archived)  # noqa: E731
        for cls in vars(rewards).values():
            if isinstance(cls, type) and cls.__module__ == rewards.__name__ \
                    and "score" in cls.__dict__:
                self.wrap_method(cls, "score", "rewards.score", archived)
        self.wrap_method(pareto.ParetoArchive, "insert", "pareto.archive.insert",
                         self._archive_note)
        self.wrap_method(pareto.ParetoArchive, "add", "pareto.archive.add",
                         self._archive_note)
        self.wrap_function(pareto, "non_dominated_sort", "pareto.non_dominated_sort")
        self.wrap_function(pareto, "best_front", "pareto.best_front")
        self.wrap_function(density, "crowding_rank", "density.crowding_rank")
        self.wrap_function(density, "associate", "density.associate")
        self.wrap_function(trainer, "rollout", "trainer.rollout")
        self.wrap_function(trainer, "update", "trainer.update")
        self.wrap_function(nsga, "nsga2_step", "nsga.generation")
        self.wrap_function(nsga, "nsga3_step", "nsga.generation")
        self.wrap_function(nsga, "_variation", "nsga.variation")
        self.wrap_function(nsga, "_survivors_nsga2", "nsga.survivors")
        self.wrap_function(nsga, "_survivors_nsga3", "nsga.survivors")
        self.wrap_function(indicators, "hypervolume", "indicators.hypervolume",
                           lambda args, result: len(args[0]))
        for attr in ("gd", "igd", "additive_epsilon"):
            self.wrap_function(indicators, attr, "indicators.distance")
        self.wrap_function(experiment, "write_evaluations_csv", "experiment.write")
        self.wrap_function(experiment, "write_front_csv", "experiment.write")
        self.wrap_function(experiment, "_cell_metrics", "experiment.cell_metrics")
        self.wrap_function(experiment, "_run_cell", "experiment.cell")
        return self

    def write(self, path):
        sizes = [len(a) for a in self._archives.values()]
        with open(path, "w") as handle:
            json.dump({"layers": self.layers, "spans": self.spans,
                       "archive_sizes": sizes}, handle, separators=(",", ":"))
