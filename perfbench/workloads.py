"""The benchmark's workloads: fixed experiment cells of the acceptance suite.

Every workload is one ``pearlkit run`` cell with ``n_steps`` 32 and
``ncores`` 8.  The 8 workers are logical and are stepped in a loop inside
one process, so a cell starts no threads and no processes.  The workload
seed becomes the cell's seed; nothing else depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

N_STEPS = 32
NCORES = 8


@dataclass(frozen=True)
class Workload:
    problem: str
    algorithm: dict
    budget: int

    @property
    def trains_policy(self) -> bool:
        return self.algorithm["name"].startswith("pearl")

    def config(self, seed: int, output_dir: str) -> dict:
        """The experiment config a user would pass to ``pearlkit run``."""
        return {
            "version": 1,
            "problems": [self.problem],
            "algorithms": [dict(self.algorithm)],
            "budget": self.budget,
            "n_steps": N_STEPS,
            "ncores": NCORES,
            "seeds": [seed],
            "output_dir": output_dir,
        }

    def expected_evaluations(self) -> int:
        """Rows ``evaluations.csv`` must hold, worked out from the config.

        The trainer runs whole batches of ``n_steps * ncores``; NSGA pays for
        its initial population and then whole generations of ``lambda_``.
        """
        if self.trains_policy:
            batch = N_STEPS * NCORES
            return self.budget // batch * batch
        lam = self.algorithm["lambda_"]
        pop = self.algorithm.get("pop_size", lam)
        return pop + (self.budget - pop) // lam * lam


WORKLOADS = {
    # Acceptance criterion 01: the archive's ranked insert (crowding) does
    # most of the work.
    "nds-dtlz2": Workload(
        problem="dtlz2",
        algorithm={"name": "pearl-nds", "ranker": "crowding", "kappa": 64},
        budget=10_000),
    # Acceptance criterion 02: an unbounded add-only archive, no ranker, and
    # the largest policy-update share.
    "envelope-dtlz7": Workload(
        problem="dtlz7",
        algorithm={"name": "pearl-e", "alpha": 1.0, "lambda": 0.0},
        budget=20_000),
    # Constrained NSGA-III: no archive and no policy network, so archive and
    # trainer changes must leave it unchanged.
    "nsga3-c2dtlz2": Workload(
        problem="c2dtlz2",
        algorithm={"name": "nsga3", "lambda_": 32},
        budget=10_000),
}
