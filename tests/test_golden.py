"""Golden digests of small seed-0 experiment cells.

Each cell runs through ``run_experiment`` with a budget of 512 evaluations,
and the sha256 of its ``evaluations.csv`` and ``front.csv`` is pinned.  A
refactor that is meant to leave results unchanged must leave these digests
unchanged; a change that moves them on purpose updates them and says why.
"""

import hashlib
import json

import pytest

from pearlkit.experiment import run_experiment

CELLS = {
    "pearl-nds-crowding-dtlz2": (
        {"name": "pearl-nds", "ranker": "crowding"}, "dtlz2",
        "ee7e1862386e88383d8016b6bfaebc4c7037213a442d9208366cee4a31fbda3d",
        "4f69bac5ad494efd958b6808ce1c021427a5166e53f4ba176b2cddaa1913d0d4"),
    "pearl-eps-dtlz2": (
        {"name": "pearl-eps"}, "dtlz2",
        "5b3d2e026ad1c392a8612a56c91056091e2f7a6b1b6b6c2d8840535fcc8befa4",
        "e6c0c8c28ffbf0da4538b04afabdc4fff38b403edad331bf26f1855acfb04238"),
    "pearl-e-dtlz7": (
        {"name": "pearl-e"}, "dtlz7",
        "6b5019aefde6faea086c805f9e2e1a0bba27f7202cb10b3b14d66847fb8d526f",
        "9fe8b28f16cd1f091356d2f46ac531b70f0f54a06ddf14b73109a14376b1b7ba"),
    "c-pearl-crowding2-c2dtlz2": (
        {"name": "c-pearl", "mode": "crowding2"}, "c2dtlz2",
        "53eef2f0135b93827076d1238a5a50612f37959f5f35c9a5d6e5441078747354",
        "88942adff4e8f68a2204501a1d516f0198efd1965c58c09ddbef4f9b5a1d1953"),
    "nsga3-c2dtlz2": (
        {"name": "nsga3"}, "c2dtlz2",
        "05beeb077007cce1de1cf806da82b3fa04596e6bfd22a3d950b350436df38fc2",
        "ff395c16d8f26dda2a3c573717b27f2cc9a459b910c797cf45c5fbbaf32f98c8"),
    "nsga2-dtlz2": (
        {"name": "nsga2"}, "dtlz2",
        "f80b8c9c1c0a972d4f4bfadb690f2944259686be641b2894ba0e17a7344fee41",
        "65afbe93c9e480842c80c9500f57a9cf54e8b1571a86b800d64cd419d50b85f3"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_seed0_cell_digests(tmp_path, name):
    algorithm, problem, evaluations_sha, front_sha = CELLS[name]
    config = {
        "version": 1, "problems": problem, "algorithms": [algorithm],
        "budget": 512, "n_steps": 32, "ncores": 4, "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = run_experiment(path)
    (cell,) = out.glob("*/*/seed0")
    assert _sha256(cell / "evaluations.csv") == evaluations_sha
    assert _sha256(cell / "front.csv") == front_sha
