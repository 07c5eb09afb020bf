"""Golden digests of small seed-0 experiment cells and of every problem.

Each cell runs through ``run_experiment`` with a budget of 512 evaluations,
and the sha256 of its ``evaluations.csv`` and ``front.csv`` is pinned, as
are the counts and metrics of its ``summary.json``.  Each registered
problem's ``evaluate`` is pinned by the sha256 of the bytes of ``f``, ``g``
and ``cv`` over fixed-seed points.  A refactor that is meant to leave
results unchanged must leave these digests unchanged; a change that moves
them on purpose updates them and says why.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from pearlkit.experiment import run_experiment
from pearlkit.problems import PROBLEMS, evaluate, reference_front
from pearlkit.rewards import constraint_violation

CELLS = {
    "pearl-nds-crowding-dtlz2": (
        {"name": "pearl-nds", "ranker": "crowding"}, "dtlz2",
        "ee7e1862386e88383d8016b6bfaebc4c7037213a442d9208366cee4a31fbda3d",
        "62b675db87f13e224b5e2421a308b7b5128d985938bf6ba620fb5b2fc1c22626"),
    "pearl-eps-dtlz2": (
        {"name": "pearl-eps"}, "dtlz2",
        "0f48b1e52982b725feb9c4dddc725337837b39de54d9d208364fd40ff4c27ad5",
        "150b7d7e9ebf25a1f5fcd7f77bfa2307e474cd675799506c896c4231c22580de"),
    "pearl-nds-niching-dtlz2": (
        {"name": "pearl-nds", "ranker": "niching"}, "dtlz2",
        "9714938659abfc8514e3bcfe38a7eb06e975dae1310c7b8615ecbe34771ac05a",
        "dd7b0540d23738970905ce1622d2e1da8ee3c5c31f968fc341067840d16322b1"),
    "pearl-e-dtlz7": (
        {"name": "pearl-e"}, "dtlz7",
        "66414a41cbcd536c39afa4df0f434c86c27e82ae9f2a699a1d8df3b8553c232d",
        "3931ffb990057b28c7d29a57118245f23f743e9846fec18ab3854a4e44b736f0"),
    # the only setting where the kl uniformity term is non-zero
    "pearl-e-kl-normalized-dtlz2": (
        {"name": "pearl-e", "uniformity": "kl", "normalized_obj": True}, "dtlz2",
        "aaf762d749dcaf125855026a9f12d2f0877e34e03ebca8ff12cfe572e2bd75cf",
        "c507824f950698c5c9d33a31aa7d5dfcd9724d60ec64bf2b6d2daf239a3b3730"),
    "c-pearl-crowding2-c2dtlz2": (
        {"name": "c-pearl", "mode": "crowding2"}, "c2dtlz2",
        "53eef2f0135b93827076d1238a5a50612f37959f5f35c9a5d6e5441078747354",
        "4f1bfbccf50180f0389c639335fe53da55a859076b7b790e8c800085fe6b0a4a"),
    "c-pearl-distance-cl-c2dtlz2": (
        {"name": "c-pearl", "mode": "distance-cl"}, "c2dtlz2",
        "17589d8168e9b5d15f64c2ad9abf07d6e622998745f0381057d190a7a9564e28",
        "cd4bf9b6f21f1399777fbfca9333a906305dba02df9f150eeb23646b3f1e4b0b"),
    "nsga3-c2dtlz2": (
        {"name": "nsga3"}, "c2dtlz2",
        "f567366079e57b5a0e86c92f78d0cd63e0c5bbf7b4b31fcff3a7a7029eddc02f",
        "69491ba2828e86243e98ec9342e82a3d8e17ce779b18f2d7d1159dd1199864af"),
    "nsga2-dtlz2": (
        {"name": "nsga2"}, "dtlz2",
        "690283655fa8dc5ad8b50c9f8b2a16a3adf0ed2ea99bab83e61373ef01db8ff0",
        "fa48d07ed49a23d554e2962419c9677d6e6b6524516b79c4afa6cec6ccde411c"),
    "nsga2-ctp1": (
        {"name": "nsga2"}, "ctp1",
        "fed63019b202b0150c75ec5ae55c60dc32c4b847edef70077cd0b5d4e5b8c42e",
        "c019005839487c38ff066dea1aa063d3381a373f2a0a419b35b1406ecccccbff"),
}

# summary.json of each cell: front_size, feasible_front_size, n_evaluations
# and the metrics, all recomputed from the front's log rows
SUMMARIES = {
    "c-pearl-crowding2-c2dtlz2": (81, 81, 512, {
        "hv": 25.43524138682472, "gd": 0.09907482242566225,
        "igd": 0.13046201425742496, "eps": 0.3792375237989936}),
    "c-pearl-distance-cl-c2dtlz2": (81, 81, 512, {
        "hv": 25.390556578103393, "gd": 0.09729457407368064,
        "igd": 0.13015487133722806, "eps": 0.3684386412201383}),
    "nsga2-ctp1": (73, 73, 512, {
        "hv": 7.189166373198699, "gd": 0.0018949866892622777,
        "igd": 0.017564051576289496, "eps": 0.03160661977359125}),
    "nsga2-dtlz2": (58, 58, 512, {
        "hv": 25.731418199560828, "gd": 0.3240371154964007,
        "igd": 0.2828526025640952, "eps": 0.32345346703377886}),
    "nsga3-c2dtlz2": (51, 51, 512, {
        "hv": 26.15753131129749, "gd": 0.11799891939882338,
        "igd": 0.14368357432430223, "eps": 0.20426743300596173}),
    "pearl-e-dtlz7": (18, 18, 512, {
        "hv": 0.0, "gd": 7.61876659426801,
        "igd": 6.9741404327959575, "eps": 8.95478915556402}),
    "pearl-e-kl-normalized-dtlz2": (63, 63, 512, {
        "hv": 25.237457361833044, "gd": 0.4526677071264253,
        "igd": 0.33125941143191245, "eps": 0.42452183972088486}),
    "pearl-eps-dtlz2": (80, 80, 512, {
        "hv": 25.66280416124969, "gd": 0.26796764817821694,
        "igd": 0.24029828996966313, "eps": 0.35415723149498346}),
    "pearl-nds-crowding-dtlz2": (79, 79, 512, {
        "hv": 25.65144280037881, "gd": 0.2737871161559398,
        "igd": 0.24098941816500188, "eps": 0.3534671098647031}),
    "pearl-nds-niching-dtlz2": (81, 81, 512, {
        "hv": 25.658688184138704, "gd": 0.2732201911070573,
        "igd": 0.24087488760852704, "eps": 0.35626335515716945}),
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
    front_size, feasible_front_size, n_evaluations, metrics = SUMMARIES[name]
    summary = json.loads((cell / "summary.json").read_text())
    assert summary["front_size"] == front_size
    assert summary["feasible_front_size"] == feasible_front_size
    assert summary["n_evaluations"] == n_evaluations
    assert sorted(summary["metrics"]) == sorted(metrics)
    for key, value in metrics.items():
        got = summary["metrics"][key]
        assert got == value or (math.isnan(got) and math.isnan(value)), (key, got, value)


# sha256 over f, g and cv (float64 bytes) of each problem at
# ``_problem_points``; computed before the per-point evaluation path was
# rewritten for speed, which had to leave every bit in place
PROBLEM_DIGESTS = {
    "c2dtlz2": "a9182fc43c44d9c4614959de47545b37923887a9fc59a0a81d7f30ecd6a905b0",
    "c3dtlz4": "541cc2f9e338c21aa146bc872dc594f7a89b130b8577dfa42b51300409070953",
    "ctp1": "de422e567c84e77a063f2f261834440893aaf9c051a145e46c0cd317389eb1d1",
    "ctp2": "4b6cf7c648ae9da60c7b9a4d9aae182715cec3cc09797808aba7efe2c0ce7335",
    "ctp3": "6e1077f123add4f2e730baea0a57035a83dc691f8540566d0c0aff705b9e2972",
    "ctp4": "0de4b31e6f858b461cf4007e0085bff9a68d0b3de3d2a1054c9dbd2e4af717e9",
    "dtlz2": "142f913c46b2f369ba5aad055166c9151598a4cb38c0a9ca181d39c25507f17d",
    "dtlz4": "04ceeb8e8249cdb2649e3dd1a0dd4a40fd667373d0d887261ba32be4060e389d",
    "dtlz5": "bdd8b450210812bd34bf9b0bcf4129ede3ed583dc50a1f6fdc79419a797078d6",
    "dtlz6": "bf01aece2bdbd5cea5c6a630b9cc72df651d295bbe2ffecf1f1daba7bfa06765",
    "dtlz7": "84b84aee2baa37765f336bad5fa1d4a9ed6c617c99a45f89bdc7b2fbb95ea99e",
}


def _problem_points(problem, seed=0):
    """Fixed-seed points of the box: its three diagonal points (lower corner,
    centre, upper corner), points whose coordinates are each a face or the
    centre, uniform points with some coordinates moved onto a face or the
    centre, and uniform points."""
    rng = np.random.default_rng(seed)
    lo, hi = problem.lower, problem.upper
    n = problem.n_x
    levels = np.array([0.0, 0.5, 1.0])
    unit = [np.tile(levels[:, None], (1, n)),
            rng.choice(levels, (128, n)),
            np.where(rng.random((128, n)) < 0.5, rng.random((128, n)),
                     rng.choice(levels, (128, n))),
            rng.random((256, n))]
    return lo + (hi - lo) * np.concatenate(unit)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_problem_evaluation_digest(name):
    problem = PROBLEMS[name]
    digest = hashlib.sha256()
    for x in _problem_points(problem):
        f, g = evaluate(problem, x)
        digest.update(f.tobytes() + g.tobytes() + np.float64(constraint_violation(g)).tobytes())
    assert digest.hexdigest() == PROBLEM_DIGESTS[name]


# sha256 of the bytes of ``reference_front(c2dtlz2, n)``, which every c2dtlz2
# cell's gd and igd read; computed before ``c2dtlz2_constraint``, which
# picks the front's feasible candidates, moved to float arithmetic
C2DTLZ2_FRONT_DIGESTS = {
    100: "e09fda81e08773ae5711d0d68bfa4e371bf36bddde0b6da3eb26dc8fa34fc7a8",
    1000: "42f1455594957445fb2487d6eed0e463b3a84e97318a68f78a5ee8f5ade56ae4",
}


@pytest.mark.parametrize("n", sorted(C2DTLZ2_FRONT_DIGESTS))
def test_c2dtlz2_reference_front_digest(n):
    front = reference_front(PROBLEMS["c2dtlz2"], n)
    assert front.shape == (n, 3) and front.dtype == np.float64
    assert hashlib.sha256(front.tobytes()).hexdigest() == C2DTLZ2_FRONT_DIGESTS[n]
