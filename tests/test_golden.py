"""Golden digests of small seed-0 experiment cells.

Each cell runs through ``run_experiment`` with a budget of 512 evaluations,
and the sha256 of its ``evaluations.csv`` and ``front.csv`` is pinned, as
are the counts and metrics of its ``summary.json``.  A
refactor that is meant to leave results unchanged must leave these digests
unchanged; a change that moves them on purpose updates them and says why.
"""

import hashlib
import json
import math

import pytest

from pearlkit.experiment import run_experiment

CELLS = {
    "pearl-nds-crowding-dtlz2": (
        {"name": "pearl-nds", "ranker": "crowding"}, "dtlz2",
        "ee7e1862386e88383d8016b6bfaebc4c7037213a442d9208366cee4a31fbda3d",
        "4f69bac5ad494efd958b6808ce1c021427a5166e53f4ba176b2cddaa1913d0d4"),
    "pearl-eps-dtlz2": (
        {"name": "pearl-eps"}, "dtlz2",
        "0f48b1e52982b725feb9c4dddc725337837b39de54d9d208364fd40ff4c27ad5",
        "fcc39e57f3314d24caaf65e99650aae8ba65ccda0c714c2ca020fc1fc8040415"),
    "pearl-nds-niching-dtlz2": (
        {"name": "pearl-nds", "ranker": "niching"}, "dtlz2",
        "9714938659abfc8514e3bcfe38a7eb06e975dae1310c7b8615ecbe34771ac05a",
        "6f49adf1aba5ccc518577c910cd33a981566087c77572b1203d033296d7aef53"),
    "pearl-e-dtlz7": (
        {"name": "pearl-e"}, "dtlz7",
        "6b5019aefde6faea086c805f9e2e1a0bba27f7202cb10b3b14d66847fb8d526f",
        "9fe8b28f16cd1f091356d2f46ac531b70f0f54a06ddf14b73109a14376b1b7ba"),
    # the only setting where the kl uniformity term is non-zero
    "pearl-e-kl-normalized-dtlz2": (
        {"name": "pearl-e", "uniformity": "kl", "normalized_obj": True}, "dtlz2",
        "b0a917a47f4dd7d78d1c84f30854f77e7fd93ad46acc162c54c6ee9694732631",
        "42af4c9892d6753c4ba81095ce06a4a36cced736826765b38f186c990efcbfe6"),
    "c-pearl-crowding2-c2dtlz2": (
        {"name": "c-pearl", "mode": "crowding2"}, "c2dtlz2",
        "53eef2f0135b93827076d1238a5a50612f37959f5f35c9a5d6e5441078747354",
        "88942adff4e8f68a2204501a1d516f0198efd1965c58c09ddbef4f9b5a1d1953"),
    "c-pearl-distance-cl-c2dtlz2": (
        {"name": "c-pearl", "mode": "distance-cl"}, "c2dtlz2",
        "17589d8168e9b5d15f64c2ad9abf07d6e622998745f0381057d190a7a9564e28",
        "9a46faeaabd4647d8a7206e6246e197a43cef7b51677450e8f3278d9bd7f7046"),
    "nsga3-c2dtlz2": (
        {"name": "nsga3"}, "c2dtlz2",
        "1d3d7a84d28deb49ddaffed6c55ab3fd62e3fcc4e588b106df53c7e2cdbc069d",
        "f197f9005b35711c9909719c2bcd6ca15ad5e237f7cde42d9758b56d14c915d3"),
    "nsga2-dtlz2": (
        {"name": "nsga2"}, "dtlz2",
        "f80b8c9c1c0a972d4f4bfadb690f2944259686be641b2894ba0e17a7344fee41",
        "65afbe93c9e480842c80c9500f57a9cf54e8b1571a86b800d64cd419d50b85f3"),
    "nsga2-ctp1": (
        {"name": "nsga2"}, "ctp1",
        "01806787fcf9c67a9f73877f881d23d1793cc636cd506523cce8085e1c8fb5df",
        "5cea22bd76f47687f0d4b6c522a51a182655e0f69b0b5c0cdc370b0a0bcd1c69"),
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
    "nsga2-ctp1": (82, 82, 512, {
        "hv": 7.1146295698095345, "gd": 0.004177845925277397,
        "igd": 0.029866431519619926, "eps": 0.04453081529278102}),
    "nsga2-dtlz2": (60, 60, 512, {
        "hv": 25.731822669652196, "gd": 0.330500942444935,
        "igd": 0.27281019513718774, "eps": 0.37255854165648417}),
    "nsga3-c2dtlz2": (91, 91, 512, {
        "hv": 26.239227883761494, "gd": 0.06258304401688035,
        "igd": 0.11027728591265276, "eps": 0.16034993486584134}),
    "pearl-e-dtlz7": (18, 18, 512, {
        "hv": 0.0, "gd": 7.618766594268012,
        "igd": 6.9741404327959575, "eps": 8.95478915556402}),
    "pearl-e-kl-normalized-dtlz2": (63, 63, 512, {
        "hv": 25.237457361833055, "gd": 0.45266770712642523,
        "igd": 0.33125941143191245, "eps": 0.42452183972088486}),
    "pearl-eps-dtlz2": (80, 80, 512, {
        "hv": 25.66280416124969, "gd": 0.26796764817821694,
        "igd": 0.24029828996966313, "eps": 0.35415723149498346}),
    "pearl-nds-crowding-dtlz2": (79, 79, 512, {
        "hv": 25.65144280037881, "gd": 0.27378711615593976,
        "igd": 0.24098941816500188, "eps": 0.3534671098647031}),
    "pearl-nds-niching-dtlz2": (81, 81, 512, {
        "hv": 25.658688184138704, "gd": 0.27322019110705736,
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
