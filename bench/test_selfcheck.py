"""Self-check of the benchmark: ``python -m pytest bench/ -q`` (about 3 min).

Not part of tier-1 (``testpaths`` stays ``tests``).  Every workload runs
one round (``--seconds 0``, same mixes as the full run).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
SEED = 2017
#: per-layer metrics that are counts made by the program: one seed, one value
EXACT = [
    entry["name"] for entry in CONTRACT["per_layer"]
    if entry["name"].startswith(("core.enumeration.", "core.auto.", "engine.tuples_"))
    and entry["unit"] in ("count", "tuples")
]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced one-round runs of every workload on one set of inputs."""
    results = {}
    for workload in WORKLOADS:
        directory = tmp_path_factory.mktemp(workload)
        inputs.make_inputs(workload, SEED, directory)
        results[workload] = [
            run.spawn_worker(workload, directory, 0, 1) for _ in range(2)
        ]
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_equal_the_contract(traced_twice, workload):
    result = traced_twice[workload][0]
    assert set(result["per_layer"]) == {e["name"] for e in CONTRACT["per_layer"]}
    assert set(result["end_to_end"]) | {"setup_s"} == {
        e["name"] for e in CONTRACT["end_to_end"]
    }
    assert "setup_s" in result
    assert result["failed"] == 0, result["errors"]
    assert result["per_layer"]["bench.unattributed_share"] <= run.MAX_UNATTRIBUTED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_one_seed(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["end_to_end"]["plan_cost_geomean"] == second["end_to_end"]["plan_cost_geomean"]
    for name in EXACT:
        assert first["per_layer"][name] == second["per_layer"][name], name


def test_layer_shares_match_the_workload_table(traced_twice):
    def share(workload, name):
        return traced_twice[workload][0]["per_layer"][name]

    assert share("serve_warm_columnar", "engine.executor.share") > 0.9
    assert share("serve_stream_pipelined", "engine.executor.share") > 0.9
    assert share("optimize_cold_mixed", "core.optimizer.share") > 0.9
    assert share("optimize_parallel_random", "core.optimizer.share") > 0.9
    assert share("serve_warm_columnar", "core.plan_cache.hit_rate") == 1.0


def test_seed_draws_the_inputs(tmp_path):
    specs = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        inputs.make_inputs("optimize_cold_mixed", seed, tmp_path / label)
        spec = json.loads((tmp_path / label / "ops.json").read_text())
        specs[label] = [(op["text"], op["statistics"]) for op in spec["ops"]]
    assert specs["a"] == specs["b"]
    assert specs["a"] != specs["c"]
    # WatDiv constants, not only statistics
    assert [text for text, _ in specs["a"]] != [text for text, _ in specs["c"]]


def test_wrong_oracle_row_is_a_failed_operation(tmp_path):
    inputs.make_inputs("oneshot_mixed", SEED, tmp_path)
    path = tmp_path / "ops.json"
    spec = json.loads(path.read_text())
    # the last op of the first round (the first op is the set-up op,
    # whose failure would end the run instead)
    victim = spec["ops"][spec["rounds"][0][-1]]["oracle"]
    spec["oracle"][victim]["rows"].append(["<http://bench.example/not-a-row>"])
    path.write_text(json.dumps(spec))
    result = run.spawn_worker("oneshot_mixed", tmp_path, 0, 0)
    assert result["failed"] == 1 and result["attempted"] == 10


def test_command_prints_the_contract_line():
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "optimize_cold_mixed",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert process.returncode == 0, process.stderr
    last = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    declared = {e["name"]: e["unit"] for e in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_compare_verdicts():
    steady, noisy = [100.0, 101.0, 99.0, 100.5, 99.5], [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.judge(steady, steady, "lower", 0.10) == "unchanged"
    assert compare.judge(steady, [v * 1.2 for v in steady], "lower", 0.10) == "regression"
    assert compare.judge(steady, [v * 1.2 for v in steady], "higher", 0.10) == "improved"
    assert compare.judge(noisy, noisy, "lower", 0.10) == "unresolved"
    assert compare.judge(noisy, [v / 3 for v in noisy], "lower", 0.10) == "improved"
