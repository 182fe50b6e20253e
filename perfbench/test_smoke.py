"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs one batch of every workload at a short horizon, untraced and traced,
and checks that every metric BENCHMARK.json names is printed with its unit,
that the gates and trace cross-checks hold, and that the benchmark refuses
to run without the fedsplit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_one_toy_batch(workload, trace):
    out = run.bench(workload, seed=7, seconds=0, trace=trace, rounds=12)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0
    assert all(out["detail"]["checks"].values())
    assert len(out["detail"]["op_sha256"]) == result["attempted"]
    json.dumps(out)


def test_traced_counts_match_the_outputs():
    out = run.bench("desk_mspdq_sweep", seed=3, seconds=0, trace=True, rounds=6)
    checks = out["detail"]["checks"]
    assert checks == {
        "patches_restored": True,
        "stochastic_gradient_eq_E_local_sgd": True,
        "msp_round_eq_sum_kt": True,
        "mspdq_round_eq_sum_kt": True,
    }
    layer = out["result"]["metrics"]
    assert layer["consensus.mspdq_round.calls"]["value"] > 0
    assert layer["consensus.msp_round.calls"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
