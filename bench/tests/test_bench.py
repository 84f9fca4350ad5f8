"""Tests of the benchmark itself, on a tiny dataset.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 3


def run_bench(workload, trace, scale="tiny", root=ROOT, env=None):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(TINY_SEED), "--seconds", "0.5", "--trace", str(trace),
           "--scale", scale]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170, env=env)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(workload):
    env = dict(os.environ, HIERFED_SEED="999")
    lines, result = result_of(run_bench(workload, 0, env=env))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    env_line = next(line for line in lines if line.startswith("env "))
    assert json.loads(env_line[4:])["HIERFED_SEED"] == "removed"


def test_traced_runs_repeat_their_counts_exactly():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    runs = []
    for _ in range(2):
        _, result = result_of(run_bench("op-personal-train", 1))
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if v["unit"] not in ("s", "ratio")})
    assert runs[0] == runs[1]
    for key in ("fed.loss_grad.calls", "fed.loss_grad.students",
                "nn.rnn.padded_steps", "nn.rnn.valid_steps"):
        assert runs[0][key] > 0


def copy_of_the_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_wrong_reference_auc_is_counted_as_failed(tmp_path):
    root = copy_of_the_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    golden_path = root / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    seed = TINY_SEED % golden["seeds"]
    golden["workloads"]["op-rescore"][str(seed)]["test_auc_mean"] = 0.123
    golden_path.write_text(json.dumps(golden))
    # references are of full-scale runs, so only a full-scale run checks them
    lines, result = result_of(run_bench("op-rescore", 0, scale="full", root=root))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("failed_frac = 1 ratio") for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    proc = run_bench("kt-central-train", 0, root=copy_of_the_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
