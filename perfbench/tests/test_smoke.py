"""Small end-to-end runs of each workload through the entry point."""
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def declared(trace: int) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["chain", "rearrange", "analyze"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared(trace)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert result["metrics"]["tracing.coverage"]["value"] >= 0.9


def test_smoke_repeats_give_identical_output_hashes():
    first = run_bench("chain", 0)
    second = run_bench("chain", 0)
    hashes = [[line for line in p.stdout.splitlines()
               if line.startswith("sha256 ")] for p in (first, second)]
    assert hashes[0] and hashes[0] == hashes[1]


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text(
            open(os.path.join(BENCH, name), encoding="utf-8").read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
