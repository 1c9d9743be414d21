"""Smoke test: every workload at tiny sizes emits every named metric and
fails no output check.

    python3 -m pytest benchmarks/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    assert result["failed"] == 0 and result["correct"]  # error_rate == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    first, second = run(workload, trace=1, seed=3), run(workload, trace=1, seed=4)
    assert first["failed"] == second["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    if workload.startswith("explore"):
        assert calls["conjugations.random_unitary.calls"] == 0
    else:
        assert calls["conjugations.random_unitary.calls"] > 0


def test_refuses_without_the_package(tmp_path):
    """Outside a checkout with src/, the benchmark exits nonzero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    copy = tmp_path / BENCH.name
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (copy / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
