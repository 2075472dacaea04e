"""Smoke test of the benchmark: each workload at toy size, plain and traced.

Every metric ``BENCHMARK.json`` names must be emitted with its unit, and
every check must pass. Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(workload: str, trace: int) -> dict:
    done = _run(ROOT, workload, trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(workload, 1)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""
