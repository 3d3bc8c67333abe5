"""Self-test of the benchmark: every workload, untraced and traced, at the
tiny shape of ``tests/conftest.py``, checked against ``BENCHMARK.json``.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from harness import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_declares_the_workloads_and_valid_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_declared_metric(name, trace, tmp_path):
    record = run_workload(WORKLOADS[name].tiny(), seed=3, seconds=0.5, trace=trace,
                          out_root=tmp_path)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace_matches_model"]["value"] == 1.0
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in declared("end_to_end"))
    assert json.loads(json.dumps(result)) == result


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails without
    printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
