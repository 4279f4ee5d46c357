"""Smoke tests of the benchmark itself, on small campaigns.

Run with `python3 -m pytest gkpbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
BENCHMARK = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_result_line_matches_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == 0 else BENCHMARK["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    for seed in (7, 8):
        injection = _run("injection", 1, seed)["metrics"]
        assert injection["linalg.svd.calls_per_op"]["value"] == 2.0
        assert injection["gkp.extract.calls_per_op"]["value"] == 1.0
        conditioning = _run("conditioning", 1, seed)["metrics"]
        assert conditioning["montecarlo.kappa_draws.calls_per_op"]["value"] == 2.0
        assert conditioning["montecarlo.kappa_draws.useful_ratio"]["value"] == 0.5
        assert conditioning["cli.defect_probe.failed"]["value"] == 3


def test_scaled_times_follow_the_reference_kernel():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "conditioning", "--seed", "7", "--seconds", "1",
         "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    kernel = details["reference_kernel_ms"]
    assert len(kernel["timings"]) >= 2 and all(t > 0 for t in kernel["timings"])
    # scaled = raw x 100 ms / kernel time, kernel timings bracketing each stretch
    lo, hi = min(kernel["timings"]), max(kernel["timings"])
    raw_p50, p50 = details["raw"]["op_ms_p50"], result["metrics"]["op_ms_p50"]["value"]
    assert raw_p50 * 100.0 / hi * 0.999 <= p50 <= raw_p50 * 100.0 / lo * 1.001


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(RUN.parent.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "gkpbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
