"""Tests of the benchmark itself: its checks fail when they should, its
traced counts repeat, and its metric names match BENCHMARK.json.

    python3 -m pytest bench/tests -q

No test here asserts a wall time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE, ROOT, CliResult, Failure  # noqa: E402

_, ZEROS = oracle.read_reference(REFERENCE)


def scan_output(t_max: float, ordinates) -> CliResult:
    lines = ["# xi zero ordinates (imaginary-axis, z-coordinates)", f"# t_max={t_max:.10g}"]
    lines += [f"{k:.10f}" for k in ordinates]
    return CliResult(("find-zeros",), 0, "\n".join(lines) + "\n", "")


def test_reference_file_holds_every_zero_below_1000():
    t_max, zeros = oracle.read_reference(REFERENCE)
    assert t_max == 1000 and len(zeros) == 649
    assert zeros == sorted(zeros) and zeros[-1] < 1000
    assert abs(zeros[0] - 14.134725141734693) < 1e-14


def test_scan_check_accepts_the_reference():
    below = [k for k in ZEROS if k < 990.0]
    verdict = oracle.check_scan(scan_output(990.0, below), 990.0, ZEROS)
    assert verdict.ok, verdict.problems
    assert verdict.digits > 10


def test_scan_check_flags_a_perturbed_ordinate():
    below = [k for k in ZEROS if k < 990.0]
    below[300] += 1e-7
    verdict = oracle.check_scan(scan_output(990.0, below), 990.0, ZEROS)
    assert not verdict.ok
    assert "zero 301" in verdict.problems[0]


def test_scan_check_flags_a_missing_zero():
    below = [k for k in ZEROS if k < 990.0]
    del below[17]
    verdict = oracle.check_scan(scan_output(990.0, below), 990.0, ZEROS)
    assert not verdict.ok


def test_scalar_check_flags_a_wrong_value():
    assert oracle.check_scalar("zeta", 2 + 0j, complex(math.pi ** 2 / 6)).ok
    assert not oracle.check_scalar("zeta", 2 + 0j, complex(math.pi ** 2 / 6 * (1 + 1e-7))).ok
    assert not oracle.check_scalar("log_gamma", 0.5 + 1j, Failure("DomainError: boom")).ok


def test_analysis_check_flags_a_nonzero_exit():
    good = CliResult(("count",), 0, "actual=29 formula=29.0 diff=0\n", "")
    bad = CliResult(("count",), 1, good.out, "FAIL: |actual - formula| too large\n")
    assert not oracle.check_analysis("count", {"t_max": 100.0}, bad, ZEROS).ok
    assert not oracle.check_analysis("count", {"t_max": 100.0}, Failure("x"), ZEROS).ok


def test_analysis_check_flags_a_wrong_count():
    formula = float(oracle.phi_mp(100.0))
    out = f"actual=28 formula={formula:.10g} diff={28 - formula:.10g}\n"
    verdict = oracle.check_analysis("count", {"t_max": 100.0},
                                    CliResult(("count",), 0, out, ""), ZEROS)
    assert not verdict.ok and "reference has 29" in verdict.problems[0]


def _counts(record: dict) -> dict:
    return {k: v for k, v in record["metrics"].items() if tracing.UNITS[k] in ("count", "bytes")}


@pytest.mark.parametrize("workload", ["scan", "analysis", "pointwise"])
def test_traced_counts_repeat_for_a_seed(workload):
    first = run.run(workload, 3, 0.0, trace=True)
    second = run.run(workload, 3, 0.0, trace=True)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert set(first["metrics"]) == set(tracing.UNITS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
