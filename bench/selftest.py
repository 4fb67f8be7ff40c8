"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Usage (from the repository root): python3 bench/selftest.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit and no failed operation, that the traced self times sum to the traced
operation time, that `build_sets` never runs where it is bypassed, that the
deterministic counts agree between the untraced and the traced run, and that
the benchmark refuses to run without the specrelax sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SECONDS = "1"
DETERMINISTIC = ("verify.alpha_mean", "harness.speedup_proxy", "harness.oracle_tvd")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def run_workload(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result: dict, expected: dict[str, str], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {metrics[name]}, expected a number in {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        plain_record, plain = run_workload(workload, 0)
        check_metrics(plain, end_to_end, f"{workload} trace=0")
        traced_record, traced = run_workload(workload, 1)
        check_metrics(traced, per_layer, f"{workload} trace=1")

        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        check = traced_record["workloads"][0]["self_time_check"]
        if not math.isclose(check["self_sum_ms"], check["traced_op_ms"], rel_tol=1e-6):
            raise AssertionError(f"{workload}: self times {check} do not sum to the op time")
        if workload != "grid-cascade" and layers["verify.build_sets.busy_ms"] != 0:
            raise AssertionError(f"{workload}: build_sets ran where it should be bypassed")
        plain_det = plain_record["workloads"][0]["deterministic"]
        if any(plain_det[name] != layers[name] for name in DETERMINISTIC):
            raise AssertionError(f"{workload}: deterministic counts differ: {plain_det} vs {layers}")
        print(f"ok  {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("--workload", "grid-cascade", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"run without sources exited {proc.returncode} and printed {proc.stdout!r}")
    print("ok  refuses to run without src/specrelax")
    return 0


if __name__ == "__main__":
    sys.exit(main())
