"""specrelax benchmark: one command, three workloads, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload grid-cascade --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single-threaded child process (`child.py`).
With --trace 0 the child runs untraced and the result holds the end-to-end
metrics. With --trace 1 an untraced child and a traced child each measure for
half of --seconds; the result holds the per-layer metrics of the traced child,
and the run record states the tracing overhead. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before it
is the run record. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("grid-cascade", "tabular-oracle", "grid-vanilla-trace")
TAIL_BEYOND = 10
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(child: dict) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference kernel's speed."""
    op_ms = sorted(child["op_ms"])
    if len(op_ms) <= TAIL_BEYOND:
        raise BenchError(f"only {len(op_ms)} operations succeeded; the tail needs more")
    return {
        "tokens_per_s": child["tokens"] / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": op_ms[-TAIL_BEYOND - 1],
        "setup_s": statistics.median(child["setup_s"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_share": (child["attempted"] - child["failed"]) / child["attempted"],
    }


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> tuple[dict, dict]:
    """Returns (metrics, record) for one workload."""
    if not traced:
        child = run_child(workload, seed, seconds, False, deadline)
        children = [child]
        metrics = end_to_end(child)
    else:
        plain = run_child(workload, seed, seconds / 2, False, deadline)
        child = run_child(workload, seed, seconds / 2, True, deadline)
        children = [plain, child]
        plain_tps = end_to_end(plain)["tokens_per_s"]
        traced_tps = end_to_end(child)["tokens_per_s"]
        metrics = {**child["layers"], "trace.tokens_per_s_ratio": traced_tps / plain_tps}
    n = len(child["op_ms"])
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "operations": child["timed_ops"],
        "passes": child["passes"],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "tail_ops_beyond": TAIL_BEYOND,
        # Unscaled figures of the same child, and the kernel time they were scaled by.
        "kernel_ms": child["kernel_ms"],
        "wall_tokens_per_s": child["tokens"] / (sum(child["op_wall_ms"]) / 1e3),
        "wall_op_ms_p50": statistics.median(child["op_wall_ms"]),
        "wall_setup_s": statistics.median(child["setup_wall_s"]),
        "deterministic": child["deterministic"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "errors": [e for c in children for e in c["errors"]],
    }
    if traced:
        record["self_time_check"] = child["self_time_check"]
        record["spans_file"] = child["spans_file"]
        record["untraced_tokens_per_s"] = plain_tps
        record["traced_tokens_per_s"] = traced_tps
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "specrelax" / "__init__.py").is_file():
        print(f"error: no specrelax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    spec = load_spec()
    units = spec["per_layer"] if traced else spec["end_to_end"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import specrelax

    common = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "all_names": len(specrelax.__all__),
    }

    try:
        results = [run_workload(w, args.seed, args.seconds, traced, deadline) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    combined: dict[str, dict] = {}
    for metrics, record in results:
        if set(metrics) != set(units):
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
                  file=sys.stderr)
            return 1
        for error in record["errors"]:
            print(f"{record['workload']}: operation failed:\n{error}", file=sys.stderr)
        prefix = "" if len(results) == 1 else f"{record['workload']}/"
        for name, value in metrics.items():
            print(f"{record['workload']:>20}  {name:<30} {value:>16.6g} {units[name]}")
            combined[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    records = [{k: v for k, v in r.items() if k != "errors"} for _, r in results]
    print(json.dumps({"record": {**common, "workloads": records}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
