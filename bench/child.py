"""One benchmark phase of one workload, run in its own process by `run.py`.

Usage: python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's warm-up operations, then timed operations for S seconds
in PASSES passes over the same inputs (at least MIN_OPS operations), with a
group of set-ups before each pass. It checks every output and prints one JSON
object with the raw figures on its last stdout line. With --trace 1 the
tracer's wrappers are installed first and the per-layer metrics are included.

Neighbours on a shared machine slow runs by up to 2x, for seconds or minutes
at a time. So every operation and every group of set-ups is timed between two
runs of the reference kernel (`reference.py`) and scaled to the kernel's
fixed speed, and an operation's time is the median of its PASSES scaled runs
spread over the whole measurement. The unscaled wall times are kept beside
the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 20
PASSES = 5
SETUP_GROUP_S = 0.2  # each group sets up at least once and until this much wall time is spent
SETUP_GROUP_MAX_REPS = 60
MAX_REPORTED_ERRORS = 3


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import specrelax

    if Path(specrelax.__file__).resolve().parent != ROOT / "src" / "specrelax":
        raise SystemExit(f"specrelax imported from {specrelax.__file__}, not from {ROOT / 'src'}")

    import reference
    from tracer import UNKEPT, Tracer
    from workloads import WORKLOADS, OpFailed

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    reference.warm_up()
    ref_ns = reference.REF_MS * 1e6

    work = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload_name](seed, work)
        setup_s: list[float] = []  # scaled to the reference kernel's speed
        setup_wall_s: list[float] = []
        train_s = 0.0  # scaled, summed over all set-ups
        last_kernel_ns: int | None = None  # kernel time just before the next operation

        def setup_group() -> None:
            nonlocal train_s, last_kernel_ns
            # Set-up calls are traced apart from the operations they sit between.
            with tracer.aside() if tracer is not None else contextlib.nullcontext():
                before = reference.kernel_ns()
                walls: list[float] = []
                while not walls or (sum(walls) < SETUP_GROUP_S and len(walls) < SETUP_GROUP_MAX_REPS):
                    started = perf_counter()
                    wl.setup()
                    walls.append(perf_counter() - started)
                last_kernel_ns = reference.kernel_ns()
                scale = ref_ns / ((before + last_kernel_ns) / 2)
                setup_wall_s.extend(walls)
                setup_s.extend(w * scale for w in walls)
                if tracer is not None:
                    train_s += tracer.busy_ns.get("train.train_drafter", 0) / 1e9 * scale

        attempted = failed = 0
        errors: list[str] = []
        call = wl.op if tracer is None else tracer.span("bench.op", wl.op)

        def attempt(i: int, expected=None) -> tuple[int, float, object, int] | None:
            """Run and check operation i.

            Returns (wall ns, scale to the kernel's speed, result, tokens), or
            None if it failed.
            """
            nonlocal attempted, failed, last_kernel_ns
            attempted += 1
            violations = tracer.counts["verify.budget_violations"] if tracer else 0
            try:
                before = last_kernel_ns if last_kernel_ns is not None else reference.kernel_ns()
                started = perf_counter_ns()
                result = call(i)
                elapsed = perf_counter_ns() - started
                last_kernel_ns = reference.kernel_ns()
                if tracer is not None:
                    violations = tracer.counts["verify.budget_violations"] - violations
                tokens = wl.check(i, result)
                if violations:
                    raise OpFailed(f"{violations} verify calls exceeded the TVD budget")
                if expected is not None and result != expected:
                    raise OpFailed(f"operation {i} gave {result!r} on a re-run, {expected!r} first")
                return elapsed, ref_ns / ((before + last_kernel_ns) / 2), result, tokens
            except Exception:  # the loop must keep running; each failure is counted
                last_kernel_ns = None
                failed += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(traceback.format_exc())
                return None

        setup_group()
        for i in range(wl.warmup_ops):
            attempt(i)

        # Pass 0 runs new operations for 1/PASSES of --seconds; the later
        # passes run the same operations again, each in a new order so that an
        # operation's runs do not fall in step with periodic load, and must
        # reproduce their results.
        if tracer is not None:
            tracer.reset()
        trace_bytes_before = getattr(wl, "trace_bytes", 0)
        runs: dict[int, list[tuple[int, float]]] = {}  # operation -> [(wall ns, scale)]
        results: dict[int, object] = {}
        tokens = 0
        i = wl.warmup_ops
        deadline = perf_counter() + seconds / PASSES
        while perf_counter() < deadline or i - wl.warmup_ops < MIN_OPS:
            if tracer is not None:
                tracer.op = i - wl.warmup_ops
            outcome = attempt(i)
            if outcome is not None:
                wall_ns, scale, results[i], op_tokens = outcome
                runs[i] = [(wall_ns, scale)]
                tokens += op_tokens
            i += 1
        timed_ops = i - wl.warmup_ops
        if tracer is not None:
            tracer.op = UNKEPT
        order = list(results)
        shuffle = random.Random(seed).shuffle
        for _ in range(1, PASSES):
            setup_group()
            shuffle(order)
            for j in order:
                outcome = attempt(j, results[j])
                if outcome is not None:
                    runs[j].append(outcome[:2])
        timed_attempts = attempted - wl.warmup_ops
        scales = [scale for op_runs in runs.values() for _, scale in op_runs]
        if tracer is not None:
            trace_bytes = getattr(wl, "trace_bytes", 0) - trace_bytes_before
            layers = tracer.layer_metrics(timed_attempts, trace_bytes, statistics.median(scales))
            layers["train.busy_s"] = train_s / len(setup_s)
            self_check = tracer.self_time_check(timed_attempts)
            tracer.reset()

        try:
            deterministic = wl.deterministic()
        except Exception:
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc())
            deterministic = {}

        result = {
            "workload": workload_name,
            "seed": seed,
            "traced": traced,
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "timed_ops": timed_ops,
            "passes": PASSES,
            "tokens": tokens,
            # An operation's time is the median of its runs in all passes.
            "op_ms": [statistics.median(w * k for w, k in r) / 1e6 for r in runs.values()],
            "op_wall_ms": [statistics.median(w for w, _ in r) / 1e6 for r in runs.values()],
            "kernel_ms": ref_ns / statistics.median(scales) / 1e6,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "deterministic": deterministic,
        }
        if tracer is not None:
            result["layers"] = {**layers, **deterministic}
            result["self_time_check"] = self_check
            spans_path = ROOT / ".bench_work" / "spans" / f"{workload_name}-seed{seed}.jsonl"
            tracer.write_spans(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
