"""Call-boundary tracer for the benchmark: spans and counters around specrelax's public calls.

The engine reaches its layers through module globals (`specrelax.verify.*`,
`specrelax.harness.*`, `specrelax.cli.*`) and through methods on the model
classes, so replacing those attributes from outside the package traces every
layer without editing it. `Tracer.install` does that; an untraced run never
calls it.

A span is (name, start, end, parent, operation id). Self time is a span's
duration minus the durations of the spans it directly encloses, computed as
each span closes, so the aggregates cover every operation while the raw spans
kept in memory are bounded to the first `KEEP_OPS` timed operations.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter_ns

KEEP_OPS = 5
UNKEPT = -1  # operation id of spans that are aggregated but not kept


class Tracer:
    """Spans, per-layer aggregates and call counters for one benchmark child."""

    def __init__(self) -> None:
        self.op = UNKEPT
        self.kept: list[tuple[str, int, int, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by direct children]
        self._next_id = 0
        self._drafter_depth = 0
        self.reset()

    def reset(self) -> None:
        """Drop the aggregates (not the kept spans); called between run phases."""
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {
            "core.rng_draws": 0,
            "models.target_evals": 0,
            "models.drafter_calls": 0,
            "tree.nodes": 0,
            "verify.build_sets.cosines": 0,
            "verify.build_sets.pairs": 0,
            "verify.calls": 0,
            "verify.decisions": 0,
            "verify.accepts": 0,
            "verify.tvd_consumed": 0.0,
            "verify.budget_violations": 0,
            "tokens": 0,
        }

    @contextlib.contextmanager
    def aside(self):
        """Aggregate the enclosed calls apart, then restore the current phase's aggregates."""
        saved = (self.busy_ns, self.self_ns, self.counts)
        self.reset()
        try:
            yield self
        finally:
            self.busy_ns, self.self_ns, self.counts = saved

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        """Wrap `fn` so each call records a span; `on_return(args, kwargs, result)` runs inside it."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.busy_ns[name] = tracer.busy_ns.get(name, 0) + duration
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + duration - frame[1]
                if 0 <= tracer.op < KEEP_OPS:
                    tracer.kept.append((name, start, end, frame[0], parent, tracer.op))

        return traced

    def _counted(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _target_evaluate(self, fn):
        # A tabular drafter answers `distribution` through its own `evaluate`;
        # only calls made outside a drafter call are target evaluations.
        tracer = self

        def evaluate(model, *args, **kwargs):
            if tracer._drafter_depth == 0:
                tracer.counts["models.target_evals"] += 1
            return fn(model, *args, **kwargs)

        return evaluate

    def _drafter_distribution(self, fn):
        tracer = self

        def distribution(model, *args, **kwargs):
            tracer.counts["models.drafter_calls"] += 1
            tracer._drafter_depth += 1
            try:
                return fn(model, *args, **kwargs)
            finally:
                tracer._drafter_depth -= 1

        return distribution

    # -- result hooks -------------------------------------------------------

    def _on_tree(self, args, kwargs, tree) -> None:
        self.counts["tree.nodes"] += len(tree.nodes)

    def _on_sets(self, args, kwargs, sets) -> None:
        pairs = sum(len(p) for p in sets.inter_pairs.values()) + len(sets.conv_pairs)
        self.counts["verify.build_sets.pairs"] += pairs

    def _on_outcome(self, args, kwargs, outcome) -> None:
        counts = self.counts
        counts["verify.calls"] += 1
        counts["verify.decisions"] += len(outcome.trace)
        counts["verify.accepts"] += sum(1 for rec in outcome.trace if rec.decision == "accept")
        counts["verify.tvd_consumed"] += outcome.tvd_consumed

    def _on_cascade(self, args, kwargs, outcome) -> None:
        self._on_outcome(args, kwargs, outcome)
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        if outcome.tvd_consumed > cfg.tvd_budget + 1e-9:
            self.counts["verify.budget_violations"] += 1

    def _on_decode(self, args, kwargs, result) -> None:
        self.counts["tokens"] += result[1].tokens_emitted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace specrelax's layer entry points with traced wrappers."""
        from specrelax import cli, core, harness, models, train, verify

        spans = [
            (verify, "sample_draft_tree", "tree.sample_draft_tree", self._on_tree),
            (verify, "evaluate_tree", "verify.evaluate_tree", None),
            (verify, "build_sets", "verify.build_sets", self._on_sets),
            (verify, "verify_vanilla", "verify.verify_vanilla", self._on_outcome),
            (verify, "verify_cascade", "verify.verify_cascade", self._on_cascade),
            (harness, "decode_sequence", "verify.decode_sequence", self._on_decode),
            (models, "load_model", "models.load_model", None),
            (harness, "load_model", "models.load_model", None),
            (cli, "load_model", "models.load_model", None),
            (harness, "run_experiment", "harness.run_experiment", None),
            (cli, "run_experiment", "harness.run_experiment", None),
            (harness, "mc_distribution_test", "harness.mc_distribution_test", None),
            (cli, "mc_distribution_test", "harness.mc_distribution_test", None),
            (cli, "main", "cli.main", None),
            (train, "train_drafter", "train.train_drafter", None),
            (cli, "train_drafter", "train.train_drafter", None),
        ]
        for module, attr, name, hook in spans:
            setattr(module, attr, self.span(name, getattr(module, attr), hook))
        verify.cosine_sim = self._counted("verify.build_sets.cosines", verify.cosine_sim)
        core.RngStream.next_real = self._counted("core.rng_draws", core.RngStream.next_real)
        for cls in (models.GridWorldModel, models.TabularModel):
            cls.evaluate = self._target_evaluate(cls.evaluate)
        for cls in (models.LinearDrafter, models.TabularModel):
            cls.distribution = self._drafter_distribution(cls.distribution)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, n_ops: int, trace_bytes: float, scale: float) -> dict[str, float]:
        """Per-operation layer metrics of the phase since the last `reset`.

        Times are multiplied by `scale`, the phase's median factor to the
        reference kernel's speed, as the end-to-end times are.
        """
        counts = self.counts

        def busy(name: str) -> float:
            return self.busy_ns.get(name, 0) * scale / 1e6 / n_ops

        def self_ms(name: str) -> float:
            return self.self_ns.get(name, 0) * scale / 1e6 / n_ops

        def per_op(key: str) -> float:
            return counts[key] / n_ops

        decisions = counts["verify.decisions"]
        return {
            "tree.busy_ms": busy("tree.sample_draft_tree"),
            "tree.nodes": per_op("tree.nodes"),
            "verify.evaluate_tree.busy_ms": busy("verify.evaluate_tree"),
            "models.target_evals": per_op("models.target_evals"),
            "verify.build_sets.busy_ms": busy("verify.build_sets"),
            "verify.build_sets.cosines": per_op("verify.build_sets.cosines"),
            "verify.build_sets.pairs": per_op("verify.build_sets.pairs"),
            "verify.decide.self_ms": self_ms("verify.verify_vanilla") + self_ms("verify.verify_cascade"),
            "verify.decisions": per_op("verify.decisions"),
            "verify.accept_ratio": counts["verify.accepts"] / decisions if decisions else 0.0,
            "verify.tvd_per_call": (
                counts["verify.tvd_consumed"] / counts["verify.calls"] if counts["verify.calls"] else 0.0
            ),
            "verify.decode.self_ms": self_ms("verify.decode_sequence"),
            "verify.calls": per_op("verify.calls"),
            "core.rng_draws_per_token": counts["core.rng_draws"] / counts["tokens"] if counts["tokens"] else 0.0,
            "models.load_ms": busy("models.load_model"),
            "models.drafter_calls": per_op("models.drafter_calls"),
            "harness.self_ms": self_ms("harness.run_experiment") + self_ms("harness.mc_distribution_test"),
            "harness.trace_bytes": trace_bytes / n_ops,
            "cli.self_ms": self_ms("cli.main"),
        }

    def self_time_check(self, n_ops: int) -> dict[str, float]:
        """Sum of every layer's self time against the traced operation time, per operation, in wall ms."""
        return {
            "self_sum_ms": sum(self.self_ns.values()) / 1e6 / n_ops,
            "traced_op_ms": self.busy_ns.get("bench.op", 0) / 1e6 / n_ops,
            "bench_self_ms": self.self_ns.get("bench.op", 0) / 1e6 / n_ops,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, span_id, parent, op in self.kept:
                out.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end, "id": span_id,
                     "parent": parent, "op": op}
                ))
                out.write("\n")
