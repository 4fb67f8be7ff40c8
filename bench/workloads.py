"""The benchmark's three workloads: set-up, one operation, and its output check.

Every workload calls specrelax through module attributes (`harness.run_experiment`,
`cli.main`, ...) looked up at call time, so a traced run sees each call through
the tracer's wrappers and an untraced run calls the engine directly. Seeds of
operation `i` depend only on the workload seed and `i`.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from specrelax import cli, harness, models, train
from specrelax.harness import ExperimentConfig, Metrics
from specrelax.core import RngStream, derive_seed
from specrelax.tree import STOCHASTIC, TOPK, TreeMask
from specrelax.verify import RelaxConfig

SEED_STRIDE = 1_000_000


class OpFailed(Exception):
    """An operation ran but its output failed the workload's check."""


class GridCascade:
    """The paper's headline configuration: top-k tree `4,2,2,1,1`, cascade, zero drafter."""

    name = "grid-cascade"
    seeds_per_op = 4
    length = 64
    warmup_ops = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.base = seed * SEED_STRIDE
        self.model_path = str(work / "grid.json")
        self.drafter_path = str(work / "drafter-zero.json")
        self.first: dict | None = None

    def setup(self) -> None:
        models.save_model(models.GridWorldModel.default(), self.model_path)
        models.save_model(models.LinearDrafter.zeros(32, 8), self.drafter_path)

    def _config(self, i: int) -> ExperimentConfig:
        lo = self.base + i * self.seeds_per_op
        return ExperimentConfig(
            model_path=self.model_path,
            drafter_path=self.drafter_path,
            mode="cascade",
            seeds=tuple(range(lo, lo + self.seeds_per_op)),
            mask=TreeMask((4, 2, 2, 1, 1)),
            relax=RelaxConfig(),
            length=self.length,
            candidate_mode=TOPK,
        )

    def op(self, i: int) -> Metrics:
        return harness.run_experiment(self._config(i))

    def check(self, i: int, metrics: Metrics) -> int:
        if not metrics.mean_alpha <= 5:
            raise OpFailed(f"meanAlpha {metrics.mean_alpha} exceeds the mask depth 5")
        if self.first is None:
            self.first = metrics.to_record()
        return round(metrics.tokens_emitted * self.seeds_per_op)

    def deterministic(self) -> dict[str, float]:
        return {
            "verify.alpha_mean": self.first["meanAlpha"],
            "harness.speedup_proxy": self.first["speedupProxy"],
            "harness.oracle_tvd": 0.0,
        }


class TabularOracle:
    """Criterion 2's workload: V=4 order-1 tabular target, tempered drafter, chain of 3."""

    name = "tabular-oracle"
    samples = 500
    length = 3
    warmup_ops = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.base = seed * SEED_STRIDE
        self.target = None
        self.drafter = None
        self.first_tvd: float | None = None

    def setup(self) -> None:
        self.target = models.random_tabular_model(4, 1, seed=11)
        self.drafter = models.tempered_table_drafter(self.target)

    def op(self, i: int) -> tuple[float, bool]:
        return harness.mc_distribution_test(
            self.target, self.drafter, "vanilla", self.samples, self.length,
            mask=TreeMask.chain(self.length), base_seed=self.base + i,
        )

    def check(self, i: int, result: tuple[float, bool]) -> int:
        distance, passed = result
        if not passed:
            raise OpFailed(f"oracle bound failed: TVD {distance}")
        if self.first_tvd is None:
            self.first_tvd = distance
        return self.samples * self.length

    def deterministic(self) -> dict[str, float]:
        # mc_distribution_test returns no Metrics; replay operation 0's decodes
        # through decode_with_metrics for the algorithmic counts.
        per_seed = []
        for j in range(self.samples):
            rng = RngStream(derive_seed(self.base, j))
            _, metrics = harness.decode_with_metrics(
                self.target, self.drafter, "vanilla", TreeMask.chain(self.length),
                RelaxConfig(), self.length, rng, candidate_mode=STOCHASTIC,
            )
            per_seed.append(metrics)
        aggregate = Metrics.aggregate(per_seed)
        return {
            "verify.alpha_mean": aggregate.mean_alpha,
            "harness.speedup_proxy": aggregate.speedup_proxy,
            "harness.oracle_tvd": self.first_tvd,
        }


class GridVanillaTrace:
    """CLI decode with a trained drafter, stochastic candidates, metrics and trace JSONL."""

    name = "grid-vanilla-trace"
    seeds_per_op = 8
    length = 64
    warmup_ops = 0  # every CLI call reloads its models, as a user pays on each call

    def __init__(self, seed: int, work: Path) -> None:
        self.base = seed * SEED_STRIDE
        self.model_path = str(work / "grid.json")
        self.drafter_path = str(work / "drafter-trained.json")
        self.metrics_path = work / "metrics.jsonl"
        self.trace_path = work / "trace.jsonl"
        self.first: dict | None = None
        self.trace_bytes = 0

    def setup(self) -> None:
        target = models.GridWorldModel.default()
        models.save_model(target, self.model_path)
        models.save_model(train.train_drafter(target, train.TrainConfig()), self.drafter_path)

    def op(self, i: int) -> tuple[int, str]:
        lo = self.base + i * self.seeds_per_op
        argv = [
            "decode", "--model", self.model_path, "--drafter", self.drafter_path,
            "--mode", "vanilla", "--candidates", STOCHASTIC,
            "--seeds", f"{lo}..{lo + self.seeds_per_op - 1}",
            "--out", str(self.metrics_path), "--trace", str(self.trace_path),
        ]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        return code, printed.getvalue()

    def check(self, i: int, result: tuple[int, str]) -> int:
        code, printed = result
        if code != 0:
            raise OpFailed(f"cli exit code {code}")
        record = json.loads(printed)
        per_seed, aggregate = harness.read_metrics_jsonl(self.metrics_path)
        if len(per_seed) != self.seeds_per_op or {"aggregate": True, **aggregate.to_record()} != record:
            raise OpFailed("metrics JSONL does not round-trip to the printed aggregate")
        trace_text = self.trace_path.read_text(encoding="utf-8")
        for line in trace_text.splitlines():
            if json.loads(line)["budgetLeft"] < -1e-9:
                raise OpFailed(f"negative budgetLeft in trace record {line}")
        self.trace_bytes += len(trace_text.encode("utf-8"))
        if self.first is None:
            self.first = record
        return round(aggregate.tokens_emitted * self.seeds_per_op)

    def deterministic(self) -> dict[str, float]:
        return {
            "verify.alpha_mean": self.first["meanAlpha"],
            "harness.speedup_proxy": self.first["speedupProxy"],
            "harness.oracle_tvd": 0.0,
        }


WORKLOADS = {w.name: w for w in (GridCascade, TabularOracle, GridVanillaTrace)}
