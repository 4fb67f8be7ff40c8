"""Experiment harness: metrics, seeded runs, distribution oracles, heatmap export.

Speedup is a call-count cost model, not wall clock: emitted tokens divided by
(target passes + kappa * drafter passes), normalized so plain autoregressive
decoding scores exactly 1.0.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .core import (
    ConfigError,
    FeatureVec,
    GridPos,
    InvalidValue,
    RngStream,
    RowOutOfRange,
    TokenId,
    _check_seed,
    cosine_sim,
    derive_streams,
)
from .models import Drafter, Target, enumerate_ar_distribution, load_model
from .tree import CANDIDATE_MODES, STOCHASTIC, TOPK, TreeMask
from .verify import AR, MODES, DecodeStats, RelaxConfig, decode_lanes, decode_sequence

DEFAULT_KAPPA = 0.1
# Sequences decoded in lockstep at a time, by `run_experiment` (seeds) and
# `mc_distribution_test` (samples); it bounds a decode's memory.
LANE_BLOCK = 512


# Metrics field -> JSONL key; every record conversion derives from this table.
_METRIC_KEYS = (
    ("mean_alpha", "meanAlpha"),
    ("target_calls", "targetCalls"),
    ("drafter_calls", "drafterCalls"),
    ("speedup_proxy", "speedupProxy"),
    ("accumulated_tvd", "accumulatedTVD"),
    ("per_token_tvd", "perTokenTVD"),
    ("tokens_emitted", "tokensEmitted"),
)


@dataclass(frozen=True)
class Metrics:
    """Acceptance and cost summary for one decode (or a mean over seeds)."""

    mean_alpha: float
    target_calls: float
    drafter_calls: float
    speedup_proxy: float
    accumulated_tvd: float
    per_token_tvd: float
    tokens_emitted: float

    def to_record(self) -> dict:
        return {key: getattr(self, name) for name, key in _METRIC_KEYS}

    @classmethod
    def from_record(cls, record: dict) -> "Metrics":
        return cls(**{name: record[key] for name, key in _METRIC_KEYS})

    @classmethod
    def aggregate(cls, per_seed: Sequence["Metrics"]) -> "Metrics":
        if not per_seed:
            raise InvalidValue("cannot aggregate zero runs")
        n = len(per_seed)
        # A left-to-right fold from int 0, as Python 3.11's `sum`: from 3.12 on `sum`
        # compensates float rounding, so the record's bytes would depend on the interpreter.
        def mean(name: str) -> float:
            return functools.reduce(operator.add, (getattr(m, name) for m in per_seed), 0) / n

        return cls(**{name: mean(name) for name, _ in _METRIC_KEYS})


def _check_kappa(kappa: float) -> None:
    """Raise ConfigError unless the drafter cost ratio is finite and non-negative."""
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ConfigError(f"kappa must be finite and non-negative, got {kappa!r}")


def _metrics(mode: str, stats: DecodeStats, kappa: float) -> Metrics:
    """Summarize one decode's counters; `ar` scores mean alpha 1.0 and speedup 1.0 by convention."""
    if mode == AR:
        return Metrics(1.0, stats.target_calls, 0, 1.0, 0.0, 0.0, stats.tokens_emitted)
    cost = stats.target_calls + kappa * stats.drafter_calls
    return Metrics(
        stats.accepted_draft_tokens / stats.verify_calls,
        stats.target_calls,
        stats.drafter_calls,
        stats.tokens_emitted / cost,
        stats.accumulated_tvd,
        stats.accumulated_tvd / stats.tokens_emitted,
        stats.tokens_emitted,
    )


def decode_with_metrics(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    mask: TreeMask,
    cfg: RelaxConfig,
    length: int,
    rng: RngStream,
    kappa: float = DEFAULT_KAPPA,
    candidate_mode: str = TOPK,
    on_outcome=None,
) -> tuple[list[TokenId], Metrics]:
    """Decode one sequence and summarize its counters as Metrics.

    Autoregressive decodes score mean alpha 1.0 and speedup 1.0 by convention.
    """
    _check_kappa(kappa)
    tokens, stats = decode_sequence(
        target, drafter, mode, mask, cfg, length, rng,
        candidate_mode=candidate_mode, on_outcome=on_outcome,
    )
    return tokens, _metrics(mode, stats, kappa)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `decode` invocation needs, file paths included."""

    model_path: str
    mode: str
    seeds: tuple[int, ...]
    drafter_path: str | None = None
    mask: TreeMask = field(default_factory=TreeMask.default)
    relax: RelaxConfig = field(default_factory=RelaxConfig)
    length: int | None = None
    kappa: float = DEFAULT_KAPPA
    candidate_mode: str = TOPK
    metrics_path: str | None = None
    trace_path: str | None = None
    heatmap_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        _check_seed(min(self.seeds))
        _check_seed(max(self.seeds))
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigError(f"unknown candidate mode {self.candidate_mode!r}")
        _check_kappa(self.kappa)
        if not Path(self.model_path).exists():
            raise ConfigError(f"model file not found: {self.model_path}")
        if self.mode != AR and self.drafter_path is None:
            raise ConfigError(f"mode {self.mode!r} requires --drafter")
        if self.drafter_path is not None and not Path(self.drafter_path).exists():
            raise ConfigError(f"drafter file not found: {self.drafter_path}")
        for path in (self.metrics_path, self.trace_path, self.heatmap_path):
            if path is not None:
                check_output_path(path)


def check_output_path(path: str | Path) -> None:
    """Raise ConfigError unless a file can be created at `path`: its directory exists and it is none."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output path {str(path)!r} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output path {str(path)!r} is in a directory that does not exist")


def load_target(path: str | Path) -> Target:
    """Load a model file that must hold a target; refuse any other kind before work is done."""
    model = load_model(path)
    if not isinstance(model, Target):
        raise ConfigError(f"{path} holds a {model.kind!r} model, which cannot serve as the target")
    return model


def _check_drafter_matches(target: Target, drafter: Drafter | None) -> None:
    """Raise ConfigError unless the drafter proposes over the target's vocabulary and grid."""
    if drafter is None:
        return
    target_vocab, drafter_vocab = getattr(target, "vocab"), getattr(drafter, "vocab")
    if drafter_vocab != target_vocab:
        raise ConfigError(f"drafter vocabulary {drafter_vocab} != target vocabulary {target_vocab}")
    if target.grid_side and drafter.grid_side and drafter.grid_side != target.grid_side:
        raise ConfigError(f"drafter grid side {drafter.grid_side} != target grid side {target.grid_side}")


def _check_length(target: Target, drafter: Drafter | None, length: int) -> None:
    """Raise ConfigError unless `length` is positive and fits the grid of each model that has one."""
    if length < 1:
        raise ConfigError(f"sequence length must be at least 1, got {length}")
    for role, model in (("target", target), ("drafter", drafter)):
        side = model.grid_side if model is not None else None
        if side and length > side * side:
            raise ConfigError(f"length {length} exceeds the {role}'s {side}x{side} grid")


# `json.dumps(record, sort_keys=True)` would build a new encoder for every line.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _dump_line(out: TextIO, record: dict) -> None:
    out.write(_LINE_ENCODER.encode(record) + "\n")


def run_experiment(cfg: ExperimentConfig) -> Metrics:
    """Decode one sequence per seed, write JSONL records, return the seed mean."""
    target = load_target(cfg.model_path)
    drafter = load_model(cfg.drafter_path) if cfg.drafter_path else None
    _check_drafter_matches(target, drafter)
    length = cfg.length
    if length is None:
        if target.grid_side is None:
            raise ConfigError("a sequence length is required for non-grid models")
        length = target.grid_side * target.grid_side
    _check_length(target, drafter, length)
    side = target.grid_side or max(1, math.isqrt(max(length - 1, 0)) + 1)
    if cfg.heatmap_path is not None and length != side * side:
        raise ConfigError(
            f"the heatmap covers every row of the {side}x{side} grid, so it needs length {side * side}, "
            f"got {length}"
        )

    # One lane per seed, LANE_BLOCK seeds at a time; each lane's trace lines
    # are kept apart so that the file lists them seed by seed, cycle by cycle.
    traces: list[list[str]] = [[] for _ in cfg.seeds]
    results = []
    for lo in range(0, len(cfg.seeds), LANE_BLOCK):
        seeds = cfg.seeds[lo : lo + LANE_BLOCK]
        sink = None
        if cfg.trace_path is not None:
            def sink(lane: int, cycle: int, outcome) -> None:
                traces[lo + lane].extend(outcome.trace_lines(seeds[lane], cycle))
        results += decode_lanes(
            target, drafter, cfg.mode, cfg.mask, cfg.relax, length,
            [RngStream(seed) for seed in seeds], candidate_mode=cfg.candidate_mode, on_outcome=sink,
        )
    per_seed = [_metrics(cfg.mode, stats, cfg.kappa) for _, stats in results]

    aggregate = Metrics.aggregate(per_seed)
    if cfg.metrics_path is not None:
        with open(cfg.metrics_path, "w", encoding="utf-8", newline="\n") as out:
            for seed, metrics in zip(cfg.seeds, per_seed):
                _dump_line(out, {"seed": seed, **metrics.to_record()})
            _dump_line(out, {"aggregate": True, **aggregate.to_record()})
    if cfg.trace_path is not None:
        with open(cfg.trace_path, "w", encoding="utf-8", newline="\n") as out:
            for lines in traces:
                out.writelines(lines)
    if cfg.heatmap_path is not None:
        export_similarity_heatmap(target, results[0][0], range(side), cfg.heatmap_path)
    return aggregate


def read_metrics_jsonl(path: str | Path) -> tuple[list[tuple[int, Metrics]], Metrics]:
    """Parse a metrics JSONL file back into (per-seed, aggregate)."""
    per_seed: list[tuple[int, Metrics]] = []
    aggregate: Metrics | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("aggregate"):
            aggregate = Metrics.from_record(record)
        else:
            per_seed.append((record["seed"], Metrics.from_record(record)))
    if aggregate is None:
        raise ConfigError(f"{path} has no aggregate record")
    return per_seed, aggregate


def mc_distribution_test(
    target: Target,
    drafter: Drafter | None,
    mode: str,
    samples: int,
    length: int,
    mask: TreeMask | None = None,
    relax: RelaxConfig | None = None,
    base_seed: int = 0,
) -> tuple[float, bool]:
    """Empirical sequence law over `samples` seeded decodes versus the exact law.

    Draft candidates are sampled (not ranked) here, since the exactness claim
    concerns proposals drawn from the drafter. Sample i decodes on the
    stream `RngStream(derive_seed(base_seed, i))`; the samples are decoded
    as lanes, LANE_BLOCK at a time, whose streams come from one
    `derive_streams` pass. The pass flag applies the
    3 * sqrt(V^length / samples) multinomial bound; stricter caps are the
    caller's business.
    """
    if samples < 1:
        raise ConfigError(f"at least one sample is required, got {samples}")
    _check_seed(base_seed)
    _check_drafter_matches(target, drafter)
    _check_length(target, drafter, length)
    oracle = enumerate_ar_distribution(target, length)
    mask = mask if mask is not None else TreeMask.chain(length)
    relax = relax if relax is not None else RelaxConfig()
    counts: dict[tuple[int, ...], int] = {}
    for lo in range(0, samples, LANE_BLOCK):
        rngs = derive_streams(base_seed, lo, min(lo + LANE_BLOCK, samples))
        for tokens, _ in decode_lanes(
            target, drafter, mode, mask, relax, length, rngs, candidate_mode=STOCHASTIC
        ):
            key = tuple(tokens)
            counts[key] = counts.get(key, 0) + 1
    distance = 0.0
    for key, prob in oracle.items():
        distance += abs(counts.get(key, 0) / samples - prob)
    for key in counts:
        if key not in oracle:  # impossible for a correct decoder; count anyway
            distance += counts[key] / samples
    distance *= 0.5
    vocab = getattr(target, "vocab")
    bound = 3.0 * math.sqrt(vocab**length / samples)
    return distance, distance <= bound


def sequence_features(target: Target, tokens: Sequence[TokenId], side: int) -> list[FeatureVec]:
    """Per-step hidden states of a finished sequence, re-evaluated step by step."""
    feats: list[FeatureVec] = []
    for t in range(len(tokens)):
        feats.append(target.evaluate(tokens[:t], GridPos.from_index(t, side)).feature)
    return feats


def export_similarity_heatmap(
    target: Target,
    tokens: Sequence[TokenId],
    rows: Sequence[int],
    path: str | Path,
) -> np.ndarray:
    """Pairwise cosine matrix over the per-step features of the requested grid rows.

    Writes a CSV with one header line and one line per position; an empty row
    selection produces the header alone.
    """
    side = target.grid_side or max(1, math.isqrt(max(len(tokens) - 1, 0)) + 1)
    for row in rows:
        if not 0 <= row < side:
            raise RowOutOfRange(f"row {row} outside grid of side {side}")
    positions = [row * side + col for row in rows for col in range(side)]
    if any(p >= len(tokens) for p in positions):
        raise RowOutOfRange("requested rows extend past the decoded sequence")
    feats = sequence_features(target, tokens, side)
    n = len(positions)
    matrix = np.empty((n, n))
    for i, pi in enumerate(positions):
        for j, pj in enumerate(positions):
            matrix[i, j] = cosine_sim(feats[pi], feats[pj]) if j >= i else matrix[j, i]
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["pos"] + [str(p) for p in positions])
        for i, pi in enumerate(positions):
            writer.writerow([str(pi)] + [repr(v) for v in matrix[i].tolist()])
    return matrix
